"""Synthetic dataset generator.

Two modes:

* ``table1`` draws premise counts from per-class rounded Gaussians and samples
  each component's (checkworthiness, hatefulness) pair from the WSF-ARG+
  corpus's empirical conditional distribution given (message label, role).
  Components are sampled independently given those conditions; the corpus only
  pins the marginals, so within-message correlation is not modeled.
* ``separable`` plants a deterministic rule: a message is hateful iff at least
  one of its components carries a hateful annotation, and hateful annotations
  are placed only inside hateful messages. The conclusion of every hateful
  message is hateful, so a single-feature stump on the conclusion's
  hatefulness bit classifies the dataset perfectly; premise bits are random.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    ArgComponent,
    Checkworthiness,
    ComponentHate,
    Dataset,
    Message,
    MessageLabel,
    Role,
)

# WSF-ARG+ component-label counts, keyed (cw, component hate), per message
# class and role. Hateful-message components are always annotated; components
# of non-hateful messages are unannotated in the source corpus.
HATEFUL_PREMISE_WEIGHTS = {
    (Checkworthiness.NFS, ComponentHate.NON_HATEFUL): 29,
    (Checkworthiness.NFS, ComponentHate.HATEFUL): 45,
    (Checkworthiness.UFS, ComponentHate.NON_HATEFUL): 70,
    (Checkworthiness.UFS, ComponentHate.HATEFUL): 29,
    (Checkworthiness.CFS, ComponentHate.NON_HATEFUL): 110,
    (Checkworthiness.CFS, ComponentHate.HATEFUL): 123,
}
HATEFUL_CONCLUSION_WEIGHTS = {
    (Checkworthiness.NFS, ComponentHate.NON_HATEFUL): 30,
    (Checkworthiness.NFS, ComponentHate.HATEFUL): 98,
    (Checkworthiness.UFS, ComponentHate.NON_HATEFUL): 7,
    (Checkworthiness.UFS, ComponentHate.HATEFUL): 11,
    (Checkworthiness.CFS, ComponentHate.NON_HATEFUL): 21,
    (Checkworthiness.CFS, ComponentHate.HATEFUL): 60,
}
NON_HATEFUL_PREMISE_CW_WEIGHTS = {
    Checkworthiness.NFS: 107,
    Checkworthiness.UFS: 160,
    Checkworthiness.CFS: 94,
}
NON_HATEFUL_CONCLUSION_CW_WEIGHTS = {
    Checkworthiness.NFS: 105,
    Checkworthiness.UFS: 13,
    Checkworthiness.CFS: 18,
}

# WSF-ARG+ message counts (hateful, non-hateful), and its per-class
# premise-count moments
CORPUS_SIZES = (227, 136)
HATEFUL_PREMISES_MEAN_STD = (1.789, 0.644)
NON_HATEFUL_PREMISES_MEAN_STD = (2.654, 1.157)

MODES = ("table1", "separable")


class InvalidConfigError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic-corpus parameters; premise counts are rounded Gaussians
    clamped to [1, max_premises], per message class."""

    mode: str
    n_hateful: int
    n_nonhateful: int
    seed: int = 0
    max_premises: int = 6
    hateful_premise_mean: float = HATEFUL_PREMISES_MEAN_STD[0]
    hateful_premise_std: float = HATEFUL_PREMISES_MEAN_STD[1]
    nonhateful_premise_mean: float = NON_HATEFUL_PREMISES_MEAN_STD[0]
    nonhateful_premise_std: float = NON_HATEFUL_PREMISES_MEAN_STD[1]
    ensure_hateful_component: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.n_hateful < 1 or self.n_nonhateful < 1:
            raise InvalidConfigError("need at least one message per class")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        moments = (
            self.hateful_premise_mean, self.hateful_premise_std,
            self.nonhateful_premise_mean, self.nonhateful_premise_std,
        )
        if not all(math.isfinite(moment) for moment in moments):
            raise InvalidConfigError("premise-count means and stds must be finite")
        if self.hateful_premise_std < 0 or self.nonhateful_premise_std < 0:
            raise InvalidConfigError("premise-count std must be >= 0")
        if self.max_premises < 1:
            raise InvalidConfigError("max_premises must be >= 1")


def _premise_counts(rng, n, mean, std, cap):
    return np.clip(np.rint(rng.normal(mean, std, n)), 1, cap).astype(int)


def _weighted_choice(rng, weights: dict, size: int) -> list:
    keys = list(weights.keys())
    w = np.array([weights[k] for k in keys], dtype=float)
    draws = rng.choice(len(keys), size=size, p=w / w.sum())
    return [keys[i] for i in draws]


def _build_message(msg_id, label, premise_labels, conclusion_label) -> Message:
    components = [
        ArgComponent(role=Role.PREMISE, position=i, cw=cw, hate=hate)
        for i, (cw, hate) in enumerate(premise_labels)
    ]
    cw, hate = conclusion_label
    components.append(
        ArgComponent(
            role=Role.CONCLUSION, position=len(components), cw=cw, hate=hate
        )
    )
    return Message(id=msg_id, components=tuple(components), label=label)


def _force_hateful_component(rng, premise_labels, conclusion_label):
    if any(h is ComponentHate.HATEFUL for _, h in premise_labels) or (
        conclusion_label[1] is ComponentHate.HATEFUL
    ):
        return premise_labels, conclusion_label
    pick = int(rng.integers(0, len(premise_labels) + 1))
    if pick == len(premise_labels):
        conclusion_label = (conclusion_label[0], ComponentHate.HATEFUL)
    else:
        premise_labels[pick] = (premise_labels[pick][0], ComponentHate.HATEFUL)
    return premise_labels, conclusion_label


def _collapse_cw(weights: dict) -> dict:
    out: dict = {}
    for (cw, _), count in weights.items():
        out[cw] = out.get(cw, 0) + count
    return out


def _per_message(draws: list, counts) -> list[list]:
    """Split one flat list of component draws into per-message lists."""
    ends = np.cumsum(counts)
    return [list(draws[end - k : end]) for end, k in zip(ends, counts)]


def generate(cfg: GeneratorConfig) -> Dataset:
    """Generate a dataset per ``cfg``; deterministic per seed, and every
    produced message satisfies the structural invariants."""
    rng = np.random.default_rng(cfg.seed)
    k_hate = _premise_counts(
        rng, cfg.n_hateful, cfg.hateful_premise_mean, cfg.hateful_premise_std,
        cfg.max_premises,
    )
    k_nonhate = _premise_counts(
        rng, cfg.n_nonhateful, cfg.nonhateful_premise_mean,
        cfg.nonhateful_premise_std, cfg.max_premises,
    )
    separable = cfg.mode == "separable"
    premise_weights, conclusion_weights = HATEFUL_PREMISE_WEIGHTS, HATEFUL_CONCLUSION_WEIGHTS
    if separable:  # draw checkworthiness only; the hate labels are planted below
        premise_weights = _collapse_cw(premise_weights)
        conclusion_weights = _collapse_cw(conclusion_weights)
    premises = _weighted_choice(rng, premise_weights, int(k_hate.sum()))
    conclusions = _weighted_choice(rng, conclusion_weights, len(k_hate))
    nh_premise_cw = _weighted_choice(rng, NON_HATEFUL_PREMISE_CW_WEIGHTS, int(k_nonhate.sum()))
    nh_conclusion_cw = _weighted_choice(rng, NON_HATEFUL_CONCLUSION_CW_WEIGHTS, len(k_nonhate))
    messages = []
    for i, (labels, conclusion) in enumerate(zip(_per_message(premises, k_hate), conclusions)):
        if separable:
            bits = rng.random(len(labels)) < 0.5
            labels = [
                (cw, ComponentHate.HATEFUL if bit else ComponentHate.NON_HATEFUL)
                for cw, bit in zip(labels, bits)
            ]
            # the hateful conclusion is the planted, stump-separable signal
            conclusion = (conclusion, ComponentHate.HATEFUL)
        elif cfg.ensure_hateful_component:
            labels, conclusion = _force_hateful_component(rng, labels, conclusion)
        messages.append(_build_message(f"h{i:05d}", MessageLabel.HATEFUL, labels, conclusion))
    unannotated = ComponentHate.UNANNOTATED
    for i, (cws, cw) in enumerate(zip(_per_message(nh_premise_cw, k_nonhate), nh_conclusion_cw)):
        labels = [(premise_cw, unannotated) for premise_cw in cws]
        messages.append(
            _build_message(f"n{i:05d}", MessageLabel.NON_HATEFUL, labels, (cw, unannotated))
        )
    return Dataset(tuple(messages))
