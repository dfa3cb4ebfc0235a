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
    CONCLUSION,
    CW_CODES,
    HATE_CODES,
    HATEFUL,
    LABEL_CODES,
    Checkworthiness,
    ComponentHate,
    Dataset,
    MessageLabel,
    PREMISE,
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


def _weighted_choice(rng, weights: dict, size: int) -> np.ndarray:
    """The (cw, hate) codes of ``size`` draws of the keys of ``weights``; a
    key that is a checkworthiness alone is unannotated."""
    keys = list(weights.keys())
    w = np.array([weights[k] for k in keys], dtype=float)
    draws = rng.choice(len(keys), size=size, p=w / w.sum())
    codes = [(CW_CODES[k[0]], HATE_CODES[k[1]]) if isinstance(k, tuple) else (CW_CODES[k], 0)
             for k in keys]
    return np.array(codes, dtype=np.int8).reshape(-1, 2)[draws]


def _collapse_cw(weights: dict) -> dict:
    out: dict = {}
    for (cw, _), count in weights.items():
        out[cw] = out.get(cw, 0) + count
    return out


def generate(cfg: GeneratorConfig) -> Dataset:
    """Generate a dataset per ``cfg``; deterministic per seed, and every
    produced message satisfies the structural invariants.

    The hateful messages come first, then the non-hateful ones; each message
    lists its premises, then its conclusion."""
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
    k = np.concatenate([k_hate, k_nonhate])
    offsets = np.concatenate(([0], np.cumsum(k + 1)))
    conclusion = np.zeros(offsets[-1], dtype=bool)
    conclusion[offsets[1:] - 1] = True
    n_h = len(k_hate)
    hateful = np.arange(offsets[-1]) < offsets[n_h]  # the hateful messages' components
    codes = np.empty((offsets[-1], 2), dtype=np.int8)  # (cw, hate) per component
    for rows, weights in (
        (hateful & ~conclusion, premise_weights),
        (hateful & conclusion, conclusion_weights),
        (~hateful & ~conclusion, NON_HATEFUL_PREMISE_CW_WEIGHTS),
        (~hateful & conclusion, NON_HATEFUL_CONCLUSION_CW_WEIGHTS),
    ):
        codes[rows] = _weighted_choice(rng, weights, int(np.count_nonzero(rows)))
    hate = codes[:, 1]
    if separable:
        # one uniform draw per premise, in message order; the hateful
        # conclusion is the planted, stump-separable signal
        bits = rng.random(int(k_hate.sum())) < 0.5
        hate[hateful & ~conclusion] = np.where(bits, HATEFUL, HATE_CODES[ComponentHate.NON_HATEFUL])
        hate[hateful & conclusion] = HATEFUL
    elif cfg.ensure_hateful_component:
        # a hateful message without a hateful component gets one, drawn in message order
        has_hateful = np.logical_or.reduceat(hate[hateful] == HATEFUL, offsets[:n_h])
        for i in np.flatnonzero(~has_hateful):
            hate[offsets[i] + int(rng.integers(0, int(k_hate[i]) + 1))] = HATEFUL
    label = np.zeros(len(k), dtype=np.int8)
    label[:n_h] = LABEL_CODES[MessageLabel.HATEFUL]
    return Dataset(
        ids=[f"h{i:05d}" for i in range(n_h)] + [f"n{i:05d}" for i in range(len(k_nonhate))],
        label=label,
        offsets=offsets,
        role=np.where(conclusion, CONCLUSION, PREMISE),
        cw=codes[:, 0],
        hate=hate,
        texts=(None,) * int(offsets[-1]),
    )
