"""The per-message encoder: the reference for ``encodings.encode_dataset``.

``structure_vector``, ``cw_block``, ``hs_block``, ``encode`` and
``encode_dataset`` are the original implementation, which built each
message's row from three per-message blocks and stacked the rows with
``np.vstack``; ``feature_names`` is the original column naming. The spec and
the error classes come from the library, so a test can compare matrices,
names and raised error types directly.
"""

import numpy as np

from argstruct.data import CW_ORDER, ComponentHate, Dataset, Message
from argstruct.encodings import (
    EncodingSpec,
    MissingStageOneScoreError,
    PremiseOverflowError,
    StageOneScoreError,
    UnexpectedStageOneScoreError,
)


def _checked_premises(m: Message, L: int, truncate: bool):
    premises = m.premises
    if len(premises) > L:
        if not truncate:
            raise PremiseOverflowError(m.id, len(premises), L)
        premises = premises[:L]
    return premises


def structure_vector(
    m: Message, L: int, include_conclusion: bool, truncate: bool = False
) -> np.ndarray:
    """Presence one-hot over premise slots (filled left to right), plus an
    always-1 conclusion slot when ``include_conclusion``."""
    premises = _checked_premises(m, L, truncate)
    out = np.zeros(L + (1 if include_conclusion else 0))
    out[: len(premises)] = 1.0
    if include_conclusion:
        out[L] = 1.0
    return out


def cw_block(
    m: Message, L: int, include_conclusion: bool, truncate: bool = False
) -> np.ndarray:
    """Per-slot (NFS, UFS, CFS) one-hots in structure-slot order; empty slots
    stay all-zero."""
    premises = _checked_premises(m, L, truncate)
    slots = L + (1 if include_conclusion else 0)
    out = np.zeros(3 * slots)
    for i, p in enumerate(premises):
        out[3 * i + CW_ORDER.index(p.cw)] = 1.0
    if include_conclusion:
        out[3 * L + CW_ORDER.index(m.conclusion.cw)] = 1.0
    return out


def hs_block(m: Message, L: int, truncate: bool = False) -> np.ndarray:
    """L+1 binary entries, 1 iff the slot's component is annotated hateful.
    Non-hateful, unannotated, and empty slots encode as 0."""
    premises = _checked_premises(m, L, truncate)
    out = np.zeros(L + 1)
    for i, p in enumerate(premises):
        if p.hate is ComponentHate.HATEFUL:
            out[i] = 1.0
    if m.conclusion.hate is ComponentHate.HATEFUL:
        out[L] = 1.0
    return out


def encode(
    m: Message,
    spec: EncodingSpec,
    stage1_score: float | None = None,
    truncate: bool = False,
) -> np.ndarray:
    """Encode one message under ``spec``.

    ``stage1_score`` (the premise-model's hateful-class probability) must be
    given exactly for the two-stage families.
    """
    lay, L = spec.layout, spec.capacity
    if lay.two_stage:
        if stage1_score is None:
            raise MissingStageOneScoreError(
                f"{spec.family} requires a stage-1 score for message {m.id!r}"
            )
        if not 0.0 <= stage1_score <= 1.0:
            raise StageOneScoreError(f"stage-1 score must be in [0, 1], got {stage1_score}")
        head = np.array([float(stage1_score), 1.0])
        if not lay.cw:
            return head
        concl_cw = np.zeros(3)
        concl_cw[CW_ORDER.index(m.conclusion.cw)] = 1.0
        return np.concatenate([head, concl_cw])
    if stage1_score is not None:
        raise UnexpectedStageOneScoreError(
            f"{spec.family} does not take a stage-1 score"
        )
    parts = [structure_vector(m, L, lay.conclusion, truncate)]
    if lay.cw:
        parts.append(cw_block(m, L, lay.conclusion, truncate))
    if lay.hs:
        parts.append(hs_block(m, L, truncate))
    return np.concatenate(parts)


def feature_names(spec: EncodingSpec) -> list[str]:
    """Column names matching the encode layout (used by the encode CSV output)."""
    lay, L = spec.layout, spec.capacity
    if lay.two_stage:
        names = ["stage1", "concl"]
        if lay.cw:
            names += [f"concl_{cw.value}" for cw in CW_ORDER]
        return names
    slots = [f"p{i}" for i in range(L)] + (["concl"] if lay.conclusion else [])
    names = list(slots)
    if lay.cw:
        names += [f"{slot}_{cw.value}" for slot in slots for cw in CW_ORDER]
    if lay.hs:
        names += [f"{slot}_hs" for slot in [f"p{i}" for i in range(L)] + ["concl"]]
    return names


def encode_dataset(
    d: Dataset,
    spec: EncodingSpec,
    stage1_scores=None,
    truncate: bool = False,
) -> np.ndarray:
    """Stack per-message encodings into an (n, spec.length) design matrix."""
    if spec.two_stage:
        if stage1_scores is None:
            raise MissingStageOneScoreError(
                f"{spec.family} requires stage-1 scores for the whole dataset"
            )
        scores = np.asarray(stage1_scores, dtype=float)
        if scores.shape != (len(d),):
            raise ValueError(
                f"need {len(d)} stage-1 scores, got shape {scores.shape}"
            )
        rows = [
            encode(m, spec, stage1_score=float(s), truncate=truncate)
            for m, s in zip(d.messages, scores)
        ]
    else:
        if stage1_scores is not None:
            raise UnexpectedStageOneScoreError(
                f"{spec.family} does not take stage-1 scores"
            )
        rows = [encode(m, spec, truncate=truncate) for m in d.messages]
    return np.vstack(rows)
