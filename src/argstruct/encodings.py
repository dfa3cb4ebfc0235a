"""Fixed-length feature encodings of annotated messages.

One slot table lays out all eight families. With premise capacity L, slots
0..L-1 hold the premises, filled left to right, and slot L holds the
conclusion. A family's encoded slots are the premise slots (none for the
two-stage c-given-p families) plus the conclusion slot when the family has
one. Its columns, in order, are:

* the stage-1 score (two-stage families only);
* one presence bit per encoded slot;
* one (NFS, UFS, CFS) one-hot per encoded slot (cw families);
* one hatefulness bit for each of the L+1 slots (hs families).

An empty slot's columns are all 0, and so is the hate bit of a non-hateful or
unannotated component.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import CONCLUSION, CW_ORDER, HATEFUL, DataError, Dataset, Message


class _Layout(NamedTuple):
    conclusion: bool
    cw: bool
    hs: bool
    two_stage: bool


_LAYOUTS: dict[str, _Layout] = {
    "arg-str": _Layout(True, False, False, False),
    "arg-str-p": _Layout(False, False, False, False),
    "arg-str-c-given-p": _Layout(True, False, False, True),
    "arg-str-cw": _Layout(True, True, False, False),
    "arg-str-p-cw": _Layout(False, True, False, False),
    "arg-str-c-given-p-cw": _Layout(True, True, False, True),
    "arg-str-hs": _Layout(True, False, True, False),
    "arg-str-cw-hs": _Layout(True, True, True, False),
}

FAMILIES: tuple[str, ...] = tuple(_LAYOUTS)

# stage-1 of a two-stage family trains on the premise-only counterpart
_STAGE_ONE: dict[str, str] = {
    "arg-str-c-given-p": "arg-str-p",
    "arg-str-c-given-p-cw": "arg-str-p-cw",
}

class PremiseOverflowError(DataError):
    def __init__(self, message_id: str, count: int, capacity: int):
        self.message_id = message_id
        super().__init__(
            f"message {message_id!r} has {count} premises, capacity is {capacity}"
        )


class MissingStageOneScoreError(DataError):
    pass


class UnexpectedStageOneScoreError(DataError):
    pass


class StageOneScoreError(DataError, ValueError):
    """A stage-1 score that is not a number in [0, 1]."""


@dataclass(frozen=True)
class EncodingSpec:
    """An encoding family plus the premise slot capacity L."""

    family: str
    capacity: int

    def __post_init__(self):
        if self.family not in _LAYOUTS:
            raise ValueError(f"unknown encoding family {self.family!r}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    @property
    def layout(self) -> _Layout:
        return _LAYOUTS[self.family]

    @property
    def two_stage(self) -> bool:
        return self.layout.two_stage

    @property
    def slots(self) -> list[int]:
        """The encoded slots, in column order; slot L is the conclusion."""
        lay, L = self.layout, self.capacity
        return list(range(0 if lay.two_stage else L)) + ([L] if lay.conclusion else [])

    @property
    def length(self) -> int:
        lay = self.layout
        return lay.two_stage + len(self.slots) * (1 + 3 * lay.cw) + lay.hs * (self.capacity + 1)


def stage_one_spec(spec: EncodingSpec) -> EncodingSpec:
    """Premise-only spec whose predictions feed a two-stage encoding."""
    if not spec.two_stage:
        raise ValueError(f"{spec.family} is not a two-stage family")
    return EncodingSpec(_STAGE_ONE[spec.family], spec.capacity)


def feature_names(spec: EncodingSpec) -> list[str]:
    """Column names matching the encode layout (used by the encode CSV output)."""
    lay = spec.layout
    every_slot = [f"p{i}" for i in range(spec.capacity)] + ["concl"]
    slots = [every_slot[s] for s in spec.slots]
    names = (["stage1"] if lay.two_stage else []) + slots
    if lay.cw:
        names += [f"{slot}_{cw.value}" for slot in slots for cw in CW_ORDER]
    if lay.hs:
        names += [f"{slot}_hs" for slot in every_slot]
    return names


ENCODE_ROWS = 2048  # messages encoded at a time, which bounds the per-component temporaries


def encode_dataset(
    d: Dataset,
    spec: EncodingSpec,
    stage1_scores=None,
    truncate: bool = False,
) -> np.ndarray:
    """The (n, spec.length) design matrix of ``d``, C-contiguous float64.

    ``stage1_scores`` (the premise model's hateful-class probability for each
    message) must be given exactly for the two-stage families. A message with
    more than L premises raises ``PremiseOverflowError`` unless ``truncate``
    drops the surplus. Each column block is written into the one matrix,
    ``ENCODE_ROWS`` messages at a time.
    """
    lay, L, n = spec.layout, spec.capacity, len(d)
    if lay.two_stage:
        if stage1_scores is None:
            raise MissingStageOneScoreError(f"{spec.family} requires stage-1 scores")
        scores = np.asarray(stage1_scores, dtype=float)
        if scores.shape != (n,):
            raise ValueError(f"need {n} stage-1 scores, got shape {scores.shape}")
        outside = ~((scores >= 0.0) & (scores <= 1.0))  # NaN included
        if outside.any():
            raise StageOneScoreError(
                f"stage-1 score must be in [0, 1], got {scores[outside][0]}"
            )
    elif stage1_scores is not None:
        raise UnexpectedStageOneScoreError(f"{spec.family} does not take stage-1 scores")
    else:
        counts = d.premise_counts
        over = np.flatnonzero(counts > L)
        if len(over) and not truncate:
            raise PremiseOverflowError(d.ids[over[0]], int(counts[over[0]]), L)
    # C order: gbt's split sums depend on the memory layout of what it gathers
    X = np.zeros((n, spec.length))
    if lay.two_stage:
        X[:, 0] = scores
    for start in range(0, n, ENCODE_ROWS):
        stop = start + ENCODE_ROWS
        bounds = d.offsets[start : stop + 1]  # the chunk's messages' component offsets
        first, last = bounds[0], bounds[-1]
        message = d.message_of[first:last] - start
        # each slot's cw index (-1: empty) and hatefulness; a premise fills the
        # slot of its rank among its message's premises, the conclusion slot L.
        # The two-stage families encode no premise slot, so their premises are
        # never read.
        cw = np.full((len(bounds) - 1, L + 1), -1, dtype=np.int8)
        hate = np.zeros((len(bounds) - 1, L + 1), dtype=bool)
        placed = d.role[first:last] == CONCLUSION
        slot = np.full(len(placed), L)
        if not lay.two_stage:
            premise = ~placed
            before = np.concatenate(([0], np.cumsum(premise)))  # premises before each component
            slot[premise] = (before[:-1] - before[bounds[:-1] - first][message])[premise]
            placed |= premise & (slot < L)
        rows, at = message[placed], slot[placed]
        cw[rows, at] = d.cw[first:last][placed]
        hate[rows, at] = d.hate[first:last][placed] == HATEFUL
        encoded = cw[:, spec.slots]
        blocks = [encoded >= 0]
        if lay.cw:
            blocks.append((encoded[:, :, None] == np.arange(len(CW_ORDER))).reshape(len(cw), -1))
        if lay.hs:
            blocks.append(hate)
        X[start:stop, lay.two_stage:] = np.concatenate(blocks, axis=1)
    return X


def encode(
    m: Message,
    spec: EncodingSpec,
    stage1_score: float | None = None,
    truncate: bool = False,
) -> np.ndarray:
    """Encode one message under ``spec``: the one-row ``encode_dataset``."""
    scores = None if stage1_score is None else [stage1_score]
    return encode_dataset(Dataset.from_messages((m,)), spec, scores, truncate)[0]
