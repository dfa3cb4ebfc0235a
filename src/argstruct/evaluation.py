"""Stratified k-fold splitting, confusion matrices, and macro-averaged metrics."""

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import DataError


class KTooSmallError(DataError):
    pass


class ClassTooSmallError(DataError):
    pass


class NonBinaryLabelError(DataError):
    pass


class LengthMismatchError(DataError):
    pass


class EmptyMatrixError(DataError):
    pass


class TooFewFoldsError(DataError):
    pass


@dataclass(frozen=True)
class FoldAssignment:
    """A fold index (0..k-1) for every example."""

    k: int
    assignment: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.assignment)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignment) == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignment) != fold)

    def digest(self) -> str:
        payload = f"{self.k}:" + ",".join(map(str, self.assignment))
        return hashlib.sha256(payload.encode()).hexdigest()


def binary_labels(labels) -> np.ndarray:
    """``labels`` as an array, every one 0 or 1 (NonBinaryLabelError names the
    first that is not)."""
    y = np.asarray(labels)
    outside = ~np.isin(y, (0, 1))
    if outside.any():
        raise NonBinaryLabelError(f"label {y[outside][0].item()!r} is not 0 or 1")
    return y


def stratified_kfold(labels, k: int, seed: int = 0) -> FoldAssignment:
    """Deal each class's examples round-robin into k folds after a seeded shuffle.

    The round-robin cursor continues from one class to the next, so both the
    per-class fold counts and the overall fold sizes stay within 1 of perfect
    proportionality. Deterministic per seed. Every label must be 0 or 1
    (NonBinaryLabelError names the first that is not).
    """
    if k < 2:
        raise KTooSmallError(f"k must be >= 2, got {k}")
    # a label outside 0/1 would be in no test fold and in every training split
    y = binary_labels(labels)
    rng = np.random.default_rng(seed)
    assignment = np.full(len(y), -1, dtype=int)
    cursor = 0
    for cls in (0, 1):  # both binary classes must be present and splittable
        members = np.flatnonzero(y == cls)
        if len(members) < k:
            raise ClassTooSmallError(
                f"class {cls!r} has {len(members)} members, fewer than k={k}"
            )
        shuffled = rng.permutation(members)
        for j, idx in enumerate(shuffled):
            assignment[idx] = (cursor + j) % k
        cursor = (cursor + len(members)) % k
    return FoldAssignment(k=k, assignment=tuple(assignment.tolist()))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; the positive class is hateful (1)."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def transposed(self) -> "ConfusionMatrix":
        """The same counts with the negative class treated as positive."""
        return ConfusionMatrix(tp=self.tn, fp=self.fn, fn=self.fp, tn=self.tp)


def confusion(pred, gold) -> ConfusionMatrix:
    """Counts of the (pred, gold) pairs; every label must be 0 or 1."""
    p, g = binary_labels(pred), binary_labels(gold)
    if p.shape != g.shape:
        raise LengthMismatchError(f"pred has shape {p.shape}, gold has shape {g.shape}")
    if p.size == 0:
        raise EmptyMatrixError("cannot build a confusion matrix from zero pairs")
    return ConfusionMatrix(
        tp=int(np.sum((p == 1) & (g == 1))),
        fp=int(np.sum((p == 1) & (g == 0))),
        fn=int(np.sum((p == 0) & (g == 1))),
        tn=int(np.sum((p == 0) & (g == 0))),
    )


@dataclass(frozen=True)
class MetricSet:
    """Macro-averaged precision, recall, and F1 over the two classes."""

    precision: float
    recall: float
    f1: float


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def macro_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Unweighted mean of per-class precision/recall/F1; 0/0 cases define as 0."""
    if cm.total == 0:
        raise EmptyMatrixError("empty confusion matrix")
    pos = _prf(cm.tp, cm.fp, cm.fn)
    neg_cm = cm.transposed()
    neg = _prf(neg_cm.tp, neg_cm.fp, neg_cm.fn)
    return MetricSet(
        precision=(pos[0] + neg[0]) / 2,
        recall=(pos[1] + neg[1]) / 2,
        f1=(pos[2] + neg[2]) / 2,
    )


class MeanStd(NamedTuple):
    mean: float
    std: float


@dataclass(frozen=True)
class AggregateMetrics:
    precision: MeanStd
    recall: MeanStd
    f1: MeanStd


def _mean_std(values: list[float], sample_std: bool) -> MeanStd:
    n = len(values)
    mean = sum(values) / n
    divisor = n - 1 if sample_std else n
    var = sum((v - mean) ** 2 for v in values) / divisor
    return MeanStd(mean, var ** 0.5)


def aggregate(per_fold: list[MetricSet], sample_std: bool = False) -> AggregateMetrics:
    """Cross-fold mean and standard deviation (population std by default)."""
    if len(per_fold) < 2:
        raise TooFewFoldsError(f"need at least 2 folds, got {len(per_fold)}")
    return AggregateMetrics(
        precision=_mean_std([m.precision for m in per_fold], sample_std),
        recall=_mean_std([m.recall for m in per_fold], sample_std),
        f1=_mean_std([m.f1 for m in per_fold], sample_std),
    )
