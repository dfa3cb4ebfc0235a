"""Four small classifier families behind one fit/predict contract.

Training is deterministic: linear families use zero-initialized full-batch
descent, tree families draw every random choice from streams derived from
(seed, tree index). Fitting twice with the same spec and data gives
bitwise-identical models.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..data import DataError
from .tree import distinct_rows

MODEL_FAMILIES = ("lgr", "svm", "rforest", "gbt")

_FAMILY_DEFAULTS = {
    "lgr": {"learning_rate": 0.1, "regularization": 0.0},
    "svm": {"learning_rate": 0.1, "regularization": 1e-3, "loss": "hinge"},
    "rforest": {"tree_count": 100, "max_depth": 8, "criterion": "gini"},
    "gbt": {"tree_count": 100, "max_depth": 3, "learning_rate": 0.1},
}


class EmptyTrainingSetError(DataError):
    pass


class SingleClassError(DataError):
    pass


class DimensionMismatchError(DataError):
    pass


class NonFiniteInputError(DataError):
    pass


def as_matrix(X, n_features):
    """Coerce input to a 2-D float design matrix; flag single-vector input."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatchError(
            f"expected {n_features} features, got shape {X.shape}"
        )
    return X, single


def threshold(scores):
    """Binary labels: 1 iff score >= 0.5 (ties go to hateful)."""
    if isinstance(scores, float):
        return int(scores >= 0.5)
    return (scores >= 0.5).astype(int)


class Classifier:
    """The predict contract every family shares.

    A model provides ``n_features`` and ``scores(X)``, the hateful-class
    scores of the rows of a 2-D matrix; this class adds single-vector input,
    the width check and the 0.5 threshold.
    """

    def predict_score(self, X):
        """Hateful-class score in [0, 1] for one vector or a matrix of rows."""
        X, single = as_matrix(X, self.n_features)
        scores = self.scores(X)
        return float(scores[0]) if single else scores

    def predict(self, X):
        return threshold(self.predict_score(X))


def dedup_rows(X, y):
    """Collapse identical (row, label) pairs into unique rows with counts.

    Returns (unique_X, unique_y, counts, inverse), the pairs in
    np.unique(axis=0) order; the grouping, and hence every weighted
    statistic, is unchanged by appending constant columns.
    """
    unique, inverse = distinct_rows(np.hstack([X, y[:, None]]))
    return unique[:, :-1], unique[:, -1], np.bincount(inverse).astype(float), inverse


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus hyperparameters; unset fields take family defaults.

    lgr: learning_rate 0.1, regularization 0 (L2, excluded from the bias).
    svm: learning_rate 0.1, regularization 1e-3, loss "hinge" (or "log").
    rforest: tree_count 100, max_depth 8, criterion "gini" (or "entropy").
    gbt: tree_count rounds 100, max_depth 3, shrinkage (learning_rate) 0.1,
    subsample 1.0.
    """

    family: str
    max_iter: int = 1000
    learning_rate: float | None = None
    regularization: float | None = None
    tree_count: int | None = None
    max_depth: int | None = None
    subsample: float = 1.0
    seed: int = 0
    loss: str | None = None
    criterion: str | None = None

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        for name, default in _FAMILY_DEFAULTS[self.family].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("learning_rate", "regularization", "subsample"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.regularization is not None and self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.tree_count is not None and self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.loss not in (None, "hinge", "log"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.criterion not in (None, "gini", "entropy"):
            raise ValueError(f"unknown split criterion {self.criterion!r}")


def _check_training_data(X, y):
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:
        raise DimensionMismatchError(f"ragged design matrix: {exc}") from exc
    if X.ndim != 2:
        raise DimensionMismatchError(f"design matrix must be 2-D, got shape {X.shape}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) != len(X):
        raise DimensionMismatchError(
            f"labels of shape {y.shape} do not match {len(X)} rows"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInputError("training data holds a NaN or infinite value")
    if len(X) < 2:
        raise EmptyTrainingSetError(f"need at least 2 training rows, got {len(X)}")
    if len(np.unique(y)) < 2:
        raise SingleClassError("training labels contain a single class")
    return X, y


def fit(spec: ModelSpec, X, y):
    """Train a model of spec.family on (X, y); deterministic given the spec.

    The forest is fitted here; gbt, lgr and svm are a batch of one for ``fit_each``.
    """
    from .forest import fit_forest

    if spec.family != "rforest":
        return fit_each(spec, [(X, y)])[0]
    return fit_forest(spec, *_check_training_data(X, y))


def fit_each(spec: ModelSpec, problems):
    """One model per (X, y) problem, each bitwise identical to fit(spec, X, y).

    Every problem is checked before any is fitted, and all must have the same
    width. Boosting fits the problems together (``boosting.fit_gbt``), lgr
    and svm descend them in lockstep (``linear.fit_linear``), and the forest
    fits them one at a time through ``fit``.
    """
    from .boosting import fit_gbt
    from .linear import fit_linear

    problems = [_check_training_data(X, y) for X, y in problems]
    widths = sorted({X.shape[1] for X, _ in problems})
    if len(widths) > 1:
        raise DimensionMismatchError(f"problems of one batch differ in width: {widths}")
    if not problems:
        return []
    if spec.family == "gbt":
        return fit_gbt(spec, problems)
    if spec.family in ("lgr", "svm"):
        return fit_linear(spec, problems)
    return [fit(spec, X, y) for X, y in problems]

