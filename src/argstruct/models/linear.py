"""Linear classifiers trained by full-batch (sub)gradient descent.

Columns that are constant over the training set are absorbed into the bias:
they keep weight 0 and the intercept carries their effect. This makes designs
that differ only by constant columns train to identical score functions, and
it keeps L2 regularization off the intercept direction entirely.
"""

from dataclasses import dataclass

import numpy as np

from . import Classifier, dedup_rows

GRAD_TOL = 1e-8


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class LinearModel(Classifier):
    family: str
    weights: np.ndarray
    bias: float

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def scores(self, X):
        return sigmoid(X @ self.weights + self.bias)


def _constant_columns(X):
    return (X == X[0]).all(axis=0)


def fit_logistic(spec, X, y) -> LinearModel:
    """Gradient descent on L2-regularized mean log loss, zero-initialized,
    stopping at max_iter or gradient norm < 1e-8."""
    return _descend(spec, X, y, family="lgr", loss="log")


def fit_svm(spec, X, y) -> LinearModel:
    """Subgradient descent on L2-regularized mean hinge loss (or log loss when
    the spec asks for it), with a logistic link over the margin at predict time."""
    return _descend(spec, X, y, family="svm", loss=spec.loss)


def _descend(spec, X, y, family, loss) -> LinearModel:
    const = _constant_columns(X)
    n = len(X)
    # duplicate (row, label) pairs collapse to weighted unique rows
    U, yu, counts, _ = dedup_rows(X[:, ~const], y)
    Ut = np.ascontiguousarray(U.T)
    wn = counts / n
    lr = spec.learning_rate
    reg = spec.regularization
    w = np.zeros(U.shape[1])
    b = 0.0
    s = 2.0 * yu - 1.0  # +-1 targets for the hinge
    for _ in range(spec.max_iter):
        z = U @ w + b
        if loss == "log":
            residual = wn * (sigmoid(z) - yu)
            dw = Ut @ residual + reg * w
            db = residual.sum()
        else:
            pull = wn * s * (s * z < 1.0)
            dw = -(Ut @ pull) + reg * w
            db = -pull.sum()
        if np.sqrt(dw @ dw + db * db) < GRAD_TOL:
            break
        w -= lr * dw
        b -= lr * db
    weights = np.zeros(X.shape[1])
    weights[~const] = w
    return LinearModel(family=family, weights=weights, bias=float(b))
