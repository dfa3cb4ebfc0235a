"""The one-problem-at-a-time descent loop: the reference for ``fit_linear``.

``sigmoid`` and ``_descend`` are the original two-branch sigmoid and
per-problem descent loop, verbatim. ``fit`` fits one problem with them the
way the lgr and svm models did, so a test can compare ``model_to_dict`` of
its model with that of a model the library fitted in a batch.

``scores`` is the reference for ``LinearModel.scores``: the two-branch
sigmoid of the bias plus each nonzero-weight column's term, added in column
order, so a column the fit gave weight 0 changes no bit of a score.

``dedup_rows`` is the original ``np.unique``-based row collapse, verbatim,
so the oracles (this one and ``tree_oracle``) do not share the library's
row order and a change to it shows as a difference.
"""

import numpy as np

from argstruct.models.linear import GRAD_TOL, LinearModel


def dedup_rows(X, y):
    """Collapse identical (row, label) pairs into unique rows with counts.

    Returns (unique_X, unique_y, counts, inverse); the grouping, and hence
    every weighted statistic, is unchanged by appending constant columns.
    """
    key = np.hstack([X, y[:, None]])
    unique, inverse, counts = np.unique(
        key, axis=0, return_inverse=True, return_counts=True
    )
    return unique[:, :-1], unique[:, -1], counts.astype(float), inverse


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def margins(model, rows):
    z = np.full(len(rows), model.bias)
    for j, weight in enumerate(model.weights):
        if weight != 0.0:
            z = z + rows[:, j] * weight
    return z


def scores(model, rows):
    return sigmoid(margins(model, rows))


def _constant_columns(X):
    return (X == X[0]).all(axis=0)


def fit(spec, X, y) -> LinearModel:
    loss = "log" if spec.family == "lgr" else spec.loss
    X = np.asarray(X, dtype=float)
    return _descend(spec, X, np.asarray(y, dtype=float), family=spec.family, loss=loss)


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
