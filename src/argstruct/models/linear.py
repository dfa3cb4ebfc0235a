"""Linear classifiers trained by full-batch (sub)gradient descent.

Columns that are constant over the training set are absorbed into the bias:
they keep weight 0 and the intercept carries their effect. This makes designs
that differ only by constant columns train to identical score functions, and
it keeps L2 regularization off the intercept direction entirely. A score adds
the nonzero-weight columns one at a time, with no BLAS product (whose blocking
follows the width), so those designs also score every row with the same bits.
"""

from dataclasses import dataclass

import numpy as np

from . import Classifier, dedup_rows

GRAD_TOL = 1e-8


def sigmoid(z):
    """1 / (1 + exp(-z)) from one e = exp(-|z|), which never overflows:
    where(z >= 0, 1, e) / (1 + e) is bitwise the two-branch form
    1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below."""
    z = np.asarray(z, dtype=float)
    e = np.exp(np.copysign(z, -1.0))  # -|z| in one call
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LinearModel(Classifier):
    family: str
    weights: np.ndarray
    bias: float

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def scores(self, X):
        z = np.full(len(X), self.bias)
        for j in np.flatnonzero(self.weights).tolist():
            z += X[:, j] * self.weights[j]
        return sigmoid(z)


def _constant_columns(X):
    return (X == X[0]).all(axis=0)


def fit_linear(spec, problems) -> list[LinearModel]:
    """One lgr or svm model per (X, y) problem, the problems descended in lockstep.

    lgr: gradient descent on L2-regularized mean log loss. svm: subgradient
    descent on L2-regularized mean hinge loss (or log loss when the spec asks
    for it), with a logistic link over the margin at predict time. Both start
    from zero and stop at max_iter or once the gradient norm is below GRAD_TOL.

    Each problem keeps its own unpadded BLAS products and sums (``U @ w``,
    ``Ut @ r``, ``r.sum()``), whose bits depend on summation order; the
    elementwise steps, whose bits do not, run once over all problems' rows
    and columns. The stop test sums every problem's squared gradient at once
    and takes a problem's own ``dw @ dw`` only when that sum lies within
    rounding of GRAD_TOL. A problem that reaches GRAD_TOL freezes while the
    others go on, so every model is bitwise the one it gets alone.
    """
    log = spec.family == "lgr" or spec.loss == "log"
    consts, Us, yus, wns = [], [], [], []
    for X, y in problems:
        const = _constant_columns(X)
        # duplicate (row, label) pairs collapse to weighted unique rows
        U, yu, counts, _ = dedup_rows(X[:, ~const], y)
        consts.append(const)
        Us.append(U)
        yus.append(yu)
        wns.append(counts / len(X))
    n_rows, n_cols = [len(U) for U in Us], [U.shape[1] for U in Us]
    k, width = len(Us), sum(n_cols)
    row_owner = np.repeat(np.arange(k), n_rows)
    col_owner = np.repeat(np.arange(k), n_cols)
    yu, wn = np.concatenate(yus), np.concatenate(wns)
    s = 2.0 * yu - 1.0  # +-1 targets for the hinge
    ws = wn * s
    lr = spec.learning_rate
    reg = spec.regularization
    # theta holds every problem's weights, then every problem's bias, and
    # grad their gradient. A lane is one problem's arrays and its views of the
    # shared buffers; np.dot with out= makes the same gemv and ddot calls as @.
    theta, grad = np.zeros(width + k), np.empty(width + k)
    w, b, dw, db = theta[:width], theta[width:], grad[:width], grad[width:]
    z, r, g = np.empty(len(yu)), np.empty(len(yu)), np.empty(width)
    row_cuts, col_cuts = np.cumsum(n_rows)[:-1], np.cumsum(n_cols)[:-1]
    lanes = list(zip(
        range(k), Us, [np.ascontiguousarray(U.T) for U in Us],
        np.split(z, row_cuts), np.split(r, row_cuts),
        np.split(w, col_cuts), np.split(g, col_cuts),
    ))
    dws = np.split(dw, col_cuts)
    # the band around GRAD_TOL**2 in which a problem's own ddot decides its stop
    lo, hi = GRAD_TOL**2 * (1 - 1e-9), GRAD_TOL**2 * (1 + 1e-9)
    stop = np.zeros(k, dtype=bool)  # the problems that have stopped, for good
    frozen, stepping = 0, True  # stepping: the entries of theta that still move
    for _ in range(spec.max_iter):
        for _, U, _, zi, _, wi, _ in lanes:
            np.dot(U, wi, out=zi)
        z += b[row_owner]
        if log:
            np.subtract(sigmoid(z), yu, out=r)
            r *= wn
        else:
            np.multiply(ws, s * z < 1.0, out=r)
        for i, _, Ut, _, ri, _, gi in lanes:
            np.dot(Ut, ri, out=gi)
            db[i] = np.add.reduce(ri) if log else -np.add.reduce(ri)
        if log:
            np.add(g, reg * w, out=dw)
        else:  # reg * w - g is -(Ut @ r) + reg * w, bit for bit
            np.subtract(reg * w, g, out=dw)
        # each problem's squared gradient norm, summed in another order than
        # its own ddot: the two differ by a relative (width + 1) * eps at most,
        # so outside a relative 1e-9 of GRAD_TOL**2 both stop alike, and
        # inside it the problem's own sum decides, as alone
        norm2 = np.bincount(col_owner, dw * dw, k) + db * db  # float even with no columns
        if (norm2 <= hi).any():
            stop |= norm2 < lo
            for i in np.flatnonzero((norm2 <= hi) & ~stop).tolist():
                stop[i] = np.sqrt(np.dot(dws[i], dws[i]) + db[i] * db[i]) < GRAD_TOL
            if np.count_nonzero(stop) > frozen:
                # these problems stop here, before this step, as each would alone
                frozen = np.count_nonzero(stop)
                if frozen == k:
                    break
                lanes = [lane for lane in lanes if not stop[lane[0]]]
                stepping = ~np.concatenate([stop[col_owner], stop])
        np.subtract(theta, lr * grad, out=theta, where=stepping)
    models = []
    for const, wi, bi in zip(consts, np.split(w, col_cuts), b):
        weights = np.zeros(len(const))
        weights[~const] = wi
        models.append(LinearModel(family=spec.family, weights=weights, bias=float(bi)))
    return models
