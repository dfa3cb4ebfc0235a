"""The recursive, one-node-per-call tree builder: the reference for ``grow_trees``.

``Node``, ``best_split``, ``grow_tree`` and ``predict_tree`` are the original
one-node-per-call implementation, with the split gains it used. ``forest_dict`` and ``gbt_dict`` fit with
them the way the forest and boosting models did and return the model in the
persisted dict layout, so a test can compare it with ``model_to_dict`` of a
model the library fitted; ``scores`` predicts from such a dict the way those
models did, one tree and one node at a time. ``distinct_rows`` is the
per-column sort and neighbour comparison prediction used before its 0/1
columns were keyed in runs.
"""

import math

import numpy as np

from linear_oracle import dedup_rows, sigmoid

GAIN_EPS = 1e-12


class Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=None, threshold=0.0, left=None, right=None, value=0.0):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self):
        return self.feature is None


def gini_gain(n, T, nL, TL):
    # T = weighted positive count; works elementwise on arrays
    nR = n - nL
    TR = T - TL
    parent = 1.0 - (T / n) ** 2 - ((n - T) / n) ** 2
    left = 1.0 - (TL / nL) ** 2 - ((nL - TL) / nL) ** 2
    right = 1.0 - (TR / nR) ** 2 - ((nR - TR) / nR) ** 2
    return parent - (nL / n) * left - (nR / n) * right


def _entropy(T, n):
    p = T / n
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        hp = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        hq = np.where(q > 0, -q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return hp + hq


def entropy_gain(n, T, nL, TL):
    nR = n - nL
    TR = T - TL
    return (
        _entropy(T, n)
        - (nL / n) * _entropy(TL, nL)
        - (nR / n) * _entropy(TR, nR)
    )


def sse_gain(n, T, nL, TL):
    # T = weighted target sum; variance-reduction form of the squared-error drop
    nR = n - nL
    TR = T - TL
    return TL * TL / nL + TR * TR / nR - T * T / n


def best_split(sub, tn, wn, feats, gain_fn):
    """Best (gain, feature, threshold) over candidate columns of ``sub``, or None.

    ``sub`` holds the node's unique rows for the candidate features only;
    ``feats`` maps its columns back to ascending original feature indices;
    ``wn`` are the row weights. Sufficient statistics are weighted per-side
    counts and target sums.
    """
    if len(feats) == 0:
        return None
    n = float(wn.sum())
    wt = wn * tn
    T = float(wt.sum())

    gains = np.full(len(feats), -np.inf)
    thresholds = np.zeros(len(feats))

    binary = ((sub == 0.0) | (sub == 1.0)).all(axis=0)
    if binary.any():
        b = sub[:, binary]
        nR = wn @ b
        TR = wt @ b
        gains[binary] = gain_fn(n, T, n - nR, T - TR)
        thresholds[binary] = 0.5

    for j in np.flatnonzero(~binary):
        vals = sub[:, j]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cn = np.cumsum(wn[order])
        ct = np.cumsum(wt[order])
        bp = np.flatnonzero(sv[:-1] != sv[1:])
        g = gain_fn(n, T, cn[bp], ct[bp])
        best = int(np.argmax(g))  # first max: lowest threshold wins ties
        thr = sv[bp[best]] + (sv[bp[best] + 1] - sv[bp[best]]) / 2
        if thr >= sv[bp[best] + 1]:  # midpoint rounded up to the right value
            thr = sv[bp[best]]
        gains[j] = g[best]
        thresholds[j] = thr

    best = int(np.argmax(gains))  # first max: lowest feature index wins ties
    if not gains[best] > GAIN_EPS:
        return None
    return float(gains[best]), int(feats[best]), float(thresholds[best])


def all_binary(X) -> bool:
    return bool(((X == 0.0) | (X == 1.0)).all())


def grow_tree(
    X,
    t,
    idx,
    w,
    max_depth,
    gain_fn,
    leaf_fn,
    choose_features=None,
    min_samples_split=2,
    binary=False,
    depth=0,
):
    """Recursively grow a tree over unique-row indices ``idx`` with weights ``w``.

    ``leaf_fn(idx, w)`` produces leaf values; ``choose_features`` optionally
    subsamples the node's varying columns (random-forest style); ``binary``
    asserts every column of X is 0/1, enabling a fused split search that is
    exactly equivalent to the generic one.
    """
    n = float(w.sum())
    if depth >= max_depth or n < min_samples_split:
        return Node(value=leaf_fn(idx, w))
    tn = t[idx]
    if np.all(tn == tn[0]):
        return Node(value=leaf_fn(idx, w))
    sub = X[idx]
    if binary:
        present = sub.sum(axis=0)
        varying = np.flatnonzero((present > 0.0) & (present < len(idx)))
    else:
        varying = np.flatnonzero(sub.min(axis=0) < sub.max(axis=0))
    if choose_features is not None:
        varying = choose_features(varying)
    if binary:
        if len(varying) == 0:
            return Node(value=leaf_fn(idx, w))
        cols = sub[:, varying]
        wt = w * tn
        T = float(wt.sum())
        nR = w @ cols
        TR = wt @ cols
        gains = gain_fn(n, T, n - nR, T - TR)
        best = int(np.argmax(gains))  # first max: lowest feature index wins ties
        if not gains[best] > GAIN_EPS:
            return Node(value=leaf_fn(idx, w))
        feature, threshold = int(varying[best]), 0.5
    else:
        split = best_split(sub[:, varying], tn, w, varying, gain_fn)
        if split is None:
            return Node(value=leaf_fn(idx, w))
        _, feature, threshold = split
    node = Node(feature=feature, threshold=threshold)
    mask = sub[:, feature] <= threshold
    node.left = grow_tree(
        X, t, idx[mask], w[mask], max_depth, gain_fn, leaf_fn, choose_features,
        min_samples_split, binary, depth + 1,
    )
    node.right = grow_tree(
        X, t, idx[~mask], w[~mask], max_depth, gain_fn, leaf_fn, choose_features,
        min_samples_split, binary, depth + 1,
    )
    return node


def predict_tree(root, X):
    out = np.empty(len(X))
    _fill(root, X, np.arange(len(X)), out)
    return out


def _fill(node, X, idx, out):
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _fill(node.left, X, idx[mask], out)
    _fill(node.right, X, idx[~mask], out)


def node_to_obj(node):
    if node.is_leaf:
        return {"v": node.value}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": node_to_obj(node.left),
        "r": node_to_obj(node.right),
    }


def node_from_obj(obj):
    if "v" in obj:
        return Node(value=obj["v"])
    return Node(
        feature=obj["f"],
        threshold=obj["t"],
        left=node_from_obj(obj["l"]),
        right=node_from_obj(obj["r"]),
    )


def forest_dict(spec, X, y) -> dict:
    n, d = X.shape
    gain_fn = entropy_gain if spec.criterion == "entropy" else gini_gain
    unique, y_u, _, inverse = dedup_rows(X, y)
    binary = all_binary(unique)

    def leaf_fn(idx, w):
        return 1.0 if 2.0 * (w @ y_u[idx]) >= w.sum() else 0.0

    trees = []
    for t in range(spec.tree_count):
        rng = np.random.default_rng([spec.seed, t])
        bootstrap = rng.integers(0, n, n)
        weights = np.bincount(inverse[bootstrap], minlength=len(unique)).astype(float)
        rows = np.flatnonzero(weights)

        def choose_features(candidates, rng=rng):
            m = max(1, math.isqrt(len(candidates)))
            if m >= len(candidates):
                return candidates
            pick = rng.permutation(len(candidates))[:m]
            return candidates[np.sort(pick)]

        trees.append(
            grow_tree(
                unique, y_u, rows, weights[rows], spec.max_depth, gain_fn,
                leaf_fn, choose_features, binary=binary,
            )
        )
    return _model_dict("rforest", d, {"trees": [node_to_obj(t) for t in trees]})


def gbt_dict(spec, X, y) -> dict:
    n, d = X.shape
    unique, y_u, counts, inverse = dedup_rows(X, y)
    binary = all_binary(unique)
    p0 = float((counts @ y_u) / n)
    base = float(np.log(p0 / (1.0 - p0)))
    F = np.full(len(unique), base)
    trees = []
    for r in range(spec.tree_count):
        p = sigmoid(F)
        grad = y_u - p
        hess = p * (1.0 - p)

        def leaf_fn(idx, w, grad=grad, hess=hess):
            return float((w @ grad[idx]) / (w @ hess[idx] + 1e-16))

        if spec.subsample < 1.0:
            rng = np.random.default_rng([spec.seed, r])
            m = max(1, int(round(spec.subsample * n)))
            picked = rng.choice(n, size=m, replace=False)
            weights = np.bincount(inverse[picked], minlength=len(unique)).astype(float)
        else:
            weights = counts
        rows = np.flatnonzero(weights)
        root = grow_tree(
            unique, grad, rows, weights[rows], spec.max_depth, sse_gain, leaf_fn,
            binary=binary,
        )
        F += spec.learning_rate * predict_tree(root, unique)
        trees.append(root)
    params = {
        "base_score": base,
        "shrinkage": spec.learning_rate,
        "trees": [node_to_obj(t) for t in trees],
    }
    return _model_dict("gbt", d, params)


def _model_dict(family, n_features, params) -> dict:
    return {
        "format": "argstruct-model",
        "version": 1,
        "family": family,
        "n_features": n_features,
        "params": params,
    }


def scores(obj, X) -> np.ndarray:
    trees = [node_from_obj(t) for t in obj["params"]["trees"]]
    if obj["family"] == "rforest":
        votes = np.zeros(len(X))
        for root in trees:
            votes += predict_tree(root, X)
        return votes / len(trees)
    F = np.full(len(X), obj["params"]["base_score"])
    for root in trees:
        F += obj["params"]["shrinkage"] * predict_tree(root, X)
    return sigmoid(F)


def distinct_rows(X):
    """(U, inverse) with X == U[inverse]: predict once per distinct row.

    Row indices are sorted by every column, the first one primary, and
    neighbours compared one column at a time: U (up to the sign of a zero)
    and the inverse are those np.unique(X, axis=0) gives, with no copy of X.
    """
    order = np.lexsort(X.T[::-1]) if X.shape[1] else np.arange(len(X))
    first = np.zeros(len(X), dtype=bool)  # first of its group in sorted order
    first[:1] = True
    for column in X.T:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return X[order[first]], inverse
