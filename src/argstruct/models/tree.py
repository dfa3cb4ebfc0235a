"""Depth-limited binary decision trees shared by the forest and boosting models.

Trees grow over weighted rows: callers collapse duplicate (row, target) pairs
into unique rows with integer multiplicities, which keeps every node-level
scan small without changing any statistic. Candidate thresholds are midpoints
between consecutive distinct values of a column within the node (0.5 for a
column whose values in the node are all 0/1). Columns constant within the
node have no candidates, so tree shape is invariant to appending all-constant
columns. Equal-gain ties resolve to the lowest feature index, then the lowest
threshold, making construction fully deterministic.

``grow_trees`` grows a batch of trees in lockstep. When trees draw random
feature subsets, every step expands the next depth-first (preorder) node of
each unfinished tree, so each tree consumes its random stream in preorder;
otherwise every pending node is expanded at once. A step gets all nodes'
weight and per-side counts from one matmul of their weights (nodes x unique
rows) against the unique rows. Target sums come from a second matmul when
targets are integers, where every sum is exact; float targets are summed per
node over the node's own rows and candidate columns, so a tree's sums do not
depend on the nodes it shares a step with. Children that are leaves by
depth, weight or purity get their values when created, and every node keeps
the unique rows that reach it, so the builder also returns the leaf value of
each unique row.

Grown trees are flat arrays (``Trees``); prediction descends all trees at
once, one vectorized step per level.
"""

from dataclasses import dataclass

import numpy as np

GAIN_EPS = 1e-12
MIN_SAMPLES_SPLIT = 2


def gini_gain(n, T, nL, TL):
    # T = weighted positive count; n, T are per-node columns, nL, TL per candidate.
    # The parent term squares with C pow (float_power), not numpy's exact
    # square: the two differ in the last bit for a few values in a thousand,
    # and equal-gain ties between complementary columns depend on that bit.
    nR = n - nL
    TR = T - TL
    parent = 1.0 - np.float_power(T / n, 2) - np.float_power((n - T) / n, 2)
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


@dataclass(frozen=True)
class Trees:
    """A sequence of trees as flat node arrays.

    Node ``i`` splits on ``feature[i]`` (rows with value <= ``threshold[i]``
    go to ``left[i]``, the rest to ``right[i]``) or, when ``feature[i]`` is
    -1, is a leaf holding ``value[i]`` whose ``left`` and ``right`` point to
    itself. Child indices are absolute; tree ``k`` starts at node
    ``roots[k]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    def __len__(self):
        return len(self.roots)

    @classmethod
    def concat(cls, parts):
        """Join tree sequences, renumbering child and root indices."""
        offsets = np.cumsum([0] + [len(p.feature) for p in parts], dtype=np.int32)
        joined = [
            (p.feature, p.threshold, p.left + o, p.right + o, p.value, p.roots + o)
            for p, o in zip(parts, offsets)
        ]
        return cls(*(np.concatenate(arrays) for arrays in zip(*joined)))

    def leaf_values(self, X):
        """values[k, i]: the value of the leaf tree k sends row X[i] to."""
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        rows = np.arange(len(X))
        while True:
            f = self.feature[node]
            if (f < 0).all():
                return self.value[node]
            # leaves read column -1 and stay where they are
            go_left = X[rows, f] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])


def distinct_rows(X):
    """(U, inverse) with X == U[inverse]: predict once per distinct row.

    Row indices are sorted by every column and neighbours compared one column
    at a time, so unlike np.unique(axis=0) this makes no copy of X.
    """
    order = np.lexsort(X.T) if X.shape[1] else np.arange(len(X))
    first = np.zeros(len(X), dtype=bool)  # first of its group in sorted order
    first[:1] = True
    for column in X.T:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return X[order[first]], inverse


class _Nodes:
    """Node numbering and the record of a build, assembled into ``Trees`` at the end."""

    def __init__(self):
        self.count = 0
        self.splits = []  # (ids, feature, threshold, left ids, right ids)
        self.leaves = []  # (ids, values)

    def number(self, k):
        self.count += k
        return np.arange(self.count - k, self.count)

    def trees(self, roots):
        feature = np.full(self.count, -1, dtype=np.int32)
        threshold = np.zeros(self.count)
        left = np.arange(self.count, dtype=np.int32)
        right = np.arange(self.count, dtype=np.int32)
        value = np.zeros(self.count)
        for ids, f, thr, lo, hi in self.splits:
            feature[ids], threshold[ids], left[ids], right[ids] = f, thr, lo, hi
        for ids, v in self.leaves:
            value[ids] = v
        return Trees(feature, threshold, left, right, value, roots.astype(np.int32))


def _sorted_column(x):
    """Stable order of column ``x`` over all unique rows, and its value groups."""
    order = np.argsort(x, kind="stable")
    sv = x[order]
    ends = np.append(np.flatnonzero(sv[:-1] != sv[1:]), len(sv) - 1)
    return order, ends, sv[ends]


def _sorted_split(column, W, t, n, T, gain_fn):
    """Best (gain, threshold) per node on one column with non-0/1 values.

    A candidate is the boundary after each value present in the node, except
    the largest; its threshold is the midpoint to the next present value.
    Cumulative sums run along the column's global order, where rows outside
    a node add exact zeros, so each node's prefix sums are the ones its own
    sorted rows give.
    """
    order, ends, values = column
    Wo = W[:, order]
    cn = np.cumsum(Wo, axis=1)[:, ends]
    ct = np.cumsum(Wo * t[order], axis=1)[:, ends]
    groups = len(ends)
    present = np.diff(cn, axis=1, prepend=0.0) > 0.0
    first_at = np.minimum.accumulate(
        np.where(present, np.arange(groups), groups)[:, ::-1], axis=1
    )[:, ::-1]
    nxt = np.concatenate([first_at[:, 1:], np.full((len(W), 1), groups)], axis=1)
    g = np.where(present & (nxt < groups), gain_fn(n, T, cn, ct), -np.inf)
    r = np.arange(len(W))
    best = np.argmax(g, axis=1)  # first max: lowest threshold wins ties
    lo = values[best]
    hi = values[np.minimum(nxt[r, best], groups - 1)]
    thr = lo + (hi - lo) / 2
    thr = np.where(thr >= hi, lo, thr)  # midpoint rounded up to the right value
    return g[r, best], thr


def grow_trees(X, t, weights, max_depth, gain_fn, leaf_fn, choose_features=None):
    """Grow one tree per row of ``weights`` over the unique rows ``X``.

    ``t`` holds the targets of the unique rows and ``weights[k]`` tree k's
    row multiplicities (0 leaves a row out of the sums). ``leaf_fn(W)``
    gives the leaf values of the nodes whose weight rows are stacked in
    ``W``. ``choose_features(k, candidates)`` optionally subsamples a node's
    varying columns (random-forest style); it is called in each tree's
    depth-first preorder. Without it nothing is drawn, the order is free,
    and each step expands every pending node.

    Returns (trees, fitted): fitted[k, u] is the value of the leaf that
    unique row u reaches in tree k, weighted or not.
    """
    X = np.asarray(X, dtype=float)
    weights = np.asarray(weights, dtype=float)
    binary = ((X == 0.0) | (X == 1.0)).all(axis=0)
    sorted_cols = {j: _sorted_column(X[:, j]) for j in (~binary).nonzero()[0].tolist()}
    integer_targets = bool((t == np.round(t)).all())
    nodes = _Nodes()
    fitted = np.zeros(weights.shape)

    def leaves(trees, ids, W, reach):
        values = np.asarray(leaf_fn(W), dtype=float)
        nodes.leaves.append((ids, values))
        node, row = reach.nonzero()
        fitted[trees[node], row] = values[node]

    def settle(trees, ids, depth, reach):
        # nodes hold the unique rows that reach them; leaves by depth, weight
        # or purity get their values now, the rest are returned for a step
        W = weights[trees] * reach
        leaf = depth >= max_depth
        if leaf.all():
            leaves(trees, ids, W, reach)
            return ()
        member = W > 0
        leaf |= (W.sum(axis=1) < MIN_SAMPLES_SPLIT) | (
            np.where(member, t, np.inf).min(axis=1) == np.where(member, t, -np.inf).max(axis=1)
        )
        if leaf.any():
            leaves(trees[leaf], ids[leaf], W[leaf], reach[leaf])
        keep = ~leaf
        if not keep.any():
            return ()
        return trees[keep], ids[keep], depth[keep], reach[keep]

    n_trees = len(weights)
    roots = nodes.number(n_trees)
    with np.errstate(divide="ignore", invalid="ignore"):
        # pending nodes (tree, id, depth, reach row) in the order they were
        # stacked; each tree's newest one is the next in its preorder
        pending = settle(
            np.arange(n_trees), roots, np.zeros(n_trees, dtype=int),
            np.ones(weights.shape, dtype=bool),
        )
        while pending:
            if choose_features is None:
                batch, pending = pending, ()
            else:
                newest = len(pending[0]) - 1 - np.unique(pending[0][::-1], return_index=True)[1]
                rest = np.ones(len(pending[0]), dtype=bool)
                rest[newest] = False
                batch = tuple(p[newest] for p in pending)
                pending = tuple(p[rest] for p in pending) if rest.any() else ()
            trees, ids, depth, reach = batch
            W = weights[trees] * reach
            feature, threshold = _best_splits(
                X, t, W, sorted_cols, integer_targets, gain_fn, choose_features, trees
            )
            split = feature >= 0
            if not split.all():
                leaf = ~split
                leaves(trees[leaf], ids[leaf], W[leaf], reach[leaf])
                trees, ids, depth, reach = trees[split], ids[split], depth[split], reach[split]
                feature, threshold = feature[split], threshold[split]
            if not len(ids):
                continue
            go_left = X[:, feature].T <= threshold[:, None]
            right_left = nodes.number(2 * len(ids))
            right, left = right_left[: len(ids)], right_left[len(ids):]
            nodes.splits.append((ids, feature, threshold, left, right))
            # right children are stacked before left ones, so left pops first
            children = settle(
                np.concatenate([trees, trees]),
                right_left,
                np.concatenate([depth, depth]) + 1,
                np.concatenate([reach & ~go_left, reach & go_left]),
            )
            if pending and children:
                pending = tuple(map(np.concatenate, zip(pending, children)))
            else:
                pending = pending or children
    return nodes.trees(roots), fitted


def _best_splits(X, t, W, sorted_cols, integer_targets, gain_fn, choose_features, trees):
    """(feature, threshold) of each node's best split; feature -1 for none.

    Each node's candidates are its varying columns, subsampled by
    ``choose_features`` when given. A candidate column whose values in the
    node are all 0/1 splits at 0.5 and gets its right-side sums from a
    matmul; any other candidate takes the sorted search.
    """
    a = len(W)
    n = W.sum(axis=1, keepdims=True)
    nR = W @ X  # weight of the rows holding 1, for 0/1 columns; exact, as weights are counts
    varying = (nR > 0) & (nR < n)
    in_node_binary = np.ones(varying.shape, dtype=bool)
    member = W > 0
    for j in sorted_cols:
        x = X[:, j]
        varying[:, j] = np.where(member, x, np.inf).min(axis=1) < np.where(
            member, x, -np.inf
        ).max(axis=1)
        in_node_binary[:, j] = np.where(member, (x == 0.0) | (x == 1.0), True).all(axis=1)

    if choose_features is None:
        candidate = varying
    else:
        node, col = varying.nonzero()
        ends = np.cumsum(np.bincount(node, minlength=a)).tolist()
        chosen = [
            choose_features(k, col[start:end])
            for k, start, end in zip(trees.tolist(), [0] + ends, ends)
        ]
        candidate = np.zeros_like(varying)
        candidate[np.repeat(np.arange(a), [len(c) for c in chosen]), np.concatenate(chosen)] = True
    if not candidate.any():  # also the case of a design with no columns
        return np.full(a, -1), np.zeros(a)

    by_sums = candidate & in_node_binary
    Wt = W * t
    if integer_targets:
        # every sum is an exact integer, whatever the order it is taken in
        T = Wt.sum(axis=1, keepdims=True)
        TR = Wt @ X
    else:
        # float sums depend on their order: each node sums its own rows and
        # candidate columns, so no tree's sums depend on the nodes beside it
        T = np.empty((a, 1))
        TR = np.zeros_like(nR)
        for i in range(a):
            rows, cols = W[i].nonzero()[0], by_sums[i].nonzero()[0]
            wt = Wt[i, rows]
            T[i] = wt.sum()
            TR[i, cols] = wt @ X[rows][:, cols]
    gains = np.where(by_sums, gain_fn(n, T, n - nR, T - TR), -np.inf)
    sorted_thresholds = {}
    for j, column in sorted_cols.items():
        sel = (candidate[:, j] & ~in_node_binary[:, j]).nonzero()[0]
        if len(sel):
            sorted_thresholds[j] = np.full(a, 0.5)
            gains[sel, j], sorted_thresholds[j][sel] = _sorted_split(
                column, W[sel], t, n[sel], T[sel], gain_fn
            )

    best = gains.argmax(axis=1)  # first max: lowest feature index wins ties
    threshold = np.full(a, 0.5)
    for j, thr in sorted_thresholds.items():
        threshold = np.where(best == j, thr, threshold)
    return np.where(gains.max(axis=1) > GAIN_EPS, best, -1), threshold
