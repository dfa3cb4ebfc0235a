"""Depth-limited binary decision trees shared by the forest and boosting models.

Trees grow over weighted rows: callers collapse duplicate (row, target) pairs
into unique rows with integer multiplicities, which keeps every node-level
scan small without changing any statistic. Candidate thresholds are midpoints
between consecutive distinct values of a column within the node (0.5 for a
column whose values in the node are all 0/1). Columns constant within the
node have no candidates, so tree shape is invariant to appending all-constant
columns. Equal-gain ties resolve to the lowest feature index, then the lowest
threshold, making construction fully deterministic.

``grow_trees`` grows a batch of trees in lockstep over ``Blocks``: unique
rows in one or more blocks, each padded with zero rows to the longest block.
With one block every tree grows over it (the forest, or a single fit);
otherwise tree k grows over block k (boosting's stacked problems). A node is
its tree's weight row over its own block, with the rows that do not reach it
zeroed, and every per-node array it reads (rows, targets, sorted columns) is
its own block's, so a step's arrays are nodes x largest block wide. The
column state (which columns are 0/1, and each other column's per-block sort)
is computed once per ``Blocks``, so boosting's rounds share it. When trees
draw random feature subsets, every step expands the next depth-first
(preorder) node of each unfinished tree and makes one draw call for all of
them, so each tree consumes its random stream in preorder; otherwise every
pending node is expanded at once. A step gets all nodes' per-side counts
from one batched product of their weights with their blocks' rows, a single
matmul in a one-block build, and their target sums from a second. With
integer targets every sum is exact. Float targets (boosting's gradients)
give sums whose bits depend on their order, but the sums only choose a
split: the batched ones decide each node whose best gain beats every other
candidate and ``GAIN_EPS`` by more than a proven rounding bound, and only
the other nodes sum their own rows and candidate columns in row order. So a
tree's splits depend neither on the nodes it shares a step with nor on rows
its weights leave out. Children that are leaves by depth or purity get
their values when created.

Grown trees are flat arrays (``Trees``) in which a tree is the set of nodes
its root reaches. ``Trees.leaf_values`` descends all trees at once, one step
per level, over rows in the build's block layout: prediction's distinct rows
as one block, and in boosting's per-round update the blocks it grew over.
Each step gathers each (tree, row)'s value from the flat rows and its child
from one table of (right, left) pairs; ``Trees.row_scores`` reduces it to
both ensembles' scores. ``distinct_rows`` sorts rows on keys: a run of up to
52 adjacent 0/1 columns is one key, any other column its own.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

GAIN_EPS = 1e-12
KEY_BITS = 52  # a run's key is an integer below 2**52, exact in a float
PREDICT_ROWS = 128  # distinct rows a prediction descends at a time
CHECK_ROWS = 1024  # rows ``distinct_rows`` checks for 0/1 columns at a time


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
    itself. Child indices are absolute; tree ``k`` is the set of nodes
    ``roots[k]`` reaches, wherever they lie in the arrays, so several
    sequences may share one set of node arrays.
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
        """values[k, i]: the value of the leaf tree k sends row i of its block to,
        for prediction and boosting's per-round update alike. ``X`` is in the
        build's layout (``Blocks.X``): tree k reads block k, or the one block."""
        blocks, rows, columns = X.shape
        # each row's start in the flat X; one block broadcasts to every tree
        start = (np.arange(blocks)[:, None] * rows + np.arange(rows)) * columns
        flat = X.reshape(-1)
        # child[go_left + 2 * i]; intp nodes index without a cast
        child = np.stack([self.right, self.left], axis=1, dtype=np.intp).reshape(-1)
        node = np.repeat(self.roots[:, None].astype(np.intp), rows, axis=1)
        while True:
            f = self.feature[node]
            if (f < 0).all():
                return self.value[node]
            # NaN fails <= and goes right. A leaf (feature -1) reads the element
            # before its row, or the flat X's last, and goes to itself either way
            node = child[(flat[start + f] <= self.threshold[node]) + 2 * node]

    def row_scores(self, X, reduce):
        """One score per row of the 2-D ``X``. Each distinct row descends once,
        ``PREDICT_ROWS`` at a time, and ``reduce`` turns each chunk's (trees, rows)
        leaf values into one score per row, so no array is trees x all rows."""
        U, inverse = distinct_rows(X)
        scores = np.empty(len(U))
        for start in range(0, len(U), PREDICT_ROWS):
            rows = slice(start, start + PREDICT_ROWS)
            scores[rows] = reduce(self.leaf_values(U[None, rows]))
        return scores[inverse]


def distinct_rows(X):
    """(U, inverse) with X == U[inverse]: predict once per distinct row.

    Row indices are sorted by keys, the first one primary, and neighbours
    compared one key at a time. A run's key is the integer its 0/1 columns
    spell, the first column highest, so it orders and compares as the run
    does: U (up to the sign of a zero) and the inverse are those
    np.unique(X, axis=0) gives, with no copy of X.
    """
    binary = np.ones(X.shape[1], dtype=bool)  # the columns whose values are all 0 or 1
    for start in range(0, len(X), CHECK_ROWS):
        rows = X[start : start + CHECK_ROWS]
        binary &= ((rows == 0.0) | (rows == 1.0)).all(axis=0)
    keys, end = [], 0
    for is_binary, group in groupby(binary.tolist()):
        start, end = end, end + len(list(group))
        for s in range(start, end, KEY_BITS if is_binary else 1):
            run = X[:, s : min(s + KEY_BITS, end)]
            keys.append(run @ 2.0 ** np.arange(run.shape[1])[::-1] if is_binary else X[:, s])
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(X))
    first = np.zeros(len(X), dtype=bool)  # first of its group in sorted order
    first[:1] = True
    for key in keys:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return X[order[first]], inverse


class _Nodes:
    """Node numbering and the record of a build, assembled into ``Trees`` at the end."""

    def __init__(self):
        self.count = 0
        self.splits = []  # (ids, feature, threshold, left ids, right ids)
        self.leaves = []  # (ids, values)

    def number(self, n):
        """Ids for ``n`` new nodes."""
        self.count += n
        return np.arange(self.count - n, self.count)

    def trees(self, roots):
        """The build as ``Trees``, its nodes in numbering order."""
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


def node_slices(node, count):
    """Slices of nodes 0..count-1 in arrays grouped by ``node``, as ``nonzero`` gives them."""
    ends = np.cumsum(np.bincount(node, minlength=count)).tolist()
    return [slice(start, end) for start, end in zip([0] + ends, ends)]


class Blocks:
    """Unique rows in blocks, and the column state every build over them reads.

    ``X[b]`` holds block b's rows, then rows of zeros up to the longest
    block; trees weight these padding rows 0, so they add exact zeros to
    every sum. ``binary`` marks the columns that are 0/1 in every block, and
    each other column j has its per-block sort in ``sorted_cols[j]``.
    """

    def __init__(self, blocks):
        self.sizes = [len(rows) for rows in blocks]
        self.X = self.pad(blocks)
        self.binary = ((self.X == 0.0) | (self.X == 1.0)).all(axis=(0, 1))
        self.sorted_cols = {
            j: _sorted_column(self.X[:, :, j]) for j in (~self.binary).nonzero()[0].tolist()
        }

    def pad(self, arrays):
        """The per-block ``arrays`` stacked, each padded with zeros to the longest block."""
        padded = np.zeros((len(arrays), max(self.sizes)) + np.shape(arrays[0])[1:])
        for b, array in enumerate(arrays):
            padded[b, : len(array)] = array
        return padded


def _per_node(A, block):
    """Each node's block of ``A``: ``A[block]``, or the one block itself when
    there is one, which broadcasts against the nodes' rows."""
    return A[0] if len(A) == 1 else A[block]


def _one_value(A, block, member):
    """Whether all of each node's rows (``member``) hold the value its first
    row holds in ``A``, an array of per-block rows."""
    first = A[block, member.argmax(axis=1)]
    return ~(member & (_per_node(A, block) != first[:, None])).any(axis=1)


def _column_sums(W, Xb):
    """Each node's weighted column sums over its own block: ``Xb`` is the one
    block, or each node's block gathered. Exact while every term is an integer."""
    if Xb.ndim == 2:
        return W @ Xb  # a one-block build gathers no rows per node
    return (W[:, None] @ Xb)[:, 0]


def _sorted_column(x):
    """Per block: the stable order of column ``x`` over the block's rows, and
    its value groups (end positions and values). A block with fewer groups
    repeats its last one, which holds no rows of its own."""
    order = np.argsort(x, axis=1, kind="stable")
    sv = np.take_along_axis(x, order, axis=1)
    ends = [np.append(np.flatnonzero(s[:-1] != s[1:]), len(s) - 1) for s in sv]
    groups = max(len(e) for e in ends)
    ends = np.array([np.pad(e, (0, groups - len(e)), mode="edge") for e in ends])
    return order, ends, np.take_along_axis(sv, ends, axis=1)


def _sorted_split(column, W, Wt, n, T, gain_fn):
    """Best (gain, runner-up gain, threshold) per node on one column with
    non-0/1 values; the runner-up is the best of the node's other boundaries.

    ``column`` holds each node's block's sort of the column. A candidate is
    the boundary after each value present in the node, except the largest;
    its threshold is the midpoint to the next present value. Cumulative sums
    run along the block's order, where rows outside a node add exact zeros,
    so each node's prefix sums are the ones its own sorted rows give.
    """
    order, ends, values = column
    r = np.arange(len(W))[:, None]
    cn = np.cumsum(W[r, order], axis=1)[r, ends]
    ct = np.cumsum(Wt[r, order], axis=1)[r, ends]
    present = cn > np.concatenate([np.zeros((len(cn), 1)), cn[:, :-1]], axis=1)
    # a boundary needs the node's rows on both sides: its group present, and
    # weight after it (counts are integers, so cn reaches n exactly)
    g = np.where(present & (cn < n), gain_fn(n, T, cn, ct), -np.inf)
    best = np.argmax(g, axis=1)  # first max: lowest threshold wins ties
    # the threshold's right value is the next present group's
    nxt = np.argmax(present & (np.arange(ends.shape[1]) > best[:, None]), axis=1)
    r = r[:, 0]
    lo, hi = values[r, best], values[r, nxt]
    thr = lo + (hi - lo) / 2
    thr = np.where(thr >= hi, lo, thr)  # midpoint rounded up to the right value
    gain = g[r, best]
    g[r, best] = -np.inf
    return gain, g.max(axis=1), thr


def grow_trees(blocks, t, weights, max_depth, gain_fn, leaf_fn, choose_features=None):
    """Grow one tree per row of ``weights`` over the unique rows of ``blocks``.

    With one block every tree grows over it; otherwise tree k grows over
    block k. ``t[b]`` holds block b's targets and ``weights[k]`` tree k's
    row multiplicities over its block (0 leaves a row out of the sums; the
    padding rows must have 0). ``leaf_fn(W, block)`` gives the leaf values of
    the nodes whose weight rows are stacked in ``W`` and whose blocks are in
    ``block``. ``choose_features(trees, starts, counts)`` optionally
    subsamples each node's varying columns (random-forest style): given each
    node's tree and the start and length of its run in ``varying.nonzero()``,
    it returns the flat indices of the chosen ones. It is called once per
    step, which expands the next node of each unfinished tree in depth-first
    preorder. Without it nothing is drawn, the order is free, and each step
    expands every pending node. Tree k of the returned ``Trees`` is the one
    ``weights[k]`` grows.
    """
    X, t = blocks.X, np.asarray(t, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n_trees = len(weights)
    tree_block = np.arange(n_trees) if len(X) > 1 else np.zeros(n_trees, dtype=int)
    integer_targets = bool((t == np.round(t)).all())
    nodes = _Nodes()

    def leaves(ids, W, block):
        nodes.leaves.append((ids, np.asarray(leaf_fn(W, block), dtype=float)))

    def settle(trees, ids, depth, W):
        # leaves by depth or purity get their values now (weights are counts,
        # so a node of weight below 2 is pure), the rest are returned for a step
        block = tree_block[trees]
        leaf = depth >= max_depth
        if leaf.all():
            leaves(ids, W, block)
            return ()
        leaf |= _one_value(t, block, W > 0)
        if leaf.any():
            leaves(ids[leaf], W[leaf], block[leaf])
        keep = ~leaf
        if not keep.any():
            return ()
        return trees[keep], ids[keep], depth[keep], W[keep]

    roots = nodes.number(n_trees)
    with np.errstate(divide="ignore", invalid="ignore"):
        # pending nodes (tree, id, depth, weight row) in the order they were
        # stacked; each tree's newest one is the next in its preorder
        pending = settle(np.arange(n_trees), roots, np.zeros(n_trees, dtype=int), weights)
        while pending:
            if choose_features is None:
                batch, pending = pending, ()
            else:
                newest = len(pending[0]) - 1 - np.unique(pending[0][::-1], return_index=True)[1]
                rest = np.ones(len(pending[0]), dtype=bool)
                rest[newest] = False
                batch = tuple(p[newest] for p in pending)
                pending = tuple(p[rest] for p in pending) if rest.any() else ()
            trees, ids, depth, W = batch
            block = tree_block[trees]
            feature, threshold = _best_splits(
                blocks, t, W, block, integer_targets, gain_fn, choose_features, trees
            )
            split = feature >= 0
            if not split.all():
                leaf = ~split
                leaves(ids[leaf], W[leaf], block[leaf])
                trees, ids, depth, W = trees[split], ids[split], depth[split], W[split]
                block, feature, threshold = block[split], feature[split], threshold[split]
            if not len(ids):
                continue
            go_left = X[block, :, feature] <= threshold[:, None]
            right_left = nodes.number(2 * len(ids))
            right, left = right_left[: len(ids)], right_left[len(ids):]
            nodes.splits.append((ids, feature, threshold, left, right))
            # right children are stacked before left ones, so left pops first
            children = settle(
                np.concatenate([trees, trees]),
                right_left,
                np.concatenate([depth, depth]) + 1,
                np.concatenate([W * ~go_left, W * go_left]),
            )
            if pending and children:
                pending = tuple(map(np.concatenate, zip(pending, children)))
            else:
                pending = pending or children
    return nodes.trees(roots)


def _best_splits(blocks, t, W, block, integer_targets, gain_fn, choose_features, trees):
    """(feature, threshold) of each node's best split; feature -1 for none.

    Each node's candidates are its varying columns, subsampled by
    ``choose_features`` when given. A candidate column whose values in the
    node are all 0/1 splits at 0.5 and gets its right-side sums from a
    matmul; any other candidate takes the sorted search. Every array a node
    reads is its own block's. Float targets are scored from the batched sums
    first; only the nodes those sums cannot decide (``_unsure``) are scored
    again from their own sums (``_node_sums``).
    """
    X = blocks.X
    a = len(W)
    n = W.sum(axis=1, keepdims=True)
    Xb = X[0] if len(X) == 1 else X[block]  # each node's block, gathered once a step
    # weight of the rows holding 1, for 0/1 columns; exact, as weights are counts
    nR = _column_sums(W, Xb)
    varying = (nR > 0) & (nR < n)
    in_node_binary = np.ones(varying.shape, dtype=bool)
    member = W > 0
    for j in blocks.sorted_cols:
        varying[:, j] = ~_one_value(X[:, :, j], block, member)
        x = _per_node(X[:, :, j], block)
        in_node_binary[:, j] = ~(member & (x != 0.0) & (x != 1.0)).any(axis=1)

    if choose_features is None:
        candidate = varying
    else:
        var_node, var_col = varying.nonzero()
        counts = np.bincount(var_node, minlength=a)
        chosen = choose_features(trees, np.cumsum(counts) - counts, counts)
        candidate = np.zeros_like(varying)
        candidate[var_node[chosen], var_col[chosen]] = True
    if not candidate.any():  # also the case of a design with no columns
        return np.full(a, -1), np.zeros(a)

    by_sums = candidate & in_node_binary
    by_sort = candidate & ~in_node_binary
    Wt = W * _per_node(t, block)

    def score(u, T, TR):
        # gains (-inf for a non-candidate) and thresholds of nodes u, and each
        # sorted candidate's best other boundary; gains of the 0/1 candidates
        # only, as a forest node draws a few of its columns
        gains = np.full(by_sums[u].shape, -np.inf)
        node, col = by_sums[u].nonzero()
        nn, tt = n[u][node, 0], T[node, 0]
        gains[node, col] = gain_fn(nn, tt, nn - nR[u][node, col], tt - TR[node, col])
        seconds = np.full(gains.shape, -np.inf)
        thresholds = np.full(gains.shape, 0.5)
        for j, column in blocks.sorted_cols.items():
            sel = by_sort[u][:, j].nonzero()[0]
            if len(sel):
                gains[sel, j], seconds[sel, j], thresholds[sel, j] = _sorted_split(
                    [c[block[u][sel]] for c in column], W[u][sel], Wt[u][sel], n[u][sel],
                    T[sel], gain_fn,
                )
        return gains, seconds, thresholds

    # every sum is an exact integer for integer targets, whatever its order
    gains, seconds, thresholds = score(slice(None), Wt.sum(axis=1, keepdims=True),
                                       _column_sums(Wt, Xb))
    best = gains.argmax(axis=1)  # first max: lowest feature index wins ties
    if not integer_targets:
        # float sums depend on their order; a node whose split they cannot
        # decide sums its own rows and candidate columns, so no tree's splits
        # depend on the nodes beside it
        u = _unsure(gains, seconds, best, W, Wt).nonzero()[0]
        if len(u):
            gains[u], _, thresholds[u] = score(u, *_node_sums(X, W[u], Wt[u], block[u],
                                                              by_sums[u]))
            best[u] = gains[u].argmax(axis=1)
    r = np.arange(a)
    return np.where(gains[r, best] > GAIN_EPS, best, -1), thresholds[r, best]


def _unsure(gains, seconds, best, W, Wt):
    """The nodes whose split the batched sums may not decide as the node's own sums do.

    Both ways sum the same terms ``Wt``, in different orders. With m the node's
    rows, S = sum |Wt| and u = eps / 2, a sum of up to m terms in any order is
    within m·u·S of its exact value to first order, and so are T, TR and a
    sorted prefix.
    ``sse_gain`` then forms TL = T - TR, TR' = T - TL (each within (2m+1)·u·S,
    and |TL| + |TR| <= S) and TL²/nL + TR'²/nR - T²/n with nL, nR, n integers
    >= 1, so every term and partial sum is at most S². Squaring, dividing and
    the two additions put the gain within (6m+8)·u·S² = (3m+4)·eps·S² of the
    exact gain, to first order; B = (4m+6)·eps·S² also covers the higher-order
    terms, of order (m·u·S)², for any m below 2**40. The two gains of a candidate then differ by at
    most 2B, so the batched sums decide a node whose best gain beats every
    other candidate's, the other boundaries of its own column included, by
    more than twice that, and which is that far from GAIN_EPS.
    """
    r = np.arange(len(gains))
    top = gains[r, best]
    others = gains.copy()
    others[r, best] = seconds[r, best]
    m = np.count_nonzero(W, axis=1)
    S = np.abs(Wt).sum(axis=1)
    margin = 4 * (4 * m + 6) * np.finfo(float).eps * S * S
    return (top - others.max(axis=1) <= margin) | (np.abs(top - GAIN_EPS) <= margin)


def _node_sums(X, W, Wt, block, by_sums):
    """Each node's target sum and right-side sums of its 0/1 candidates, taken
    over the node's own rows in row order: ``np.add.reduce``, and a BLAS
    product with the gathered block."""
    a = len(W)
    row_node, rows = W.nonzero()
    wts = Wt[row_node, rows]
    node, col = by_sums.nonzero()
    sums, parts = [], []
    for b, r, c in zip(block.tolist(), node_slices(row_node, a), node_slices(node, a)):
        wt, cs = wts[r], col[c]
        sums.append(wt.sum())
        # the gathered block's memory layout picks BLAS's summation order
        parts.append(wt @ X[b][rows[r]][:, cs])
    TR = np.zeros(by_sums.shape)
    TR[node, col] = np.concatenate(parts)
    return np.array(sums)[:, None], TR
