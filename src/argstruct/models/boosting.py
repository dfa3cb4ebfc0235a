"""Gradient-boosted regression trees on the log-loss gradient (XGBoost-style
objective, classic Friedman fitting: squared-error splits on the residuals,
Newton-step leaf values, shrinkage on every round).

Rounds are sequential, but separate problems (the folds of a cell) are not,
so ``fit_gbt`` boosts a batch of problems of one width together. Their unique
rows are stacked in blocks, and each round grows every problem's tree in one
``grow_trees`` call: tree i weights only block i, with its counts or its
round's subsample, and ``grow_trees`` takes a node's float sums over that
node's own rows in row order. Block i then takes its rows' leaf values from
tree i. So each model is bitwise the one a batch of one gives, and a round's
fixed per-step cost is shared by all problems. The models of a batch share
one set of node arrays, each holding the roots of its own trees.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import Classifier, dedup_rows
from .linear import sigmoid
from .tree import Trees, distinct_rows, grow_trees, node_slices, sse_gain


@dataclass(frozen=True)
class GradientBoostedModel(Classifier):
    family: str
    base_score: float
    shrinkage: float
    trees: Trees
    n_features: int

    def scores(self, X):
        U, inverse = distinct_rows(X)
        F = np.full(len(U), self.base_score)
        for leaf in self.trees.leaf_values(U):  # tree order: float sums depend on it
            F += self.shrinkage * leaf
        return sigmoid(F)[inverse]


def fit_gbt(spec, problems) -> list[GradientBoostedModel]:
    """One model per checked (X, y) problem; all problems share a width."""
    k = len(problems)
    deduped = [dedup_rows(X, y) for X, y in problems]
    sizes = [len(unique) for unique, _, _, _ in deduped]
    blocks = np.cumsum([0] + sizes)
    stacked = np.vstack([unique for unique, _, _, _ in deduped])
    y_u = np.concatenate([y for _, y, _, _ in deduped])
    block = np.repeat(np.arange(k), sizes)  # the problem of each stacked row
    rows = np.arange(len(stacked))
    counts = np.zeros((k, len(stacked)))
    counts[block, rows] = np.concatenate([c for _, _, c, _ in deduped])
    bases = []
    for (X, _), (_, y, c, _) in zip(problems, deduped):
        p0 = float((c @ y) / len(X))
        bases.append(float(np.log(p0 / (1.0 - p0))))
    F = np.repeat(bases, sizes)
    rounds = []
    for r in range(spec.tree_count):
        p = sigmoid(F)
        grad = y_u - p  # negative log-loss gradient
        hess = p * (1.0 - p)

        def leaf_fn(W, grad=grad, hess=hess):
            # Newton step over each leaf's own rows, in row order
            node, rows_in = W.nonzero()
            ws = W[node, rows_in]
            values = []
            for s in node_slices(node, len(W)):
                w, u = ws[s], rows_in[s]
                values.append(float((w @ grad[u]) / (w @ hess[u] + 1e-16)))
            return values

        if spec.subsample < 1.0:
            weights = np.zeros((k, len(stacked)))
            for i, ((X, _), (_, _, _, inverse)) in enumerate(zip(problems, deduped)):
                rng = np.random.default_rng([spec.seed, r])
                m = max(1, int(round(spec.subsample * len(X))))
                picked = rng.choice(len(X), size=m, replace=False)
                weights[i, blocks[i]:blocks[i + 1]] = np.bincount(
                    inverse[picked], minlength=sizes[i]
                )
        else:
            weights = counts
        trees = grow_trees(stacked, grad, weights, spec.max_depth, sse_gain, leaf_fn)
        F += spec.learning_rate * trees.leaf_values(stacked)[block, rows]
        rounds.append(trees)
    grown = Trees.concat(rounds)  # round-major: tree r * k + i is problem i's round r
    return [
        GradientBoostedModel(
            family="gbt",
            base_score=base,
            shrinkage=spec.learning_rate,
            trees=replace(grown, roots=grown.roots[i::k]),
            n_features=stacked.shape[1],
        )
        for i, base in enumerate(bases)
    ]
