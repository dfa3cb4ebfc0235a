"""Gradient-boosted regression trees on the log-loss gradient (XGBoost-style
objective, classic Friedman fitting: squared-error splits on the residuals,
Newton-step leaf values, shrinkage on every round).

Rounds are sequential, but separate problems (the folds of a cell) are not,
so ``fit_gbt`` boosts a batch of problems of one width together. Their unique
rows form ``Blocks``, one block per problem padded with zero-weight rows to
the largest, built once per batch together with the column state every round
reads. Each round grows every problem's tree in one ``grow_trees`` call: tree
i weights only block i, with its counts or its round's subsample, and a
node's weight row, targets and sorted columns span that block alone.
``grow_trees`` splits each node as the node's own float sums, over its own
rows in row order, split it, and each leaf's Newton step sums the leaf's own
rows, so each model is bitwise the one a batch of one gives. Block i then
takes its rows' leaf values from tree i alone. The models of a batch share
one set of node arrays, each holding the roots of its own trees. A model's
score, through ``Trees.row_scores``, is the sigmoid of its base score plus
its shrunk steps, summed in tree order.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import Classifier, dedup_rows
from .linear import sigmoid
from .tree import Blocks, Trees, grow_trees, node_slices, sse_gain


@dataclass(frozen=True)
class GradientBoostedModel(Classifier):
    family: str
    base_score: float
    shrinkage: float
    trees: Trees
    n_features: int

    def scores(self, X):
        def probability(leaf):
            terms = np.empty((len(leaf) + 1, leaf.shape[1]))  # the base score, then each step
            terms[0] = self.base_score
            np.multiply(self.shrinkage, leaf, out=terms[1:])
            # summed in tree order, as the rounds added them: float sums depend on it
            return sigmoid(np.add.accumulate(terms, out=terms)[-1])

        return self.trees.row_scores(X, probability)


def fit_gbt(spec, problems) -> list[GradientBoostedModel]:
    """One model per checked (X, y) problem; all problems share a width."""
    k = len(problems)
    uniques, ys, cs, inverses = zip(*(dedup_rows(X, y) for X, y in problems))
    blocks = Blocks(uniques)
    y_u = blocks.pad(ys)
    counts = blocks.pad(cs)  # 0 exactly on the padding rows
    bases = []
    for (X, _), y, c in zip(problems, ys, cs):
        p0 = float((c @ y) / len(X))
        bases.append(float(np.log(p0 / (1.0 - p0))))
    F = np.repeat(np.array(bases)[:, None], counts.shape[1], axis=1)
    rounds = []
    for r in range(spec.tree_count):
        p = sigmoid(F)
        grad = np.where(counts > 0, y_u - p, 0.0)  # negative log-loss gradient, 0 on padding
        hess = p * (1.0 - p)

        def leaf_fn(W, block, grad=grad, hess=hess):
            # Newton step over each leaf's own rows, in row order
            node, rows = W.nonzero()
            ws, gs, hs = W[node, rows], grad[block[node], rows], hess[block[node], rows]
            sums = np.array([(ws[s] @ gs[s], ws[s] @ hs[s]) for s in node_slices(node, len(W))])
            return sums[:, 0] / (sums[:, 1] + 1e-16)

        if spec.subsample < 1.0:
            weights = np.zeros_like(counts)
            for i, ((X, _), inverse) in enumerate(zip(problems, inverses)):
                rng = np.random.default_rng([spec.seed, r])
                m = max(1, int(round(spec.subsample * len(X))))
                picked = rng.choice(len(X), size=m, replace=False)
                weights[i] = np.bincount(inverse[picked], minlength=counts.shape[1])
        else:
            weights = counts
        trees = grow_trees(blocks, grad, weights, spec.max_depth, sse_gain, leaf_fn)
        F += spec.learning_rate * trees.leaf_values(blocks.X)
        rounds.append(trees)
    grown = Trees.concat(rounds)  # round-major: tree r * k + i is problem i's round r
    return [
        GradientBoostedModel(
            family="gbt",
            base_score=base,
            shrinkage=spec.learning_rate,
            trees=replace(grown, roots=grown.roots[i::k]),
            n_features=blocks.X.shape[2],
        )
        for i, base in enumerate(bases)
    ]
