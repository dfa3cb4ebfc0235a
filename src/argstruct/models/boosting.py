"""Gradient-boosted regression trees on the log-loss gradient (XGBoost-style
objective, classic Friedman fitting: squared-error splits on the residuals,
Newton-step leaf values, shrinkage on every round)."""

from dataclasses import dataclass

import numpy as np

from . import Classifier, dedup_rows
from .linear import sigmoid
from .tree import Trees, distinct_rows, grow_trees, sse_gain


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


def fit_gbt(spec, X, y) -> GradientBoostedModel:
    n, d = X.shape
    unique, y_u, counts, inverse = dedup_rows(X, y)
    p0 = float((counts @ y_u) / n)
    base = float(np.log(p0 / (1.0 - p0)))
    F = np.full(len(unique), base)
    rounds = []
    for r in range(spec.tree_count):
        p = sigmoid(F)
        grad = y_u - p  # negative log-loss gradient
        hess = p * (1.0 - p)

        def leaf_fn(W, grad=grad, hess=hess):
            # Newton step over each leaf's own rows, in row order
            values = []
            for w in W:
                rows = w.nonzero()[0]
                w = w[rows]
                values.append(float((w @ grad[rows]) / (w @ hess[rows] + 1e-16)))
            return values

        if spec.subsample < 1.0:
            rng = np.random.default_rng([spec.seed, r])
            m = max(1, int(round(spec.subsample * n)))
            picked = rng.choice(n, size=m, replace=False)
            weights = np.bincount(inverse[picked], minlength=len(unique)).astype(float)
        else:
            weights = counts
        tree, fitted = grow_trees(
            unique, grad, weights[None, :], spec.max_depth, sse_gain, leaf_fn
        )
        F += spec.learning_rate * fitted[0]
        rounds.append(tree)
    return GradientBoostedModel(
        family="gbt",
        base_score=base,
        shrinkage=spec.learning_rate,
        trees=Trees.concat(rounds),
        n_features=d,
    )
