"""Bagged decision-tree ensemble with per-split feature subsampling.

Each tree draws its bootstrap and split-time feature subsets from an RNG
stream derived from (seed, tree index), so results do not depend on build
order. Feature subsets are sqrt-sized samples of the node's varying columns;
all-constant columns never enter the pool, so predictions are invariant to
appending constant columns. All trees grow together (``grow_trees``): their
bootstraps are one trees x unique-rows weight matrix, and because weights
are counts and targets 0/1, every node sum is an exact integer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import Classifier, dedup_rows
from .tree import Trees, distinct_rows, entropy_gain, gini_gain, grow_trees


@dataclass(frozen=True)
class RandomForestModel(Classifier):
    family: str
    trees: Trees
    n_features: int

    def scores(self, X):
        """Fraction of trees whose leaf votes hateful."""
        U, inverse = distinct_rows(X)
        votes = self.trees.leaf_values(U).sum(axis=0)
        return (votes / len(self.trees))[inverse]


def fit_forest(spec, X, y) -> RandomForestModel:
    n, d = X.shape
    gain_fn = entropy_gain if spec.criterion == "entropy" else gini_gain
    unique, y_u, _, inverse = dedup_rows(X, y)
    rngs = [np.random.default_rng([spec.seed, t]) for t in range(spec.tree_count)]
    weights = np.array(
        [np.bincount(inverse[rng.integers(0, n, n)], minlength=len(unique)) for rng in rngs],
        dtype=float,
    )

    def leaf_fn(W):
        # weighted majority vote, ties toward hateful
        return np.where(2.0 * (W @ y_u) >= W.sum(axis=1), 1.0, 0.0)

    def choose_features(tree, candidates):
        # sqrt-sized draw from the node's varying columns; the stream
        # consumed depends only on the candidate count
        m = max(1, math.isqrt(len(candidates)))
        if m >= len(candidates):
            return candidates
        pick = rngs[tree].permutation(len(candidates))[:m]
        return candidates[np.sort(pick)]

    trees, _ = grow_trees(unique, y_u, weights, spec.max_depth, gain_fn, leaf_fn, choose_features)
    return RandomForestModel(family="rforest", trees=trees, n_features=d)
