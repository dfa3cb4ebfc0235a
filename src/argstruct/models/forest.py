"""Bagged decision-tree ensemble with per-split feature subsampling.

Each tree draws its bootstrap and split-time feature subsets from an RNG
stream derived from (seed, tree index), so results do not depend on build
order. Feature subsets are sqrt-sized samples of the node's varying columns;
all-constant columns never enter the pool, so predictions are invariant to
appending constant columns. All trees grow together (``grow_trees``): their
bootstraps are one trees x unique-rows weight matrix, and because weights
are counts and targets 0/1, every node sum is an exact integer. Each
lockstep step draws the feature subsets of all its nodes in one call, one
permutation per node from that node's tree's stream. A forest's score is
its vote share, through ``Trees.row_scores``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import Classifier, dedup_rows
from .tree import Blocks, Trees, entropy_gain, gini_gain, grow_trees


@dataclass(frozen=True)
class RandomForestModel(Classifier):
    family: str
    trees: Trees
    n_features: int

    def scores(self, X):
        """Fraction of trees whose leaf votes hateful."""
        return self.trees.row_scores(X, lambda leaf: leaf.sum(axis=0) / len(self.trees))


def fit_forest(spec, X, y) -> RandomForestModel:
    n, d = X.shape
    gain_fn = entropy_gain if spec.criterion == "entropy" else gini_gain
    unique, y_u, _, inverse = dedup_rows(X, y)
    rngs = [np.random.default_rng([spec.seed, t]) for t in range(spec.tree_count)]
    weights = np.array(
        [np.bincount(inverse[rng.integers(0, n, n)], minlength=len(unique)) for rng in rngs],
        dtype=float,
    )

    def leaf_fn(W, block):
        # weighted majority vote, ties toward hateful
        return np.where(2.0 * (W @ y_u) >= W.sum(axis=1), 1.0, 0.0)

    def choose_features(trees, starts, counts):
        # one sqrt-sized draw from each node's run of varying columns, from
        # its tree's stream, which it consumes by the candidate count alone;
        # a node with one candidate, whose draw would be all of it, draws nothing
        drawn = counts > 1
        sizes = [math.isqrt(c) for c in counts[drawn].tolist()]
        picks = [
            rngs[tree].permutation(c)[:m]
            for tree, c, m in zip(trees[drawn].tolist(), counts[drawn].tolist(), sizes)
        ]
        chosen = np.repeat(starts[drawn], sizes)  # each pick's run start
        if picks:
            chosen += np.concatenate(picks)
        return np.concatenate([starts[counts == 1], chosen])

    trees = grow_trees(
        Blocks([unique]), y_u[None], weights, spec.max_depth, gain_fn, leaf_fn, choose_features
    )
    return RandomForestModel(family="rforest", trees=trees, n_features=d)
