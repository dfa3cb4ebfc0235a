"""Differential tests: the lockstep tree builder against the recursive oracle.

Every fitted forest and boosted model must serialize exactly as the
recursive builder in ``tree_oracle`` grows it, and score every row with the
same bits as that builder's one-node-at-a-time prediction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_oracle
from argstruct.models import ModelSpec, fit, predict_score
from argstruct.models.persist import model_to_dict
from argstruct.models.tree import gini_gain, grow_trees

BINARY_VALUES = st.sampled_from([0.0, 1.0])
# few distinct values, so columns tie; 0 and 1 among them, so some nodes see
# a column whose values there are all 0/1
CONTINUOUS_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, 2.0])


@st.composite
def problems(draw):
    """(X, y) drawn from a small pool of rows, so rows repeat and collapse to
    weighted unique rows. Each column is 0/1 or few-valued continuous; a
    constant column may be appended."""
    d = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    column = [CONTINUOUS_VALUES if continuous else BINARY_VALUES for continuous in kinds]
    pool = draw(st.lists(st.tuples(*column), min_size=2, max_size=12))
    n = draw(st.integers(4, 40))
    X = np.array([pool[i] for i in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=n, max_size=n))], dtype=float)
    y = np.array(draw(st.lists(BINARY_VALUES, min_size=n, max_size=n)))
    y[:2] = 0.0, 1.0
    constant = draw(st.sampled_from([None, 0.0, 1.0, 2.0]))
    if constant is not None:
        X = np.hstack([X, np.full((n, 1), constant)])
    return X, y


def _assert_matches_oracle(spec, X, y, expected):
    model = fit(spec, X, y)
    assert model_to_dict(model) == expected
    # training rows, and rows no tree has seen
    rows = np.vstack([X, 1.0 - X, X[::-1] * 0.5])
    assert predict_score(model, rows).tobytes() == tree_oracle.scores(expected, rows).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    criterion=st.sampled_from(["gini", "entropy"]),
    depth=st.integers(1, 8),
    seed=st.integers(0, 2 ** 16),
)
def test_forest_matches_recursive_builder(problem, criterion, depth, seed):
    X, y = problem
    spec = ModelSpec("rforest", tree_count=4, max_depth=depth, criterion=criterion, seed=seed)
    _assert_matches_oracle(spec, X, y, tree_oracle.forest_dict(spec, X, y))


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    subsample=st.sampled_from([1.0, 0.6]),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
)
def test_gbt_matches_recursive_builder(problem, subsample, depth, seed):
    X, y = problem
    spec = ModelSpec("gbt", tree_count=5, max_depth=depth, subsample=subsample, seed=seed)
    _assert_matches_oracle(spec, X, y, tree_oracle.gbt_dict(spec, X, y))


def test_gini_tie_between_complementary_columns_follows_recursive_builder():
    # 157 rows, 57 hateful; column 0 sends 11 rows (4 hateful) left and
    # column 1, its complement, 146. The two gains differ only through the
    # last bits of the parent impurity, which must be squared as the
    # recursive builder squared it.
    X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    t = np.array([1.0, 0.0, 1.0, 0.0])
    w = np.array([4.0, 7.0, 53.0, 93.0])
    trees, _ = grow_trees(X, t, w[None, :], 1, gini_gain, lambda W: np.zeros(len(W)))
    root = tree_oracle.grow_tree(
        X, t, np.arange(4), w, 1, tree_oracle.gini_gain, lambda idx, w: 0.0, binary=True
    )
    assert trees.feature[trees.roots[0]] == root.feature == 0
