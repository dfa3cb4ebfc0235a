"""Differential tests: the lockstep tree builder against the recursive oracle.

Every fitted forest and boosted model must serialize exactly as the
recursive builder in ``tree_oracle`` grows it, and score every row with the
same bits as that builder's one-node-at-a-time prediction. A batch fitted
by ``fit_each`` must give, problem by problem, the models ``fit`` gives, and
for lgr and svm the models the one-problem descent loop in ``linear_oracle``
gives. ``dedup_rows`` must collapse rows exactly as the oracles'
``np.unique``-based copy does, and ``distinct_rows`` give the bits of the
per-column sort in ``tree_oracle``. Rows holding NaN or inf must score as
the oracle's descent scores them.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linear_oracle
import tree_oracle
from argstruct.evaluation import stratified_kfold
from argstruct.experiment import design_matrices
from argstruct.models import (
    MODEL_FAMILIES,
    DimensionMismatchError,
    ModelSpec,
    NonFiniteInputError,
    dedup_rows,
    fit,
    fit_each,
)
from argstruct.models import tree
from argstruct.models.persist import load_model, model_to_dict, save_model
from argstruct.models.tree import Blocks, distinct_rows, gini_gain, grow_trees
from argstruct.synth import GeneratorConfig, generate

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


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.booleans(), max_size=4),
    data=st.data(),
)
def test_dedup_rows_matches_np_unique_reference(kinds, data):
    # every width from 0, one row up, and a pool of one (row, label) pair,
    # where all rows are duplicates: unique rows, labels, counts and inverse
    # must come out in np.unique's order, which boosting's float sums follow
    column = [CONTINUOUS_VALUES if continuous else BINARY_VALUES for continuous in kinds]
    pool = data.draw(st.lists(st.tuples(st.tuples(*column), BINARY_VALUES), min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    X = np.array([pool[i][0] for i in picks], dtype=float).reshape(len(picks), len(kinds))
    y = np.array([pool[i][1] for i in picks])
    for got, expected in zip(dedup_rows(X, y), linear_oracle.dedup_rows(X, y)):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _distinct_rows_cases(width, rng):
    """Matrices of ``width`` columns whose rows repeat, drawn from a pool: a
    first row, a random row, and rows that differ from the first only in the
    last one or two columns before column 52, 53, 54, 104, 105, 106 or the
    last. The pool is drawn all 0/1, then with some columns holding -0.0 for
    0, then with some columns continuous or non-finite; also no rows, and
    one row repeated."""
    first = (rng.random(width) < 0.5).astype(float)
    first[::26] = 1.0  # high bits set, so a run key that is not exact collides
    pool = [first, (rng.random(width) < 0.5).astype(float)]
    for end in sorted({52, 53, 54, 104, 105, 106, width}):
        for tail in (1, 2):
            if tail <= end <= width:
                row = first.copy()
                row[end - tail:end] = 1.0 - row[end - tail:end]
                pool.append(row)
    pool = np.array(pool)
    picks = rng.integers(0, len(pool), 40)
    yield pool[picks]
    columns = rng.choice(width, size=min(width, 6), replace=False)
    signed = pool.copy()
    signed[:, columns] = np.where(pool[:, columns] == 0.0, -0.0, 1.0)
    yield signed[picks]
    mixed = pool.copy()
    mixed[:, columns] = rng.choice([0.0, 1.0, 0.5, 2.0, -0.0, np.nan, np.inf, -np.inf],
                                   size=(len(pool), len(columns)))
    yield mixed[picks]
    yield pool[:0]
    yield pool[np.zeros(7, dtype=int)]


def test_distinct_rows_matches_per_column_oracle():
    # every width up to 130, so 0/1 runs cross the 52-column key boundary
    # once and twice, against the per-column sort it replaces, bit for bit
    rng = np.random.default_rng(15)
    for width in range(131):
        for X in _distinct_rows_cases(width, rng):
            U, inverse = distinct_rows(X)
            expected_U, expected_inverse = tree_oracle.distinct_rows(X)
            assert U.shape == expected_U.shape, width
            assert U.tobytes() == expected_U.tobytes(), width
            assert inverse.dtype == expected_inverse.dtype
            assert inverse.tobytes() == expected_inverse.tobytes(), width


def _assert_matches_oracle(spec, X, y, expected):
    model = fit(spec, X, y)
    assert model_to_dict(model) == expected
    # training rows, and rows no tree has seen
    rows = np.vstack([X, 1.0 - X, X[::-1] * 0.5])
    assert model.predict_score(rows).tobytes() == tree_oracle.scores(expected, rows).tobytes()


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


# In the first round, the root's two best candidates are boundaries of column
# 0 with equal gains, far above column 1's; a runner-up taken from the column
# maxima alone would let the batched sums pick the threshold.
_SORTED_NEAR_TIE = (
    np.array([[0.0, 1.0], [0.0, 1.0], [0.25, 0.0], [0.25, 0.0], [0.5, 0.0], [0.5, 1.0],
              [0.5, 1.0], [0.25, 0.0], [0.25, 0.0], [0.5, 1.0], [0.5, 0.0], [0.25, 0.0],
              [0.5, 0.0], [0.25, 0.0], [0.0, 1.0], [0.0, 1.0], [0.5, 0.0], [0.25, 0.0],
              [0.25, 0.0], [0.0, 1.0], [0.0, 1.0], [0.25, 0.0], [0.25, 0.0]]),
    np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0,
              1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    subsample=st.sampled_from([1.0, 0.6]),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
)
@example(problem=_SORTED_NEAR_TIE, subsample=0.6, depth=1, seed=11577)
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
    trees = grow_trees(
        Blocks([X]), t[None], w[None, :], 1, gini_gain, lambda W, block: np.zeros(len(W))
    )
    root = tree_oracle.grow_tree(
        X, t, np.arange(4), w, 1, tree_oracle.gini_gain, lambda idx, w: 0.0, binary=True
    )
    assert trees.feature[trees.roots[0]] == root.feature == 0


@st.composite
def batches(draw):
    """1-5 problems of one width and different row counts. Each column is 0/1,
    few-valued continuous or constant in every problem; rows repeat."""
    d = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["binary", "continuous", "constant"]),
                          min_size=d, max_size=d))
    column = [
        {"binary": BINARY_VALUES, "continuous": CONTINUOUS_VALUES,
         "constant": st.just(2.0)}[kind]
        for kind in kinds
    ]
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        pool = draw(st.lists(st.tuples(*column), min_size=2, max_size=30))
        n = draw(st.integers(4, 60))
        X = np.array([pool[i] for i in draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=n, max_size=n))], dtype=float)
        y = np.array(draw(st.lists(BINARY_VALUES, min_size=n, max_size=n)))
        y[:2] = 0.0, 1.0
        batch.append((X, y))
    return batch


def _spec(family, depth, subsample, seed, linear=(None, None, None)):
    if family in ("lgr", "svm"):
        # lr 5.0 lets some small problems reach GRAD_TOL and freeze early
        learning_rate, regularization, loss = linear
        return ModelSpec(family, max_iter=200, seed=seed, learning_rate=learning_rate,
                         regularization=regularization, loss=loss)
    if family == "rforest":
        return ModelSpec(family, tree_count=4, max_depth=2 * depth, seed=seed)
    return ModelSpec(family, tree_count=5, max_depth=depth, subsample=subsample, seed=seed)


# two problems whose trees split alike with opposite leaves, so a model built
# from another problem's trees cannot pass for its own
_OPPOSITE_PROBLEMS = [
    (np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([0.0, 1.0, 0.0, 1.0])),
    (np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([1.0, 0.0, 1.0, 0.0])),
]


@settings(max_examples=60, deadline=None)
@given(
    batch=batches(),
    family=st.sampled_from(MODEL_FAMILIES),
    depth=st.integers(1, 4),
    subsample=st.sampled_from([1.0, 0.6]),
    seed=st.integers(0, 2 ** 16),
    linear=st.tuples(
        st.sampled_from([None, 5.0]),
        st.sampled_from([None, 0.0, 0.01]),
        st.sampled_from([None, "log"]),
    ),
)
@example(batch=_OPPOSITE_PROBLEMS, family="gbt", depth=1, subsample=1.0, seed=0,
         linear=(None, None, None))
def test_fit_each_matches_fit_per_problem(batch, family, depth, subsample, seed, linear):
    spec = _spec(family, depth, subsample, seed, linear)
    rows = np.vstack([X for X, _ in batch] + [1.0 - X for X, _ in batch])
    models = fit_each(spec, batch)
    assert len(models) == len(batch)
    for model, (X, y) in zip(models, batch):
        alone = fit(spec, X, y)
        assert model_to_dict(model) == model_to_dict(alone)
        assert model.predict_score(rows).tobytes() == alone.predict_score(rows).tobytes()
        if family == "gbt":
            expected = tree_oracle.gbt_dict(spec, X, y)
            assert model_to_dict(model) == expected
            assert model.predict_score(rows).tobytes() == tree_oracle.scores(expected, rows).tobytes()
        if family in ("lgr", "svm"):
            oracle = linear_oracle.fit(spec, X, y)
            assert model_to_dict(model) == model_to_dict(oracle)
            assert model.weights.tobytes() == oracle.weights.tobytes()
            assert np.float64(model.bias).tobytes() == np.float64(oracle.bias).tobytes()
            expected = linear_oracle.scores(oracle, rows)
            assert model.predict_score(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_fit_each_rejects_mixed_widths(family):
    y = np.array([0.0, 1.0, 0.0, 1.0])
    batch = [(np.zeros((4, 2)), y), (np.zeros((4, 3)), y)]
    with pytest.raises(DimensionMismatchError):
        fit_each(_spec(family, 1, 1.0, 0), batch)


@settings(max_examples=40, deadline=None)
@given(
    batch=batches(),
    family=st.sampled_from(MODEL_FAMILIES),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    data=st.data(),
)
def test_fit_each_rejects_non_finite_input_in_any_problem(batch, family, bad, data):
    # in a stacked boosting fit, 0 * NaN would reach every problem's sums
    i = data.draw(st.integers(0, len(batch) - 1))
    X, y = batch[i]
    row = data.draw(st.integers(0, len(X) - 1))
    if data.draw(st.booleans()):
        X[row, data.draw(st.integers(0, X.shape[1] - 1))] = bad
    else:
        y[row] = bad
    with pytest.raises(NonFiniteInputError):
        fit_each(ModelSpec(family), batch)


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_fit_each_matches_recursive_builder_on_corpus_folds(subsample):
    # corpus-sized folds: nodes of a hundred rows and many equal or
    # complementary columns, where the order of a node's float sums decides
    # near-tied splits
    dataset = generate(GeneratorConfig(mode="table1", n_hateful=120, n_nonhateful=80, seed=5))
    y = np.asarray(dataset.labels(), dtype=float)
    X = design_matrices(dataset, ["arg-str-cw"])["arg-str-cw"]
    score = np.random.default_rng(5).integers(0, 9, len(X)) / 8.0  # a stage-1-like column
    X = np.hstack([X, score[:, None]])
    folds = stratified_kfold(dataset.labels(), 5, seed=5)
    trains = [folds.train_indices(fold) for fold in range(5)]
    spec = ModelSpec("gbt", tree_count=10, subsample=subsample, seed=5)
    for model, train in zip(fit_each(spec, [(X[t], y[t]) for t in trains]), trains):
        assert model_to_dict(model) == tree_oracle.gbt_dict(spec, X[train], y[train])


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_gbt_exact_ties_follow_recursive_builder(subsample):
    # each 0/1 column comes with a copy and with its complement, so every
    # candidate's gain ties exactly with two others; the batched sums cannot
    # break such a tie, and each node must take its own sums, as the
    # recursive builder does
    for seed in range(6):
        rng = np.random.default_rng(seed)
        base = (rng.random((90, 3)) < 0.5).astype(float)
        X = np.stack([base, 1.0 - base, base], axis=2).reshape(len(base), -1)
        y = ((base @ rng.normal(size=3) + rng.normal(size=len(base))) > 0).astype(float)
        y[:2] = 0.0, 1.0
        spec = ModelSpec("gbt", tree_count=10, max_depth=3, subsample=subsample, seed=seed)
        _assert_matches_oracle(spec, X, y, tree_oracle.gbt_dict(spec, X, y))


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_batched_gbt_models_save_and_reload_like_single_fits(subsample, tmp_path):
    # the models of a batch share one build's node arrays, each holding the
    # roots of its own trees; each must save, reload and score exactly as
    # the model fitted on its problem alone
    dataset = generate(GeneratorConfig(mode="table1", n_hateful=60, n_nonhateful=40, seed=7))
    y = np.asarray(dataset.labels(), dtype=float)
    X = design_matrices(dataset, ["arg-str-cw"])["arg-str-cw"]
    folds = stratified_kfold(dataset.labels(), 4, seed=7)
    trains = [folds.train_indices(fold) for fold in range(4)]
    spec = ModelSpec("gbt", tree_count=6, subsample=subsample, seed=7)
    batched, alone = tmp_path / "batched.json", tmp_path / "alone.json"
    for model, train in zip(fit_each(spec, [(X[t], y[t]) for t in trains]), trains):
        assert len(model.trees) == spec.tree_count
        save_model(model, batched)
        save_model(fit(spec, X[train], y[train]), alone)
        assert batched.read_bytes() == alone.read_bytes()
        assert load_model(batched).predict_score(X).tobytes() == model.predict_score(X).tobytes()


def _corpus_design(seed, n_hateful, n_nonhateful):
    """The arg-str-cw-hs design (30 columns) of a generated corpus plus a
    stage-1-like column of values k/8, which takes the sorted search."""
    dataset = generate(GeneratorConfig(
        mode="table1", n_hateful=n_hateful, n_nonhateful=n_nonhateful, seed=seed))
    y = np.asarray(dataset.labels(), dtype=float)
    X = design_matrices(dataset, ["arg-str-cw-hs"])["arg-str-cw-hs"]
    score = np.random.default_rng(seed).integers(0, 9, len(X)) / 8.0
    return dataset, np.hstack([X, score[:, None]]), y


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_forest_matches_recursive_builder_on_corpus_folds(criterion):
    # 31 columns: nodes draw isqrt(c) of up to 31 varying columns, so the
    # draws cover runs of many lengths and offsets and nodes with a single
    # candidate, which draw nothing
    dataset, X, y = _corpus_design(11, 120, 80)
    folds = stratified_kfold(dataset.labels(), 5, seed=11)
    spec = ModelSpec("rforest", tree_count=25, criterion=criterion, seed=11)
    for fold in range(2):
        train = folds.train_indices(fold)
        _assert_matches_oracle(spec, X[train], y[train],
                               tree_oracle.forest_dict(spec, X[train], y[train]))


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_batched_gbt_on_unequal_blocks_matches_single_fits(subsample, tmp_path):
    # problems of 10, 60 and 300 rows: every step's nodes hold padding rows,
    # and the small blocks' stage-1-like column has fewer value groups
    _, X, y = _corpus_design(13, 227, 136)
    hateful, other = np.flatnonzero(y == 1.0), np.flatnonzero(y == 0.0)
    batch = []
    for size, start in ((10, 0), (60, 5), (300, 20)):
        rows = np.concatenate([hateful[start:start + size // 2],
                               other[start:start + size - size // 2]])
        batch.append((X[rows], y[rows]))
    sizes = [len(dedup_rows(Xp, yp)[0]) for Xp, yp in batch]
    assert sizes[0] < sizes[1] < sizes[2]
    spec = ModelSpec("gbt", tree_count=6, subsample=subsample, seed=13)
    batched, alone = tmp_path / "batched.json", tmp_path / "alone.json"
    for model, (Xp, yp) in zip(fit_each(spec, batch), batch):
        single = fit(spec, Xp, yp)
        assert model_to_dict(model) == model_to_dict(single) == tree_oracle.gbt_dict(spec, Xp, yp)
        save_model(model, batched)
        save_model(single, alone)
        assert batched.read_bytes() == alone.read_bytes()
        assert model.predict_score(X).tobytes() == single.predict_score(X).tobytes()


@pytest.mark.parametrize("family", ["rforest", "gbt"])
def test_predict_on_non_finite_rows_matches_recursive_builder(family):
    # NaN fails every <= and goes right at each split, as in the oracle's
    # descent; +inf goes right and -inf left
    _, X, y = _corpus_design(15, 60, 40)
    model = fit(ModelSpec(family, tree_count=25, seed=15), X, y)
    rng = np.random.default_rng(15)
    partly = X[:40].copy()
    partly[rng.random(partly.shape) < 0.3] = np.nan
    signed_inf = np.where(rng.random(X[:40].shape) < 0.5, np.inf, -np.inf)
    rows = np.vstack([
        np.full((3, X.shape[1]), np.nan),
        partly,
        np.full((1, X.shape[1]), np.inf),
        np.full((1, X.shape[1]), -np.inf),
        np.where(rng.random(X[:40].shape) < 0.3, signed_inf, X[:40]),
    ])
    expected = tree_oracle.scores(model_to_dict(model), rows)
    assert model.predict_score(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", ["rforest", "gbt"])
def test_predict_in_row_chunks_matches_recursive_builder(family, monkeypatch):
    # seven distinct rows descended at a time, and five rows at a time
    # checked for 0/1 columns: each chunk's rows get the whole descent's bits
    _, X, y = _corpus_design(16, 60, 40)
    model = fit(ModelSpec(family, tree_count=25, seed=16), X, y)
    rng = np.random.default_rng(16)
    rows = np.vstack([X, (rng.random((40, X.shape[1])) < 0.5).astype(float), X[:30] * 0.5])
    monkeypatch.setattr(tree, "PREDICT_ROWS", 7)
    monkeypatch.setattr(tree, "CHECK_ROWS", 5)
    assert len(distinct_rows(rows)[0]) > 10 * 7
    expected = tree_oracle.scores(model_to_dict(model), rows)
    assert model.predict_score(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("at", range(6))
def test_distinct_rows_checks_every_row_for_0_1_columns(at, monkeypatch):
    # a value that is not 0/1, in whichever block of three rows it lies, keeps
    # its column out of the 0/1 run keys: keyed as a run, (0.5, 1) is (1, 0)
    monkeypatch.setattr(tree, "CHECK_ROWS", 3)
    X = np.tile([1.0, 0.0], (6, 1))
    X[at] = [0.5, 1.0]
    U, inverse = distinct_rows(X)
    expected_U, expected_inverse = tree_oracle.distinct_rows(X)
    assert U.tobytes() == expected_U.tobytes() and len(U) == 2
    assert inverse.tobytes() == expected_inverse.tobytes()
