import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.models import (
    DimensionMismatchError,
    EmptyTrainingSetError,
    ModelSpec,
    SingleClassError,
    fit,
    predict,
    predict_score,
)
from argstruct.models.boosting import GradientBoostedModel
from argstruct.models.forest import RandomForestModel
from argstruct.models.linear import LinearModel
from argstruct.models.persist import load_model, model_from_dict, model_to_dict, save_model

FAMILIES = ("lgr", "svm", "rforest", "gbt")


def _random_binary_problem(seed, n=80, d=6):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.5).astype(float)
    w = rng.normal(size=d)
    y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(float)
    if y.min() == y.max():  # force both classes
        y[0] = 1.0 - y[0]
    return X, y


def test_spec_defaults_per_family():
    assert ModelSpec("lgr").learning_rate == 0.1
    assert ModelSpec("lgr").regularization == 0.0
    assert ModelSpec("svm").regularization == 1e-3
    assert ModelSpec("svm").loss == "hinge"
    assert ModelSpec("rforest").tree_count == 100
    assert ModelSpec("rforest").max_depth == 8
    assert ModelSpec("gbt").max_depth == 3
    assert ModelSpec("gbt").learning_rate == 0.1
    assert ModelSpec("gbt").subsample == 1.0
    for family in FAMILIES:
        assert ModelSpec(family).max_iter == 1000
        assert ModelSpec(family).seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="nope"),
        dict(family="lgr", max_iter=0),
        dict(family="lgr", learning_rate=0.0),
        dict(family="lgr", regularization=-1.0),
        dict(family="rforest", tree_count=0),
        dict(family="rforest", max_depth=0),
        dict(family="gbt", subsample=0.0),
        dict(family="gbt", subsample=1.5),
        dict(family="lgr", seed=-1),
        dict(family="svm", loss="l1"),
        dict(family="rforest", criterion="mse"),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ModelSpec(**kwargs)


def test_lgr_on_separable_pair():
    model = fit(ModelSpec("lgr"), [[0.0], [1.0]], [0, 1])
    assert predict(model, [1.0]) == 1
    assert predict(model, [0.0]) == 0


def test_lgr_intercept_only_matches_class_rate():
    # constant design: the fitted score is the closed-form MLE, the class rate
    model = fit(ModelSpec("lgr"), [[1.0]] * 4, [1, 1, 1, 0])
    assert predict_score(model, [1.0]) == pytest.approx(0.75, abs=1e-3)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_is_bitwise_deterministic(family):
    X, y = _random_binary_problem(3)
    first = fit(ModelSpec(family), X, y)
    second = fit(ModelSpec(family), X, y)
    assert model_to_dict(first) == model_to_dict(second)


def test_predict_threshold_and_ties():
    model = LinearModel(family="lgr", weights=np.zeros(2), bias=0.0)
    assert predict_score(model, [5.0, -3.0]) == 0.5
    assert predict(model, [5.0, -3.0]) == 1  # boundary maps to positive
    up = LinearModel(family="lgr", weights=np.array([1.0, 0.0]), bias=0.0)
    assert predict(up, [2.0, 0.0]) == 1
    assert predict(up, [-2.0, 0.0]) == 0


def _tree_model(family, n_features, **params):
    return model_from_dict(
        {"format": "argstruct-model", "version": 1, "family": family,
         "n_features": n_features, "params": params}
    )


def test_forest_unanimous_vote_scores_one():
    model = _tree_model("rforest", 3, trees=[{"v": 1.0}] * 5)
    assert isinstance(model, RandomForestModel)
    assert predict_score(model, [0.0, 1.0, 0.0]) == 1.0


def test_gbt_zero_trees_zero_base_scores_half():
    model = _tree_model("gbt", 2, base_score=0.0, shrinkage=0.1, trees=[])
    assert isinstance(model, GradientBoostedModel)
    assert predict_score(model, [1.0, 0.0]) == 0.5


def test_fit_rejects_empty_and_tiny():
    with pytest.raises(EmptyTrainingSetError):
        fit(ModelSpec("lgr"), np.zeros((0, 2)), [])
    with pytest.raises(EmptyTrainingSetError):
        fit(ModelSpec("lgr"), [[1.0, 0.0]], [1])


def test_fit_rejects_single_class():
    with pytest.raises(SingleClassError):
        fit(ModelSpec("lgr"), [[0.0], [1.0]], [1, 1])


def test_fit_rejects_ragged_rows():
    with pytest.raises(DimensionMismatchError):
        fit(ModelSpec("lgr"), [[0.0], [1.0, 2.0]], [0, 1])


def test_fit_rejects_label_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        fit(ModelSpec("lgr"), [[0.0], [1.0]], [0, 1, 1])


def test_predict_rejects_wrong_width():
    X, y = _random_binary_problem(0)
    model = fit(ModelSpec("lgr"), X, y)
    with pytest.raises(DimensionMismatchError):
        predict_score(model, [1.0, 2.0])


@pytest.mark.parametrize("family", ("rforest", "gbt"))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_tree_models_ignore_appended_constant_column(family, seed):
    X, y = _random_binary_problem(seed)
    augmented = np.hstack([X, np.full((len(X), 1), 1.0)])
    spec = ModelSpec(family, tree_count=25)
    base_scores = predict_score(fit(spec, X, y), X)
    aug_scores = predict_score(fit(spec, augmented, y), augmented)
    assert np.array_equal(base_scores, aug_scores)


@pytest.mark.parametrize("family", ("rforest", "gbt"))
@pytest.mark.parametrize("seed", (0, 4))
def test_binary_fast_path_matches_generic_split_search(family, seed):
    # a constant 2.0 column is not 0/1, so it takes the sorted split search;
    # it is never a split candidate, so the grown trees must match the 0/1-only ones
    X, y = _random_binary_problem(seed)
    augmented = np.hstack([X, np.full((len(X), 1), 2.0)])
    spec = ModelSpec(family, tree_count=25)
    base_scores = predict_score(fit(spec, X, y), X)
    aug_scores = predict_score(fit(spec, augmented, y), augmented)
    assert np.array_equal(base_scores, aug_scores)


@pytest.mark.parametrize("family", ("lgr", "svm"))
def test_linear_models_absorb_constant_columns(family):
    X, y = _random_binary_problem(5)
    augmented = np.hstack([X, np.full((len(X), 1), 1.0)])
    base = fit(ModelSpec(family), X, y)
    aug = fit(ModelSpec(family), augmented, y)
    assert aug.weights[-1] == 0.0
    assert np.array_equal(
        predict_score(base, X), predict_score(aug, augmented)
    )


def test_lgr_score_monotone_in_margin():
    X, y = _random_binary_problem(7)
    model = fit(ModelSpec("lgr"), X, y)
    margins = X @ model.weights + model.bias
    scores = predict_score(model, X)
    order = np.argsort(margins)
    assert np.all(np.diff(scores[order]) >= 0)


def test_lgr_fits_separable_data_perfectly():
    rng = np.random.default_rng(11)
    X = (rng.random((60, 4)) < 0.5).astype(float)
    y = (X[:, 0] > 0.5).astype(float)
    model = fit(ModelSpec("lgr", max_iter=5000), X, y)
    assert np.array_equal(predict(model, X), y.astype(int))


def test_svm_log_loss_option_trains():
    X, y = _random_binary_problem(9)
    model = fit(ModelSpec("svm", loss="log"), X, y)
    accuracy = (predict(model, X) == y).mean()
    assert accuracy > 0.6


def test_rforest_entropy_criterion_trains():
    X, y = _random_binary_problem(10)
    spec = ModelSpec("rforest", criterion="entropy", tree_count=20)
    model = fit(spec, X, y)
    assert (predict(model, X) == y).mean() > 0.7


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_scores_stay_in_unit_interval(seed):
    X, y = _random_binary_problem(seed, n=40, d=4)
    for family in FAMILIES:
        spec = ModelSpec(family, tree_count=10)
        scores = predict_score(fit(spec, X, y), X)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_persistence_round_trip(family, tmp_path):
    X, y = _random_binary_problem(4)
    model = fit(ModelSpec(family, tree_count=10), X, y)
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    assert model_to_dict(restored) == model_to_dict(model)
    assert np.array_equal(predict_score(restored, X), predict_score(model, X))
