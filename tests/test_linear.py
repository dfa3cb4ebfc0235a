"""Differential tests: the lockstep linear descent against the one-problem loop.

``fit_linear`` descends a batch of problems together, sharing every
elementwise step; each model must still carry the weight and bias bits that
the original loop in ``linear_oracle`` gives its problem alone, and
``sigmoid`` must give the original two-branch form's bits.
"""

import numpy as np
import pytest

import linear_oracle
from argstruct.evaluation import stratified_kfold
from argstruct.experiment import design_matrices
from argstruct.models import ModelSpec, fit_each
from argstruct.models.linear import sigmoid
from argstruct.synth import CORPUS_SIZES, GeneratorConfig, generate


def _bits(models):
    """Each model's weight and bias bytes (model_to_dict would equate 0.0 and -0.0)."""
    return [(model.weights.tobytes(), np.float64(model.bias).tobytes()) for model in models]


def _oracle_bits(spec, batch):
    return _bits([linear_oracle.fit(spec, X, y) for X, y in batch])


def test_sigmoid_bits_match_two_branch_form():
    tiny = np.nextafter(0.0, 1.0)
    z = np.array([
        0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, -2.2250738585072014e-308 / 3,
        709.0, -709.0, 709.78, -709.78, 745.0, -745.0, 745.2, -745.2, 800.0, -800.0,
        1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, np.inf, -np.inf,
    ])
    z = np.concatenate([z, np.linspace(-50.0, 50.0, 1001)])
    assert sigmoid(z).tobytes() == linear_oracle.sigmoid(z).tobytes()
    # each value alone, and in reverse order, lands on the same bits
    for value in z[:24]:
        assert sigmoid(np.array([value])).tobytes() == linear_oracle.sigmoid(np.array([value])).tobytes()
    assert sigmoid(z[::-1]).tobytes() == linear_oracle.sigmoid(z[::-1]).tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("lgr", regularization=0.01, max_iter=300),
        ModelSpec("svm", max_iter=300),
        ModelSpec("svm", regularization=0.0, max_iter=300),
        ModelSpec("svm", loss="log", learning_rate=5.0, max_iter=300),
    ],
)
def test_batch_with_a_width_zero_problem(spec):
    # after absorbing constant columns, the problems keep 0, 1, 3 and 2 columns
    rng = np.random.default_rng(3)
    batch = []
    for n, varying in [(9, []), (12, [1]), (15, [0, 1, 3]), (11, [2, 3])]:
        X = np.ones((n, 4))
        X[:, varying] = rng.integers(0, 3, (n, len(varying))) / 2.0
        y = rng.integers(0, 2, n).astype(float)
        y[:2] = 0.0, 1.0
        batch.append((X, y))
    assert [int((X != X[0]).any(axis=0).sum()) for X, _ in batch] == [0, 1, 3, 2]
    models = fit_each(spec, batch)
    assert not models[0].weights.any()
    assert _bits(models) == _oracle_bits(spec, batch)


@pytest.mark.parametrize("family", ["lgr", "svm"])
def test_batch_of_width_zero_problems_only(family):
    # every column constant in every problem: the stop test sums no column
    rng = np.random.default_rng(4)
    batch = []
    for n in (9, 12):
        y = rng.integers(0, 2, n).astype(float)
        y[:2] = 0.0, 1.0
        batch.append((np.ones((n, 3)), y))
    spec = ModelSpec(family, loss="log" if family == "svm" else None, learning_rate=5.0,
                     max_iter=300)
    assert _bits(fit_each(spec, batch)) == _oracle_bits(spec, batch)


@pytest.fixture(scope="module")
def corpus_folds():
    n_hateful, n_nonhateful = CORPUS_SIZES
    dataset = generate(GeneratorConfig(
        mode="table1", n_hateful=n_hateful, n_nonhateful=n_nonhateful, seed=501))
    y = np.asarray(dataset.labels(), dtype=float)
    folds = stratified_kfold(dataset.labels(), 5, seed=501)
    matrices = design_matrices(dataset, ["arg-str-p", "arg-str"])
    return matrices, y, [folds.train_indices(fold) for fold in range(5)]


@pytest.mark.parametrize("encoding", ["arg-str-p", "arg-str"])
@pytest.mark.parametrize(
    "family, options, cut",
    [
        # the folds reach GRAD_TOL after 524-542 steps
        ("lgr", {"regularization": 0.003}, 535),
        # and these after 1370-1420 steps
        ("svm", {"loss": "log"}, 1400),
    ],
)
def test_corpus_folds_freeze_at_their_own_iteration(corpus_folds, encoding, family, options, cut):
    matrices, y, trains = corpus_folds
    batch = [(matrices[encoding][t], y[t]) for t in trains]
    spec = ModelSpec(family, learning_rate=5.0, max_iter=3000, **options)
    full = _bits(fit_each(spec, batch))
    assert full == _oracle_bits(spec, batch)
    # cut off mid-way, some folds have already stopped and the rest have not
    stopped = [a == b for a, b in zip(full, _bits(fit_each(
        ModelSpec(family, learning_rate=5.0, max_iter=cut, **options), batch)))]
    assert any(stopped) and not all(stopped)
