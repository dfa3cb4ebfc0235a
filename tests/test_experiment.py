import json
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argstruct.experiment as experiment
from argstruct.data import Dataset
from argstruct.encodings import FAMILIES, EncodingSpec, encode_dataset, stage_one_spec
from argstruct.evaluation import ClassTooSmallError, stratified_kfold
from argstruct.experiment import (
    ExperimentConfig,
    UnknownFormatError,
    design_matrices,
    emit_report,
    run_cell,
    run_cell_detailed,
    run_grid,
)
from argstruct.models import ModelSpec, SingleClassError, fit, fit_each, threshold
from argstruct.models.persist import model_to_dict
from argstruct.synth import GeneratorConfig, generate
from messages import make_message

FAST_MODELS = tuple(
    ModelSpec(f, tree_count=15) if f in ("rforest", "gbt") else ModelSpec(f)
    for f in ("lgr", "rforest", "svm", "gbt")
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(GeneratorConfig(mode="table1", n_hateful=40, n_nonhateful=30, seed=1))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(encodings=())
    with pytest.raises(ValueError):
        ExperimentConfig(encodings=("arg-structure",))
    with pytest.raises(ValueError):
        ExperimentConfig(models=())
    with pytest.raises(ValueError):
        ExperimentConfig(k=1)
    with pytest.raises(ValueError):
        ExperimentConfig(jobs=0)


def test_grid_shape_and_order(tiny_dataset):
    cfg = ExperimentConfig(models=FAST_MODELS, k=3, jobs=1)
    report = run_grid(tiny_dataset, cfg)
    assert len(report.rows) == 32
    assert [r.encoding for r in report.rows[:4]] == ["arg-str"] * 4
    assert [r.model for r in report.rows[:4]] == ["lgr", "rforest", "svm", "gbt"]
    assert [r.encoding for r in report.rows][::4] == list(FAMILIES)
    assert all(len(r.fold_metrics) == 3 for r in report.rows)


def test_grid_computes_folds_once(tiny_dataset, monkeypatch):
    calls = []
    original = experiment.stratified_kfold

    def counting(labels, k, seed=0):
        calls.append(1)
        return original(labels, k, seed)

    monkeypatch.setattr(experiment, "stratified_kfold", counting)
    cfg = ExperimentConfig(
        encodings=("arg-str", "arg-str-hs"), models=(ModelSpec("lgr"),), k=3, jobs=1
    )
    run_grid(tiny_dataset, cfg)
    assert len(calls) == 1


def test_grid_deterministic(tiny_dataset):
    cfg = ExperimentConfig(models=FAST_MODELS, k=3, jobs=1)
    first = run_grid(tiny_dataset, cfg)
    second = run_grid(tiny_dataset, cfg)
    assert first == second
    for fmt in ("markdown", "csv", "json"):
        assert emit_report(first, fmt) == emit_report(second, fmt)


def test_grid_independent_of_job_count(tiny_dataset):
    cfg = ExperimentConfig(
        encodings=("arg-str", "arg-str-p", "arg-str-c-given-p", "arg-str-p-cw",
                   "arg-str-c-given-p-cw"),
        models=(ModelSpec("lgr"), ModelSpec("gbt", tree_count=10)),
        k=2,
        jobs=1,
    )
    sequential = run_grid(tiny_dataset, cfg)
    for jobs in (2, 3):
        parallel = run_grid(tiny_dataset, replace(cfg, jobs=jobs))
        assert parallel == sequential
        for fmt in ("markdown", "csv", "json"):
            assert emit_report(parallel, fmt) == emit_report(sequential, fmt)


def _count_fold_fits(monkeypatch):
    """Record the number of problems of every ``fit_each`` call and the cells
    evaluated through ``run_cell``."""
    fits, cells = [], []
    fit_each, run_cell = experiment.fit_each, experiment.run_cell

    def counting_fit_each(spec, problems):
        problems = list(problems)
        fits.append(len(problems))
        return fit_each(spec, problems)

    def counting_run_cell(dataset, enc, *args, **kwargs):
        cells.append(enc.family)
        return run_cell(dataset, enc, *args, **kwargs)

    monkeypatch.setattr(experiment, "fit_each", counting_fit_each)
    monkeypatch.setattr(experiment, "run_cell", counting_run_cell)
    return fits, cells


def test_grid_fits_each_shared_fold_model_once(tiny_dataset, monkeypatch):
    k = 5
    fits, cells = _count_fold_fits(monkeypatch)
    run_grid(tiny_dataset, ExperimentConfig(models=FAST_MODELS, k=k, jobs=1))
    # arg-str's cells copy arg-str-p's: 140, not 10 * k * M = 200
    assert sum(fits) == 7 * len(FAST_MODELS) * k
    assert len(cells) == 7 * len(FAST_MODELS)


def test_inner_cv_adds_k_squared_fits_per_two_stage_cell(tiny_dataset, monkeypatch):
    k, specs = 3, (ModelSpec("lgr"), ModelSpec("gbt", tree_count=5))
    fits, _ = _count_fold_fits(monkeypatch)
    cfg = ExperimentConfig(models=specs, k=k, jobs=1)
    run_grid(tiny_dataset, cfg)
    plain = sum(fits)
    fits.clear()
    run_grid(tiny_dataset, replace(cfg, inner_cv=True))
    assert plain == 7 * len(specs) * k  # arg-str's cells copy arg-str-p's
    assert sum(fits) - plain == 2 * len(specs) * k * k


def _grid_outcomes(dataset, cfg, monkeypatch):
    """Run a serial grid and keep every cell's fold outcomes, in grid order."""
    recorded = []
    detailed = experiment.run_cell_detailed

    def recording(dataset, enc, model_spec, *args, **kwargs):
        outcomes = detailed(dataset, enc, model_spec, *args, **kwargs)
        recorded.append((enc, model_spec, outcomes))
        return outcomes

    monkeypatch.setattr(experiment, "run_cell_detailed", recording)
    run_grid(dataset, replace(cfg, jobs=1))
    return recorded


@pytest.mark.parametrize(
    "encodings, models, inner_cv, hard_stage1",
    [
        # two-stage cells with no premise-only counterpart to share with
        (("arg-str-c-given-p", "arg-str-c-given-p-cw"), FAST_MODELS, False, False),
        # one family under two hyperparameter settings
        (
            ("arg-str-p", "arg-str-c-given-p", "arg-str-p-cw", "arg-str-c-given-p-cw"),
            (ModelSpec("lgr", learning_rate=0.1), ModelSpec("lgr", learning_rate=0.05),
             ModelSpec("gbt", tree_count=8, subsample=0.6, seed=1),
             ModelSpec("gbt", tree_count=8, subsample=0.6, seed=2)),
            False,
            False,
        ),
        (("arg-str-p", "arg-str-c-given-p", "arg-str-p-cw", "arg-str-c-given-p-cw"),
         FAST_MODELS, True, False),
        (("arg-str-p", "arg-str-c-given-p", "arg-str-p-cw", "arg-str-c-given-p-cw"),
         FAST_MODELS, True, True),
    ],
)
def test_shared_fits_match_standalone_cells(
    tiny_dataset, monkeypatch, encodings, models, inner_cv, hard_stage1
):
    cfg = ExperimentConfig(
        encodings=encodings, models=models, k=3, seed=4, inner_cv=inner_cv,
        hard_stage1=hard_stage1,
    )
    recorded = _grid_outcomes(tiny_dataset, cfg, monkeypatch)
    assert len(recorded) == len(encodings) * len(models)
    folds = stratified_kfold(tiny_dataset.labels(), 3, seed=4)
    for enc, spec, outcomes in recorded:
        alone = run_cell_detailed(
            tiny_dataset, enc, spec, folds, inner_cv=inner_cv, hard_stage1=hard_stage1, seed=4
        )
        assert len(outcomes) == len(alone)
        for shared, own in zip(outcomes, alone):
            assert shared.scores.tobytes() == own.scores.tobytes()


@pytest.mark.parametrize("inner_cv", [False, True])
def test_shared_cells_match_standalone_cells(tiny_dataset, monkeypatch, inner_cv):
    # arg-str is arg-str-p plus the conclusion bit, which every message sets:
    # its cells copy arg-str-p's, and each must carry the fold metrics it gets
    # when it runs alone
    cfg = ExperimentConfig(models=FAST_MODELS, k=3, seed=4, inner_cv=inner_cv, jobs=1)
    _, cells = _count_fold_fits(monkeypatch)
    report = run_grid(tiny_dataset, cfg)
    monkeypatch.undo()
    assert cells.count("arg-str") == 0
    folds = stratified_kfold(tiny_dataset.labels(), 3, seed=4)
    shared = [row for row in report.rows if row.encoding == "arg-str"]
    assert len(shared) == len(FAST_MODELS)
    for row, spec in zip(shared, FAST_MODELS):
        enc = EncodingSpec("arg-str", tiny_dataset.premise_capacity)
        alone = run_cell(tiny_dataset, enc, spec, folds, inner_cv=inner_cv, seed=4)
        assert row.model == spec.family
        assert list(row.fold_metrics) == alone


def test_grid_tasks_pair_each_two_stage_cell_with_its_premise_cell(tiny_dataset):
    cfg = ExperimentConfig(models=FAST_MODELS, k=3)
    cells = experiment._ordered_cells(cfg)
    capacity = tiny_dataset.premise_capacity
    shared = experiment._shared_families(
        design_matrices(tiny_dataset, cfg.encodings), cfg.encodings, capacity
    )
    assert {f: s for f, s in shared.items() if f != s} == {"arg-str": "arg-str-p"}
    tasks = experiment._tasks(cells, capacity, shared)
    assert len(tasks) == 20
    assert sorted(i for task in tasks for i in task) == [
        i for i, (family, _) in enumerate(cells) if family != "arg-str"
    ]
    pairs = [[cells[i] for i in task] for task in tasks[:8]]
    for pair in pairs:
        (premise, spec), (two_stage, other) = pair
        assert spec == other
        assert (premise, two_stage) in (
            ("arg-str-p", "arg-str-c-given-p"), ("arg-str-p-cw", "arg-str-c-given-p-cw")
        )
    assert all(len(task) == 1 for task in tasks[8:])


def test_shared_stage1_models_are_released_at_last_use(tiny_dataset, monkeypatch):
    """The premise-only cell leaves its k fold models in the task's dict; its
    two-stage cell takes them, and once it returns nothing holds them."""
    k, held, refs = 3, [], []
    run_cell = experiment.run_cell

    def recording(dataset, enc, *args):
        metrics = run_cell(dataset, enc, *args)
        stage1 = args[-1]
        released = all(ref() is None for ref in refs) if enc.two_stage else None
        refs[:] = [weakref.ref(m) for fits in stage1.values() if fits for m in fits]
        held.append((enc.family, sorted(stage1), len(refs), released))
        return metrics

    monkeypatch.setattr(experiment, "run_cell", recording)
    cfg = ExperimentConfig(
        encodings=("arg-str", "arg-str-p", "arg-str-c-given-p"),
        models=(ModelSpec("lgr"), ModelSpec("gbt", tree_count=5)), k=k, jobs=1,
    )
    run_grid(tiny_dataset, cfg)
    assert held == [
        ("arg-str-p", ["arg-str-p"], k, None),
        ("arg-str-c-given-p", [], 0, True),
        ("arg-str-p", ["arg-str-p"], k, None),
        ("arg-str-c-given-p", [], 0, True),
    ]


class _NoPool:
    """Stands in for ProcessPoolExecutor; fails the way ``failure`` names."""

    failure = "create"

    def __init__(self, max_workers, initializer, initargs):
        if self.failure == "create":
            raise OSError(11, "Resource temporarily unavailable")
        initializer(*initargs)

    def submit(self, fn, *args):
        if self.failure == "submit":
            raise OSError(12, "Cannot allocate memory")
        future = Future()
        if self.failure == "broken":
            future.set_exception(BrokenProcessPool("a worker died"))
            return future
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - handed to the caller as a pool would
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("failure", ["create", "submit", "broken"])
def test_grid_falls_back_to_serial_when_pool_cannot_start(
    tiny_dataset, monkeypatch, capsys, failure
):
    cfg = ExperimentConfig(
        encodings=("arg-str", "arg-str-p", "arg-str-c-given-p"),
        models=(ModelSpec("lgr"), ModelSpec("gbt", tree_count=5)),
        k=2,
        jobs=1,
    )
    serial = run_grid(tiny_dataset, cfg)
    capsys.readouterr()
    monkeypatch.setattr(_NoPool, "failure", failure)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _NoPool)
    fallback = run_grid(tiny_dataset, replace(cfg, jobs=2))
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "running the grid serially" in err
    for fmt in ("markdown", "csv", "json"):
        assert emit_report(fallback, fmt) == emit_report(serial, fmt)


def test_default_jobs_count_only_the_cpus_the_process_may_run_on(tiny_dataset, monkeypatch):
    # four CPUs in the machine, one of them this process's: no pool starts
    def no_pool(*args, **kwargs):
        pytest.fail("a process pool started for a process that may run on one CPU")

    # two tasks, which a process that may run on two CPUs would send to a pool
    cfg = ExperimentConfig(encodings=("arg-str", "arg-str-hs"), models=(ModelSpec("lgr"),), k=2,
                           jobs=1)
    serial = run_grid(tiny_dataset, cfg)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
    default = run_grid(tiny_dataset, replace(cfg, jobs=None))
    for fmt in ("markdown", "csv", "json"):
        assert emit_report(default, fmt) == emit_report(serial, fmt)


def test_cell_error_in_pool_propagates_unchanged(tiny_dataset, monkeypatch, capsys):
    def single_class(spec, problems):
        raise SingleClassError("training labels contain a single class")

    pools = []

    class CountedPool(_NoPool):
        failure = None

        def __init__(self, **kwargs):
            pools.append(self)
            super().__init__(**kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(experiment, "fit_each", single_class)
    # two tasks, so the grid goes to the pool
    cfg = ExperimentConfig(encodings=("arg-str", "arg-str-hs"), models=(ModelSpec("lgr"),), k=2,
                           jobs=2)
    with pytest.raises(SingleClassError):
        run_grid(tiny_dataset, cfg)
    assert len(pools) == 1
    assert capsys.readouterr().err == ""


def test_single_class_dataset_fails_at_split():
    messages = tuple(make_message(f"h{i}", 2) for i in range(10))
    with pytest.raises(ClassTooSmallError):
        run_grid(Dataset.from_messages(messages), ExperimentConfig(models=(ModelSpec("lgr"),)))


def test_separable_learning_quick(separable_dataset):
    folds = stratified_kfold(separable_dataset.labels(), 5, seed=0)
    enc = EncodingSpec("arg-str-hs", separable_dataset.premise_capacity)
    for spec in (ModelSpec("lgr"), ModelSpec("rforest", tree_count=25)):
        metrics = run_cell(separable_dataset, enc, spec, folds)
        assert all(m.f1 >= 0.95 for m in metrics)


def _recorded_fits(monkeypatch) -> list:
    """Each later ``fit_each`` call of the experiment module, as its list of models."""
    calls = []

    def recording(spec, problems):
        calls.append(fit_each(spec, problems))
        return calls[-1]

    monkeypatch.setattr(experiment, "fit_each", recording)
    return calls


def test_two_stage_never_trains_stage1_on_test_rows(tiny_dataset, monkeypatch):
    """Flipping the labels of one fold's test messages leaves that fold's
    stage-1 models unchanged, in-sample and under inner CV; another fold's
    stage-1 model, which trains on those messages, changes."""
    folds = stratified_kfold(tiny_dataset.labels(), 4, seed=0)
    enc = EncodingSpec("arg-str-c-given-p", tiny_dataset.premise_capacity)
    fold, other = 1, 2
    label = tiny_dataset.label.copy()
    label[folds.test_indices(fold)] ^= 1
    flipped = replace(tiny_dataset, label=label)
    for inner_cv in (False, True):
        stage1 = []
        for dataset in (tiny_dataset, flipped):
            calls = _recorded_fits(monkeypatch)
            run_cell_detailed(dataset, enc, ModelSpec("lgr"), folds, inner_cv=inner_cv)
            # the first call fits stage 1, one problem per fold; under inner CV
            # the next k calls fit each fold's inner models
            models = [calls[0][fold], *(calls[1 + fold] if inner_cv else ()), calls[0][other]]
            stage1.append([json.dumps(model_to_dict(m)) for m in models])
        assert stage1[0][:-1] == stage1[1][:-1]
        assert stage1[0][-1] != stage1[1][-1]


def _per_fold_reference(dataset, enc, spec, folds, inner_cv, hard_stage1, seed):
    """The held-out scores of each fold, fitted one model at a time with ``fit``."""
    y = np.asarray(dataset.labels(), dtype=float)
    X1 = design_matrices(dataset, [enc.family])[stage_one_spec(enc).family]
    expected = []
    for fold in range(folds.k):
        train, test = folds.train_indices(fold), folds.test_indices(fold)
        stage1 = fit(spec, X1[train], y[train])
        if inner_cv:
            train_scores = np.empty(len(train))
            inner = stratified_kfold(y[train], folds.k, seed=experiment._inner_seed(seed, fold))
            for i in range(folds.k):
                rows, held = train[inner.train_indices(i)], inner.test_indices(i)
                inner_model = fit(spec, X1[rows], y[rows])
                train_scores[held] = inner_model.predict_score(X1[train[held]])
        else:
            train_scores = stage1.predict_score(X1[train])
        test_scores = stage1.predict_score(X1[test])
        if hard_stage1:
            train_scores = threshold(train_scores).astype(float)
            test_scores = threshold(test_scores).astype(float)
        all_scores = np.zeros(len(dataset))
        all_scores[train], all_scores[test] = train_scores, test_scores
        X = encode_dataset(dataset, enc, stage1_scores=all_scores)
        expected.append(fit(spec, X[train], y[train]).predict_score(X[test]))
    return expected


@pytest.mark.parametrize("inner_cv", [False, True])
@pytest.mark.parametrize("hard_stage1", [False, True])
def test_two_stage_cell_matches_fold_by_fold_fits(tiny_dataset, inner_cv, hard_stage1):
    folds = stratified_kfold(tiny_dataset.labels(), 3, seed=2)
    enc = EncodingSpec("arg-str-c-given-p-cw", tiny_dataset.premise_capacity)
    for spec in (ModelSpec("gbt", tree_count=10, subsample=0.6, seed=3), ModelSpec("lgr")):
        outcomes = run_cell_detailed(
            tiny_dataset, enc, spec, folds, inner_cv=inner_cv, hard_stage1=hard_stage1, seed=2
        )
        expected = _per_fold_reference(tiny_dataset, enc, spec, folds, inner_cv, hard_stage1, 2)
        assert len(outcomes) == len(expected)
        for outcome, scores in zip(outcomes, expected):
            assert outcome.scores.tobytes() == scores.tobytes()


def test_two_stage_cw_uses_conclusion_block(tiny_dataset):
    folds = stratified_kfold(tiny_dataset.labels(), 3, seed=0)
    enc = EncodingSpec("arg-str-c-given-p-cw", tiny_dataset.premise_capacity)
    metrics = run_cell(tiny_dataset, enc, ModelSpec("gbt", tree_count=10), folds)
    assert len(metrics) == 3


def test_hard_stage1_runs_and_is_deterministic(tiny_dataset):
    folds = stratified_kfold(tiny_dataset.labels(), 3, seed=0)
    enc = EncodingSpec("arg-str-c-given-p", tiny_dataset.premise_capacity)
    a = run_cell(tiny_dataset, enc, ModelSpec("lgr"), folds, hard_stage1=True)
    b = run_cell(tiny_dataset, enc, ModelSpec("lgr"), folds, hard_stage1=True)
    assert a == b


def test_structure_equivalence_single_seed(tiny_dataset):
    folds = stratified_kfold(tiny_dataset.labels(), 5, seed=0)
    matrices = design_matrices(tiny_dataset, FAMILIES)
    L = tiny_dataset.premise_capacity
    for spec in (ModelSpec("lgr"), ModelSpec("rforest", tree_count=25), ModelSpec("gbt", tree_count=25)):
        full = run_cell_detailed(
            tiny_dataset, EncodingSpec("arg-str", L), spec, folds, matrices=matrices
        )
        premise_only = run_cell_detailed(
            tiny_dataset, EncodingSpec("arg-str-p", L), spec, folds, matrices=matrices
        )
        for a, b in zip(full, premise_only):
            assert np.array_equal(a.predictions, b.predictions)
            assert a.metrics == b.metrics


def test_sample_std_flag_changes_aggregates(tiny_dataset):
    cfg = dict(encodings=("arg-str",), models=(ModelSpec("lgr"),), k=4, jobs=1)
    population = run_grid(tiny_dataset, ExperimentConfig(**cfg))
    sample = run_grid(tiny_dataset, ExperimentConfig(sample_std=True, **cfg))
    pop_std = population.rows[0].aggregates.f1.std
    sam_std = sample.rows[0].aggregates.f1.std
    assert sam_std == pytest.approx(pop_std * (4 / 3) ** 0.5)


def test_markdown_report_shape(tiny_dataset):
    cfg = ExperimentConfig(encodings=("arg-str",), models=(ModelSpec("lgr"),), k=2, jobs=1)
    text = emit_report(run_grid(tiny_dataset, cfg), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| Encoding | Model | Precision | Recall | Macro F1 |"
    assert lines[1] == "|---|---|---|---|---|"
    assert len(lines) == 3
    assert "±" in lines[2]


def test_csv_report_line_count(tiny_dataset):
    cfg = ExperimentConfig(models=FAST_MODELS, k=2, jobs=1)
    text = emit_report(run_grid(tiny_dataset, cfg), "csv")
    assert len(text.splitlines()) == 33


def test_json_report_round_trips(tiny_dataset):
    cfg = ExperimentConfig(encodings=("arg-str",), models=(ModelSpec("lgr"),), k=3, jobs=1)
    report = run_grid(tiny_dataset, cfg)
    payload = json.loads(emit_report(report, "json"))
    assert payload["k"] == 3
    row = payload["rows"][0]
    assert row["encoding"] == "arg-str"
    assert len(row["folds"]) == 3
    assert row["macro_f1"]["mean"] == pytest.approx(
        report.rows[0].aggregates.f1.mean, abs=0
    )


def test_unknown_format_rejected(tiny_dataset):
    cfg = ExperimentConfig(encodings=("arg-str",), models=(ModelSpec("lgr"),), k=2, jobs=1)
    report = run_grid(tiny_dataset, cfg)
    with pytest.raises(UnknownFormatError):
        emit_report(report, "xml")


class _RowIdModel:
    """A stage-1 model over row ids (column 0): it records the rows it is
    fitted on and the rows it scores, and scores 1.0 exactly the rows it was
    fitted on."""

    def __init__(self, X):
        self.fitted_on = set(X[:, 0].tolist())
        self.scored = []

    def predict_score(self, X):
        rows = X[:, 0].tolist()
        self.scored += rows
        return np.array([float(row in self.fitted_on) for row in rows])


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 5),
    seed=st.integers(0, 10 ** 6),
    extra=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    inner_cv=st.booleans(),
    hard_stage1=st.booleans(),
)
def test_inner_cv_never_scores_a_row_with_a_model_fitted_on_it(
    k, seed, extra, inner_cv, hard_stage1
):
    """With inner CV, no stage-2 training row's stage-1 score comes from a
    model fitted on that row, and each is scored once per fold; the
    in-sample default scores every one of them with such a model."""
    n_hateful, n_nonhateful = (k * k + 1 + e for e in extra)
    dataset = generate(GeneratorConfig(mode="table1", n_hateful=n_hateful,
                                       n_nonhateful=n_nonhateful, seed=seed))
    X1 = np.arange(len(dataset), dtype=float)[:, None]
    y = np.asarray(dataset.labels(), dtype=float)
    folds = stratified_kfold(dataset.labels(), k, seed)
    calls = []

    def fit_each(spec, problems):
        calls.append([_RowIdModel(X) for X, _ in problems])
        return calls[-1]

    enc = EncodingSpec("arg-str-c-given-p", dataset.premise_capacity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "fit_each", fit_each)
        designs = experiment._stage2_designs(
            dataset, enc, ModelSpec("lgr"), X1, y, folds, inner_cv, hard_stage1, seed, None
        )
    assert len(calls) == 1 + k * inner_cv
    for fold, design in enumerate(designs):
        train, test = folds.train_indices(fold), folds.test_indices(fold)
        assert not design[test, 0].any()
        assert (design[train, 0] == (not inner_cv)).all()
        if inner_cv:
            inner = calls[1 + fold]
            assert sorted(row for m in inner for row in m.scored) == sorted(train.tolist())
    for model in (m for batch in calls[1:] for m in batch):
        assert model.fitted_on.isdisjoint(model.scored)
