import json

import numpy as np
import pytest

import argstruct.experiment as experiment
from argstruct.data import Dataset
from argstruct.encodings import FAMILIES, EncodingSpec
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
from argstruct.models import ModelSpec
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
    cfg_base = dict(
        encodings=("arg-str", "arg-str-c-given-p"),
        models=(ModelSpec("lgr"), ModelSpec("gbt", tree_count=10)),
        k=2,
    )
    sequential = run_grid(tiny_dataset, ExperimentConfig(jobs=1, **cfg_base))
    parallel = run_grid(tiny_dataset, ExperimentConfig(jobs=2, **cfg_base))
    assert sequential == parallel


def test_single_class_dataset_fails_at_split():
    messages = tuple(make_message(f"h{i}", 2) for i in range(10))
    with pytest.raises(ClassTooSmallError):
        run_grid(Dataset(messages), ExperimentConfig(models=(ModelSpec("lgr"),)))


def test_separable_learning_quick(separable_dataset):
    folds = stratified_kfold(separable_dataset.labels(), 5, seed=0)
    enc = EncodingSpec("arg-str-hs", separable_dataset.premise_capacity)
    for spec in (ModelSpec("lgr"), ModelSpec("rforest", tree_count=25)):
        metrics = run_cell(separable_dataset, enc, spec, folds)
        assert all(m.f1 >= 0.95 for m in metrics)


def test_two_stage_never_trains_stage1_on_test_rows(tiny_dataset):
    folds = stratified_kfold(tiny_dataset.labels(), 4, seed=0)
    enc = EncodingSpec("arg-str-c-given-p", tiny_dataset.premise_capacity)
    for inner_cv in (False, True):
        outcomes = run_cell_detailed(
            tiny_dataset, enc, ModelSpec("lgr"), folds, inner_cv=inner_cv
        )
        for o in outcomes:
            assert o.stage1_train_indices is not None
            overlap = set(o.stage1_train_indices) & set(o.test_indices)
            assert not overlap


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
