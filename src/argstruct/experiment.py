"""Encoding x model x fold experiment runner and report rendering.

A single stratified fold assignment is computed per (k, seed) and shared by
every grid cell so the encodings and models are compared on identical splits.
Two-stage cells train a premise-only model of the same family inside each
fold's training split; its in-sample predictions feed the stage-2 training
rows and its predictions on held-out premises feed the test rows, so the
test fold never leaks into stage-1 training.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .encodings import FAMILIES, EncodingSpec, encode_dataset, stage_one_spec
from .evaluation import (
    AggregateMetrics,
    FoldAssignment,
    MetricSet,
    aggregate,
    confusion,
    macro_metrics,
    stratified_kfold,
)
from .models import ModelSpec, fit, threshold

MODEL_ORDER = ("lgr", "rforest", "svm", "gbt")
ENCODING_ORDER = FAMILIES

REPORT_FORMATS = ("markdown", "csv", "json")


class UnknownFormatError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    encodings: tuple[str, ...] = ENCODING_ORDER
    models: tuple[ModelSpec, ...] = tuple(ModelSpec(f) for f in MODEL_ORDER)
    k: int = 5
    seed: int = 0
    inner_cv: bool = False
    hard_stage1: bool = False
    sample_std: bool = False
    jobs: int | None = None
    dataset: str | None = None

    def __post_init__(self):
        if not self.encodings:
            raise ValueError("need at least one encoding")
        unknown = [e for e in self.encodings if e not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown encodings {unknown}; valid: {list(FAMILIES)}")
        if not self.models:
            raise ValueError("need at least one model")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class FoldOutcome:
    """Per-fold evaluation record, kept for leakage and equivalence checks."""

    fold: int
    test_indices: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    metrics: MetricSet
    stage1_train_indices: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class CellResult:
    encoding: str
    model: str
    fold_metrics: tuple[MetricSet, ...]
    aggregates: AggregateMetrics


@dataclass(frozen=True)
class ExperimentReport:
    k: int
    seed: int
    rows: tuple[CellResult, ...]


def design_matrices(dataset: Dataset, encodings) -> dict[str, np.ndarray]:
    """Precompute the static design matrices (and stage-1 inputs) once."""
    L = dataset.premise_capacity
    needed: set[str] = set()
    for family in encodings:
        spec = EncodingSpec(family, L)
        if spec.two_stage:
            needed.add(stage_one_spec(spec).family)
        else:
            needed.add(family)
    return {
        family: encode_dataset(dataset, EncodingSpec(family, L))
        for family in sorted(needed, key=FAMILIES.index)
    }


def _inner_seed(seed: int, fold: int) -> int:
    return seed * 1000003 + fold + 1


def _stage1_scores(model_spec, X1, y, train, test, k, seed, fold, inner_cv):
    s1_model = fit(model_spec, X1[train], y[train])
    if inner_cv:
        train_scores = np.empty(len(train))
        inner = stratified_kfold(y[train], k, seed=_inner_seed(seed, fold))
        for inner_fold in range(k):
            fit_rows = train[inner.train_indices(inner_fold)]
            score_rows = inner.test_indices(inner_fold)
            inner_model = fit(model_spec, X1[fit_rows], y[fit_rows])
            train_scores[score_rows] = inner_model.predict_score(X1[train[score_rows]])
    else:
        train_scores = s1_model.predict_score(X1[train])
    test_scores = s1_model.predict_score(X1[test])
    return train_scores, test_scores


def run_cell_detailed(
    dataset: Dataset,
    enc: EncodingSpec,
    model_spec: ModelSpec,
    folds: FoldAssignment,
    inner_cv: bool = False,
    hard_stage1: bool = False,
    matrices: dict | None = None,
    seed: int = 0,
) -> list[FoldOutcome]:
    """Evaluate one (encoding, model) cell fold by fold."""
    if matrices is None:
        matrices = design_matrices(dataset, [enc.family])
    y = np.asarray(dataset.labels(), dtype=float)
    outcomes = []
    for fold in range(folds.k):
        train = folds.train_indices(fold)
        test = folds.test_indices(fold)
        stage1_train = None
        if enc.two_stage:
            X1 = matrices[stage_one_spec(enc).family]
            train_scores, test_scores = _stage1_scores(
                model_spec, X1, y, train, test, folds.k, seed, fold, inner_cv
            )
            if hard_stage1:
                train_scores = threshold(train_scores).astype(float)
                test_scores = threshold(test_scores).astype(float)
            all_scores = np.zeros(len(dataset))
            all_scores[train] = train_scores
            all_scores[test] = test_scores
            X = encode_dataset(dataset, enc, stage1_scores=all_scores)
            stage1_train = train
        else:
            X = matrices[enc.family]
        model = fit(model_spec, X[train], y[train])
        scores = model.predict_score(X[test])
        predictions = threshold(scores)
        metrics = macro_metrics(confusion(predictions, y[test].astype(int)))
        outcomes.append(
            FoldOutcome(
                fold=fold,
                test_indices=test,
                scores=scores,
                predictions=predictions,
                metrics=metrics,
                stage1_train_indices=stage1_train,
            )
        )
    return outcomes


def run_cell(
    dataset: Dataset,
    enc: EncodingSpec,
    model_spec: ModelSpec,
    folds: FoldAssignment,
    inner_cv: bool = False,
    hard_stage1: bool = False,
    matrices: dict | None = None,
    seed: int = 0,
) -> list[MetricSet]:
    return [
        o.metrics
        for o in run_cell_detailed(
            dataset, enc, model_spec, folds, inner_cv, hard_stage1, matrices, seed
        )
    ]


def _ordered_cells(cfg: ExperimentConfig):
    encodings = sorted(set(cfg.encodings), key=FAMILIES.index)
    models = sorted(cfg.models, key=lambda s: MODEL_ORDER.index(s.family))
    return [(e, m) for e in encodings for m in models]


def _evaluate_cell(dataset, cfg, folds, matrices, cell) -> CellResult:
    family, model_spec = cell
    metrics = run_cell(
        dataset,
        EncodingSpec(family, dataset.premise_capacity),
        model_spec,
        folds,
        inner_cv=cfg.inner_cv,
        hard_stage1=cfg.hard_stage1,
        matrices=matrices,
        seed=cfg.seed,
    )
    return CellResult(
        encoding=family,
        model=model_spec.family,
        fold_metrics=tuple(metrics),
        aggregates=aggregate(metrics, sample_std=cfg.sample_std),
    )


_WORKER_STATE: dict = {}


def _init_worker(dataset, cfg, folds, matrices):
    _WORKER_STATE["grid"] = (dataset, cfg, folds, matrices)


def _worker_evaluate(cell) -> CellResult:
    dataset, cfg, folds, matrices = _WORKER_STATE["grid"]
    return _evaluate_cell(dataset, cfg, folds, matrices, cell)


def run_grid(dataset: Dataset, cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (encoding, model) cell on one shared fold assignment.

    Cells are independent pure computations; with jobs > 1 they run in worker
    processes, and results are identical for every jobs value.
    """
    folds = stratified_kfold(dataset.labels(), cfg.k, cfg.seed)
    matrices = design_matrices(dataset, cfg.encodings)
    cells = _ordered_cells(cfg)
    jobs = cfg.jobs if cfg.jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)),
            initializer=_init_worker,
            initargs=(dataset, cfg, folds, matrices),
        ) as pool:
            rows = tuple(pool.map(_worker_evaluate, cells))
    else:
        rows = tuple(
            _evaluate_cell(dataset, cfg, folds, matrices, cell) for cell in cells
        )
    return ExperimentReport(k=cfg.k, seed=cfg.seed, rows=rows)


def _markdown(report: ExperimentReport) -> str:
    lines = [
        "| Encoding | Model | Precision | Recall | Macro F1 |",
        "|---|---|---|---|---|",
    ]
    for row in report.rows:
        agg = row.aggregates
        lines.append(
            f"| {row.encoding} | {row.model} "
            f"| {agg.precision.mean:.3f} ± {agg.precision.std:.3f} "
            f"| {agg.recall.mean:.3f} ± {agg.recall.std:.3f} "
            f"| {agg.f1.mean:.3f} ± {agg.f1.std:.3f} |"
        )
    return "\n".join(lines) + "\n"


def _csv(report: ExperimentReport) -> str:
    lines = [
        "encoding,model,precision_mean,precision_std,recall_mean,recall_std,"
        "macro_f1_mean,macro_f1_std"
    ]
    for row in report.rows:
        agg = row.aggregates
        lines.append(
            f"{row.encoding},{row.model},{agg.precision.mean!r},{agg.precision.std!r},"
            f"{agg.recall.mean!r},{agg.recall.std!r},{agg.f1.mean!r},{agg.f1.std!r}"
        )
    return "\n".join(lines) + "\n"


def _json(report: ExperimentReport) -> str:
    payload = {
        "k": report.k,
        "seed": report.seed,
        "rows": [
            {
                "encoding": row.encoding,
                "model": row.model,
                "folds": [
                    {"precision": m.precision, "recall": m.recall, "macro_f1": m.f1}
                    for m in row.fold_metrics
                ],
                "precision": {"mean": row.aggregates.precision.mean,
                              "std": row.aggregates.precision.std},
                "recall": {"mean": row.aggregates.recall.mean,
                           "std": row.aggregates.recall.std},
                "macro_f1": {"mean": row.aggregates.f1.mean,
                             "std": row.aggregates.f1.std},
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_report(report: ExperimentReport, format: str = "markdown") -> str:
    """Render a report; markdown rounds to 3 decimals (half-to-even), csv and
    json carry full precision. Output is byte-deterministic."""
    if format == "markdown":
        return _markdown(report)
    if format == "csv":
        return _csv(report)
    if format == "json":
        return _json(report)
    raise UnknownFormatError(
        f"unknown report format {format!r}; valid: {list(REPORT_FORMATS)}"
    )
