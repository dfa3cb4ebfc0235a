"""Encoding x model x fold experiment runner and report rendering.

A single stratified fold assignment is computed per (k, seed) and shared by
every grid cell so the encodings and models are compared on identical splits.
Two-stage cells train a premise-only model of the same family inside each
fold's training split; its in-sample predictions feed the stage-2 training
rows and its predictions on held-out premises feed the test rows, so the
test fold never leaks into stage-1 training. A cell fits its k folds stage by
stage through ``models.fit_each``, which lets boosting grow the k folds'
trees together.

The grid runs as tasks: a two-stage cell runs with the premise-only cell of
its stage-1 family (``encodings.stage_one_spec``) and the same model spec,
and takes that cell's k fold models as its stage 1 instead of fitting them
again. The models are dropped when the two-stage cell takes them. Inner-CV
fits are never shared, because their rows differ.

Static encodings whose designs agree on every column that is not constant
over the dataset (``arg-str`` is ``arg-str-p`` plus the conclusion bit, which
every message sets) form a group (``_shared_families``). Every family fits
such designs alike: lgr and svm give the columns constant over the training
rows weight 0 and score only the others, the trees never split on them and
the forest never draws them, and ``distinct_rows`` orders the rows alike.
The fold scores then agree bit for bit, so each model spec evaluates a
group's cell once and the others copy that cell's result.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import chain

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
from .models import ModelSpec, fit_each, threshold

MODEL_ORDER = ("lgr", "rforest", "svm", "gbt")


class UnknownFormatError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    encodings: tuple[str, ...] = FAMILIES
    models: tuple[ModelSpec, ...] = tuple(ModelSpec(f) for f in MODEL_ORDER)
    k: int = 5
    seed: int = 0
    inner_cv: bool = False
    hard_stage1: bool = False
    sample_std: bool = False
    jobs: int | None = None

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class FoldOutcome:
    """Per-fold evaluation record, kept for equivalence checks."""

    fold: int
    test_indices: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    metrics: MetricSet


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


def _inner_cv_scores(model_spec, X1, y, train, k, seed, fold):
    """Stage-1 scores of a fold's training rows, each from a model not fitted on it."""
    inner = stratified_kfold(y[train], k, seed=_inner_seed(seed, fold))
    fit_rows = [train[inner.train_indices(i)] for i in range(k)]
    scores = np.empty(len(train))
    for i, model in enumerate(fit_each(model_spec, [(X1[r], y[r]) for r in fit_rows])):
        score_rows = inner.test_indices(i)
        scores[score_rows] = model.predict_score(X1[train[score_rows]])
    return scores


def _stage2_designs(dataset, enc, model_spec, X1, y, folds, inner_cv, hard_stage1, seed, stage1):
    """Each fold's stage-2 design, on stage-1 models fitted inside its training
    rows: ``stage1``, the premise-only cell's fold models, or fitted here if None."""
    trains = [folds.train_indices(fold) for fold in range(folds.k)]
    if stage1 is None:
        stage1 = fit_each(model_spec, [(X1[t], y[t]) for t in trains])
    designs = []
    for fold, (train, s1_model) in enumerate(zip(trains, stage1)):
        test = folds.test_indices(fold)
        if inner_cv:
            train_scores = _inner_cv_scores(model_spec, X1, y, train, folds.k, seed, fold)
        else:
            train_scores = s1_model.predict_score(X1[train])
        test_scores = s1_model.predict_score(X1[test])
        if hard_stage1:
            train_scores = threshold(train_scores).astype(float)
            test_scores = threshold(test_scores).astype(float)
        all_scores = np.zeros(len(dataset))
        all_scores[train] = train_scores
        all_scores[test] = test_scores
        designs.append(encode_dataset(dataset, enc, stage1_scores=all_scores))
    return designs


def run_cell_detailed(
    dataset: Dataset,
    enc: EncodingSpec,
    model_spec: ModelSpec,
    folds: FoldAssignment,
    inner_cv: bool = False,
    hard_stage1: bool = False,
    matrices: dict | None = None,
    seed: int = 0,
    stage1: dict | None = None,
) -> list[FoldOutcome]:
    """Evaluate one (encoding, model) cell fold by fold.

    ``stage1`` is its grid task's premise-only fold models, keyed by family:
    a premise-only cell whose family is a key stores its k models there, and
    a two-stage cell pops its stage-1 family's models (or fits its own)."""
    if matrices is None:
        matrices = design_matrices(dataset, [enc.family])
    stage1 = {} if stage1 is None else stage1
    y = np.asarray(dataset.labels(), dtype=float)
    if enc.two_stage:
        family = stage_one_spec(enc).family
        designs = _stage2_designs(
            dataset, enc, model_spec, matrices[family], y, folds, inner_cv, hard_stage1, seed,
            stage1.pop(family, None),
        )
    else:
        designs = [matrices[enc.family]] * folds.k
    trains = [folds.train_indices(fold) for fold in range(folds.k)]
    fitted = fit_each(model_spec, [(X[t], y[t]) for X, t in zip(designs, trains)])
    if enc.family in stage1:
        stage1[enc.family] = fitted
    outcomes = []
    for fold, (X, model) in enumerate(zip(designs, fitted)):
        test = folds.test_indices(fold)
        scores = model.predict_score(X[test])
        predictions = threshold(scores)
        metrics = macro_metrics(confusion(predictions, y[test].astype(int)))
        outcomes.append(FoldOutcome(fold, test, scores, predictions, metrics))
    return outcomes


def run_cell(*args, **kwargs) -> list[MetricSet]:
    """The fold metrics of ``run_cell_detailed`` (same arguments)."""
    return [o.metrics for o in run_cell_detailed(*args, **kwargs)]


def _ordered_cells(cfg: ExperimentConfig):
    encodings = sorted(set(cfg.encodings), key=FAMILIES.index)
    models = sorted(cfg.models, key=lambda s: MODEL_ORDER.index(s.family))
    return [(e, m) for e in encodings for m in models]


def _shared_families(matrices, families, capacity) -> dict[str, str]:
    """Each static family of ``families`` mapped to the family whose cells it
    shares, for every model spec: families whose designs agree on every column
    that is not constant over the dataset form a group, whose first family in
    grid order stands for it, or its stage-1 provider if it holds one, as that
    cell's fold models feed a two-stage cell."""
    specs = [EncodingSpec(family, capacity) for family in set(families)]
    providers = {stage_one_spec(spec).family for spec in specs if spec.two_stage}
    static = [spec.family for spec in specs if not spec.two_stage]
    shared, firsts = {}, []  # firsts: each group's first family and varying columns
    for family in sorted(static, key=lambda f: (f not in providers, FAMILIES.index(f))):
        X = matrices[family]
        varying = (X != X[:1]).any(axis=0)
        shared[family] = next((
            first for first, columns in firsts
            if np.array_equal(matrices[first][:, columns], X[:, varying])
        ), family)
        if shared[family] == family:
            firsts.append((family, varying))
    return shared


def _tasks(cells, capacity, shared) -> list[list[int]]:
    """Group cell indices into tasks by (premise-only family, model spec): a
    two-stage cell joins the premise-only cell of its stage-1 family, every
    other cell runs alone, and a cell whose family ``shared`` maps to another
    family runs in no task. Multi-cell tasks, the costliest, come first, then
    the rest by their first cell."""
    groups: dict[tuple, list[int]] = {}
    for i, (family, model_spec) in enumerate(cells):
        enc = EncodingSpec(family, capacity)
        if enc.two_stage or shared[family] == family:
            key = stage_one_spec(enc).family if enc.two_stage else family
            groups.setdefault((key, model_spec), []).append(i)
    return sorted(groups.values(), key=lambda members: (len(members) == 1, members[0]))


def _run_task(dataset, cfg, folds, matrices, cells) -> list[CellResult]:
    """Evaluate a task's cells in grid order, so the premise-only cell fits
    the stage-1 models its two-stage cell then takes."""
    encs = [EncodingSpec(family, dataset.premise_capacity) for family, _ in cells]
    stage1 = {stage_one_spec(enc).family: None for enc in encs if enc.two_stage}
    rows = []
    for enc, (family, model_spec) in zip(encs, cells):
        metrics = run_cell(dataset, enc, model_spec, folds, cfg.inner_cv, cfg.hard_stage1,
                           matrices, cfg.seed, stage1)
        aggregates = aggregate(metrics, sample_std=cfg.sample_std)
        rows.append(CellResult(family, model_spec.family, tuple(metrics), aggregates))
    return rows


_WORKER_STATE: dict = {}


def _init_worker(dataset, cfg, folds, matrices):
    _WORKER_STATE["grid"] = (dataset, cfg, folds, matrices)


def _worker_run_task(task) -> list[CellResult]:
    return _run_task(*_WORKER_STATE["grid"], task)


def _pool_results(grid, tasks, workers):
    """Each task's rows from a process pool, or None if the pool cannot start
    (an OSError creating it or submitting to it, or a broken pool). An error
    raised by a cell's own computation propagates unchanged."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=grid)
        futures = [pool.submit(_worker_run_task, task) for task in tasks]
    except (OSError, BrokenProcessPool) as exc:
        failure = exc
    else:
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            failure = exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    sys.stderr.write(
        f"warning: process pool unavailable ({failure!r}); running the grid serially\n"
    )
    return None


def run_grid(dataset: Dataset, cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (encoding, model) cell on one shared fold assignment.

    Each two-stage cell runs as one task with the premise-only cell of its
    stage-1 family and model spec, and reuses that cell's fold models as its
    stage 1 (``_tasks``); a static cell whose design equals another's on its
    varying columns copies that cell's result (``_shared_families``); every
    other cell is a task of its own. Tasks are independent pure computations;
    with jobs > 1 they run in worker processes (serially if the pool cannot
    start), and results are identical for every jobs value.
    """
    folds = stratified_kfold(dataset.labels(), cfg.k, cfg.seed)
    matrices = design_matrices(dataset, cfg.encodings)
    grid = (dataset, cfg, folds, matrices)
    cells = _ordered_cells(cfg)
    shared = _shared_families(matrices, cfg.encodings, dataset.premise_capacity)
    tasks = _tasks(cells, dataset.premise_capacity, shared)
    work = [[cells[i] for i in members] for members in tasks]
    # the CPUs this process may run on, where the platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = cfg.jobs if cfg.jobs is not None else (cpus or 1)
    results = None
    if jobs > 1 and len(tasks) > 1:
        results = _pool_results(grid, work, min(jobs, len(tasks)))
    if results is None:
        results = [_run_task(*grid, task) for task in work]
    rows = dict(zip(chain(*tasks), chain(*results)))
    ran = {cells[i]: row for i, row in rows.items()}
    for i, (family, model_spec) in enumerate(cells):
        if i not in rows:
            rows[i] = replace(ran[shared[family], model_spec], encoding=family)
    return ExperimentReport(k=cfg.k, seed=cfg.seed, rows=tuple(rows[i] for i in range(len(cells))))


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


_RENDERERS = {"markdown": _markdown, "csv": _csv, "json": _json}
REPORT_FORMATS = tuple(_RENDERERS)


def emit_report(report: ExperimentReport, format: str = "markdown") -> str:
    """Render a report; markdown rounds to 3 decimals (half-to-even), csv and
    json carry full precision. Output is byte-deterministic."""
    if format not in _RENDERERS:
        raise UnknownFormatError(
            f"unknown report format {format!r}; valid: {list(REPORT_FORMATS)}"
        )
    return _RENDERERS[format](report)
