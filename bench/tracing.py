"""Per-layer spans and counters for the traced benchmark run.

The traced run rebinds argstruct's public functions, in every loaded
``argstruct`` module that holds them, to wrappers that time each call as a
span and count the work it did. Spans and counters stay in memory and are
summarised when the run ends. Wrapping happens only in the benchmark's
process, so the traced run must keep every call in that process (jobs=1).

Counting work (unique rows, tree sizes) runs outside every span: its time is
subtracted from each enclosing span, so it shows in the tracing overhead but
in no layer's time and not in the experiment layer's self time.
"""

import inspect
import sys
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.total = defaultdict(float)  # span name -> seconds, outermost spans only
        self.durations = defaultdict(list)  # span name -> outermost span durations
        self.self_time = defaultdict(float)  # span name -> seconds not in child spans
        self.count = defaultdict(int)
        self._stack = []  # open spans: [name, start, untimed at start, child seconds]
        self._untimed = 0.0

    @contextmanager
    def span(self, name):
        frame = [name, perf_counter(), self._untimed, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = perf_counter() - frame[1] - (self._untimed - frame[2])
            self.self_time[name] += duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            # a span nested in one of its own name (load_dataset -> parse_dataset)
            # is already inside the outer span's time
            if all(open_frame[0] != name for open_frame in self._stack):
                self.total[name] += duration
                self.durations[name].append(duration)

    @contextmanager
    def untimed(self):
        start = perf_counter()
        try:
            yield
        finally:
            self._untimed += perf_counter() - start


def _tree_nodes(obj) -> int:
    if "v" in obj:
        return 1
    return 1 + _tree_nodes(obj["l"]) + _tree_nodes(obj["r"])


def _rows(X) -> int:
    return 1 if np.ndim(X) == 1 else len(X)


def _rebind(stack, original, wrapper):
    """Replace ``original`` by ``wrapper`` in every loaded argstruct module."""
    for name, module in list(sys.modules.items()):
        if name != "argstruct" and not name.startswith("argstruct."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                stack.callback(setattr, module, attr, original)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap argstruct's public functions with spans for the ``with`` block.

    Layers: data (parse, stats), synth, encodings, evaluation (folds,
    confusion, metrics), models (fit and predict per family; the shared tree
    code shows through the forest and gbt fits), models.persist and
    experiment (grid, cell, report).
    """
    from argstruct import data, encodings, evaluation, experiment, models, synth
    from argstruct.models import persist

    patched_classes = set()

    def wrap_predict(cls, stack):
        if cls in patched_classes:
            return
        patched_classes.add(cls)
        original = cls.predict_score
        if "predict_score" in vars(cls):
            stack.callback(setattr, cls, "predict_score", original)
        else:
            stack.callback(delattr, cls, "predict_score")

        def predict_score(self, X, *args, **kwargs):
            with tracer.span("models.predict." + self.family):
                scores = original(self, X, *args, **kwargs)
            tracer.count["models.predict_rows." + self.family] += _rows(X)
            return scores

        cls.predict_score = predict_score

    def after_parse(bound, result):
        tracer.count["data.messages"] += len(result.dataset)
        tracer.count["data.skipped"] += len(result.skipped)

    def after_encode(bound, result):
        tracer.count["encodings.encode_calls"] += 1
        tracer.count["encodings.rows_encoded"] += len(result)

    def after_fit(bound, model):
        family = bound["spec"].family
        X = np.asarray(bound["X"], dtype=float)
        y = np.asarray(bound["y"], dtype=float)
        tracer.count["models.fit_calls." + family] += 1
        tracer.count["models.unique_rows." + family] += len(models.dedup_rows(X, y)[0])
        trees = persist.model_to_dict(model)["params"].get("trees", [])
        tracer.count["models.tree_nodes." + family] += sum(map(_tree_nodes, trees))
        wrap_predict(type(model), stack)

    def after_load(bound, model):
        wrap_predict(type(model), stack)

    def fit_span(bound):
        return "models.fit." + bound["spec"].family

    targets = [
        (data, "load_dataset", "data.load", None),
        (data, "parse_dataset", "data.load", after_parse),
        (data, "dataset_stats", "data.stats", None),
        (synth, "generate", "synth.generate", None),
        (encodings, "encode_dataset", "encodings.encode", after_encode),
        (evaluation, "stratified_kfold", "evaluation.kfold", None),
        (evaluation, "confusion", "evaluation.metrics", None),
        (evaluation, "macro_metrics", "evaluation.metrics", None),
        (evaluation, "aggregate", "evaluation.metrics", None),
        (models, "fit", fit_span, after_fit),
        (persist, "load_model", "persist.load", after_load),
        (persist, "model_from_dict", "persist.load", after_load),
        (experiment, "run_grid", "experiment.grid", None),
        (experiment, "run_cell", "experiment.cell", None),
        (experiment, "emit_report", "experiment.report", None),
    ]
    with ExitStack() as stack:
        for module, attr, span_name, after in targets:
            # a later refactor may drop a name; its layer then reads 0
            original = getattr(module, attr, None)
            if original is not None:
                _rebind(stack, original, _wrapped(tracer, original, span_name, after))
        yield tracer


def _wrapped(tracer, fn, span_name, after):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with tracer.untimed():
            bound = signature.bind(*args, **kwargs).arguments
            name = span_name(bound) if callable(span_name) else span_name
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            with tracer.untimed():
                after(bound, result)
        return result

    return wrapper
