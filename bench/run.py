#!/usr/bin/env python3
"""Run one argstruct benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-corpus --seed 1 --seconds 55 --trace 0

The benchmark imports argstruct from the ``src`` directory beside this one
and builds every input from ``--seed``. With ``--trace 0`` it times set-up
in fresh processes, then runs passes back to back for ``--seconds`` in
another fresh process and prints the end-to-end metrics. With ``--trace 1``
it alternates traced and untraced ``jobs=1`` passes and prints the
per-layer metrics. Either way it checks every pass's outputs, prints a
provenance block, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, instrument

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
SETUP_REPEATS = 7
TREE_FAMILIES = ("rforest", "gbt")
# untraced and traced jobs=1 passes alternate, so that a drift in the
# machine's speed falls on both sides of the tracing overhead alike
TRACE_ORDER = ("untraced", "traced", "traced", "untraced", "untraced", "traced")
# self time of these spans is time in the benchmark's pass or the experiment
# runner that no layer's span covers
UNCOVERED_SPANS = ("pass", "experiment.grid", "experiment.cell")


def _attempt(workload, serial=False):
    """Run and check one pass; return (seconds, or None if it raised; ok)."""
    gc.collect()  # start every pass from the same heap, untimed
    start = perf_counter()
    try:
        outputs = workload.run_pass(serial=serial)
        elapsed = perf_counter() - start
        problem = workload.check(outputs)
    except Exception:  # a pass that raises counts as failed; the run goes on
        traceback.print_exc()
        return None, False
    if problem is not None:
        print(f"bench: {workload.name} pass failed its output check: {problem}", file=sys.stderr)
    return elapsed, problem is None


def timed_passes(workload, seconds):
    """Checked passes back to back until ``seconds`` is spent; at least one.

    Returns (pass times, attempted, failed).
    """
    times, attempted, failed = [], 0, 0
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        elapsed, ok = _attempt(workload)
        attempted += 1
        failed += not ok
        if elapsed is not None:
            times.append(elapsed)
        # start no pass that would end after the deadline
        expected = statistics.median(times) if times else perf_counter() - start
        if perf_counter() + expected > deadline:
            return times, attempted, failed


def _peak_rss_mb(jobs) -> float:
    """Peak resident memory of this process and of its pool's workers.

    The process that runs the passes starts no child but the pool's workers,
    so the children's high-water mark is that of the largest worker. The
    workers run side by side, so it counts once per job. Forked workers
    count the pages they share with this process again.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * worker) / 1024.0


def _child_command(workload, *args, toy=False):
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(workload.seed), *args,
    ] + (["--toy"] if toy else [])


def _run_child(command) -> str:
    """Run a benchmark child process to its end; return its standard output."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate()
    except BaseException:
        # SIGTERM or Ctrl-C: let the child unwind its pool before leaving
        child.terminate()
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{command[2:]} exited with code {child.returncode}")
    return out


def _setup_seconds(workload, workdir, toy) -> float:
    """Median wall time of a fresh process that imports argstruct and writes the inputs."""
    command = _child_command(workload, "--setup-only", str(workdir), toy=toy)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _run_child(command)
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed(workload, workdir, seconds, toy):
    """End-to-end metrics: set-up, then passes in a process of their own.

    Returns (metrics, attempted, failed, samples, output digests).
    """
    setup_s = _setup_seconds(workload, workdir, toy)
    workload.prepare(workdir)
    command = _child_command(
        workload, "--passes", str(workdir), "--seconds", repr(seconds), toy=toy
    )
    passes = json.loads(_run_child(command).splitlines()[-1])
    times = passes["times"]
    if not times:
        raise RuntimeError(f"every {workload.name} pass raised")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(times), "s"),
        "peak_rss_mb": (passes["peak_rss_mb"], "MB"),
    }
    samples = {"pass_s": times}
    return metrics, passes["attempted"], passes["failed"], samples, passes["outputs_sha256"]


def run_passes(workload, workdir, seconds) -> dict:
    """The timed passes, in the fresh process that ``timed`` starts."""
    workload.load(workdir)
    times, attempted, failed = timed_passes(workload, seconds)
    return {
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(workload.jobs),
        "outputs_sha256": workload.digests(),
    }


def _traced_attempt(workload):
    """One traced jobs=1 pass; return (tracer, wall seconds or None, ok)."""
    trace = Tracer()
    gc.collect()
    start = perf_counter()
    try:
        with instrument(trace), trace.span("pass"):
            outputs = workload.run_pass(serial=True)
        wall = perf_counter() - start
        problem = workload.check(outputs)
    except Exception:
        traceback.print_exc()
        return trace, None, False
    if problem is not None:
        print(f"bench: traced {workload.name} pass failed: {problem}", file=sys.stderr)
    return trace, wall, problem is None


def _layer_metrics(trace) -> dict:
    """Per-layer metrics of one traced pass."""
    from argstruct.models import MODEL_FAMILIES

    total, count = trace.total, trace.count
    pass_s = total["pass"]
    uncovered = sum(trace.self_time[name] for name in UNCOVERED_SPANS)
    cells = trace.durations["experiment.cell"]
    metrics = {}
    for family in MODEL_FAMILIES:
        metrics[f"models.fit_s.{family}"] = (total[f"models.fit.{family}"], "s")
        metrics[f"models.fit_calls.{family}"] = (count[f"models.fit_calls.{family}"], "count")
        metrics[f"models.unique_rows.{family}"] = (count[f"models.unique_rows.{family}"], "count")
        metrics[f"models.predict_s.{family}"] = (total[f"models.predict.{family}"], "s")
        metrics[f"models.predict_rows.{family}"] = (count[f"models.predict_rows.{family}"], "count")
    for family in TREE_FAMILIES:
        metrics[f"models.tree_nodes.{family}"] = (count[f"models.tree_nodes.{family}"], "count")
    metrics.update({
        "data.load_s": (total["data.load"], "s"),
        "data.messages": (count["data.messages"], "count"),
        "data.skipped": (count["data.skipped"], "count"),
        "data.stats_s": (total["data.stats"], "s"),
        "encodings.encode_s": (total["encodings.encode"], "s"),
        "encodings.encode_calls": (count["encodings.encode_calls"], "count"),
        "encodings.rows_encoded": (count["encodings.rows_encoded"], "count"),
        "persist.load_s": (total["persist.load"], "s"),
        "evaluation.kfold_s": (total["evaluation.kfold"], "s"),
        "evaluation.metrics_s": (total["evaluation.metrics"], "s"),
        "experiment.cell_s.max": (max(cells, default=0.0), "s"),
        "experiment.cell_s.sum": (sum(cells), "s"),
        "experiment.report_s": (total["experiment.report"], "s"),
        "experiment.self_s": (
            trace.self_time["experiment.grid"] + trace.self_time["experiment.cell"], "s"
        ),
        "trace.pass_s": (pass_s, "s"),
        "trace.coverage": ((pass_s - uncovered) / pass_s if pass_s else 0.0, "ratio"),
    })
    return metrics


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def traced(workload, workdir):
    """Per-layer metrics: medians over traced jobs=1 passes.

    An untraced pass at the workload's jobs runs first. It warms the process
    up and is the parallel efficiency's denominator. Then untraced and
    traced jobs=1 passes alternate (``TRACE_ORDER``); the tracing overhead
    is the median over their pairs of traced minus untraced wall time.
    """
    setup_trace = Tracer()
    with instrument(setup_trace):
        workload.setup(workdir)
    workload.prepare(workdir)
    workload.load(workdir)

    default_s, ok = _attempt(workload)
    oks = [ok]
    untraced_s, traced_s, layers = [], [], []
    for kind in TRACE_ORDER:
        if kind == "untraced":
            elapsed, ok = _attempt(workload, serial=True)
            untraced_s.append(elapsed)
        else:
            trace, elapsed, ok = _traced_attempt(workload)
            traced_s.append(elapsed)
            if elapsed is not None:
                layers.append(_layer_metrics(trace))
        oks.append(ok)
    if not layers:
        raise RuntimeError(f"every traced {workload.name} pass raised")

    metrics = {
        name: (_median(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    serial_s = _median(untraced_s)
    overheads = [
        t - u for t, u in zip(traced_s, untraced_s) if t is not None and u is not None
    ]
    metrics.update({
        "experiment.parallel_efficiency": (
            serial_s / (workload.jobs * default_s) if default_s else 0.0, "ratio"
        ),
        "experiment.serial_pass_s": (serial_s, "s"),
        "synth.generate_s": (setup_trace.total["synth.generate"], "s"),
        "trace.overhead_s": (_median(overheads), "s"),
        "error_rate": (oks.count(False) / len(oks), "ratio"),
    })
    samples = {"traced_s": traced_s, "untraced_s": untraced_s}
    return metrics, len(oks), oks.count(False), samples, workload.digests()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload) -> dict:
    import argstruct
    import numpy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argstruct": argstruct.__version__,
        "git_commit": _git_commit(),
        **workload.provenance,
    }


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload; return the result line plus provenance and output digests."""
    import workloads

    workload = workloads.make(name, seed, toy)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        if trace:
            metrics, attempted, failed, samples, digests = traced(workload, workdir)
            headline = None
        else:
            metrics, attempted, failed, samples, digests = timed(workload, workdir, seconds, toy)
            headline = workload.headline(metrics["pass_s"][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "provenance": provenance(workload),
        "outputs_sha256": digests,
        "samples": samples,
        "headline": headline,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid-corpus", "bulk-score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    child = parser.add_mutually_exclusive_group()
    child.add_argument("--setup-only", metavar="DIR",
                       help="only write the workload's inputs into DIR")
    child.add_argument("--passes", metavar="DIR",
                       help="only run timed passes on the inputs prepared in DIR")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "argstruct" / "__init__.py").is_file():
        print(f"bench: no argstruct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so child processes, the pool and the work directory are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.setup_only or args.passes:
        import workloads

        workload = workloads.make(args.workload, args.seed, args.toy)
        if args.setup_only:
            workload.setup(Path(args.setup_only))
        else:
            print(json.dumps(run_passes(workload, Path(args.passes), args.seconds)))
        return 0

    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    result = out["result"]
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    print("outputs_sha256 " + json.dumps(out["outputs_sha256"], sort_keys=True))
    for name, values in out["samples"].items():
        print(f"samples {name} " + " ".join("-" if v is None else f"{v:.4f}" for v in values))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        name, value, unit = out["headline"]
        print(f"{name} {value:.6g} {unit} (from pass_s)")
        print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']}/{result['attempted']} passes)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
