"""Self-tests of the benchmark at toy size.

    python3 -m pytest bench/tests

They check that each mode prints every metric BENCHMARK.json names, with its
unit, and that a corrupted report byte or a perturbed bulk score is counted
as a failed pass.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared(kind)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    provenance = json.loads(next(x for x in lines if x.startswith("provenance "))[11:])
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "seed",
                "dataset_sha256", "fold_digest"):
        assert key in provenance
    if trace == 0:
        assert any(line.startswith("error_rate 0 ratio") for line in lines)
        headline = {"grid-corpus": "grid_s ", "bulk-score": "bulk_msgs_per_s "}[workload]
        assert any(line.startswith(headline) for line in lines)


def _corrupt_nth_markdown(monkeypatch, n):
    original = workloads.experiment.emit_report
    calls = {"markdown": 0}

    def emit_report(report, format="markdown"):
        text = original(report, format)
        if format == "markdown":
            calls["markdown"] += 1
            if calls["markdown"] == n:
                text = "#" + text[1:]
        return text

    monkeypatch.setattr(workloads.experiment, "emit_report", emit_report)


def _prepared(name, seed, workdir):
    """A toy workload whose inputs are written, as the timed passes' process sees it."""
    workload = workloads.make(name, seed, toy=True)
    workload.setup(workdir)
    workload.prepare(workdir)
    workload.load(workdir)
    return workload


def test_corrupted_report_byte_counts_in_error_rate(monkeypatch, tmp_path):
    workload = _prepared("grid-corpus", 5, tmp_path)
    _corrupt_nth_markdown(monkeypatch, 2)
    times, attempted, failed = run.timed_passes(workload, 3.0)
    assert attempted >= 2
    assert failed == 1


def test_traced_pass_must_match_untraced_bytes(monkeypatch):
    # the pass at the workload's jobs, then run.TRACE_ORDER: the third is traced
    assert run.TRACE_ORDER[1] == "traced"
    _corrupt_nth_markdown(monkeypatch, 3)
    result = run.run("grid-corpus", 5, seconds=0.0, trace=True, toy=True)["result"]
    attempted = 1 + len(run.TRACE_ORDER)
    assert (result["attempted"], result["failed"]) == (attempted, 1)
    assert result["metrics"]["error_rate"]["value"] == 1 / attempted


class _Perturbed:
    def __init__(self, model):
        self.model = model
        self.family = model.family

    def predict_score(self, X):
        return np.nextafter(self.model.predict_score(X), 2.0)


def test_perturbed_bulk_score_counts_in_error_rate(monkeypatch, tmp_path):
    workload = _prepared("bulk-score", 6, tmp_path)
    original = workloads.persist.load_model
    monkeypatch.setattr(
        workloads.persist, "load_model", lambda path: _Perturbed(original(path))
    )
    times, attempted, failed = run.timed_passes(workload, 0.3)
    assert failed == attempted >= 1


def test_same_seed_gives_same_inputs(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.make("bulk-score", 7, toy=True).setup(tmp_path / sub)
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_refuses_to_run_without_argstruct_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_bytes((run.BENCH_DIR / name).read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
