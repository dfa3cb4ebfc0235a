"""The benchmark's workloads: set-up, one timed pass, and the pass's output check.

All workloads are closed loop: one benchmark process runs passes back to back.
Every call into argstruct goes through a module attribute, so the traced
run's wrappers see it. Why each workload exists is in README.md beside
this file.
"""

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from argstruct import data, encodings, evaluation, experiment, models, synth
from argstruct.models import persist

NAMES = ("grid-corpus", "bulk-score")
REPORT_FORMATS = ("markdown", "csv", "json")
CORPUS_FILE = "corpus.jsonl"
BULK_FILE = "bulk.jsonl"
REFERENCE_FILE = "reference.npz"
BULK_SPEC = encodings.EncodingSpec("arg-str-cw-hs", 6)
K = 5


@dataclass(frozen=True)
class Scale:
    """Input sizes: the WSF-ARG+ corpus shape by default, tiny for self-tests."""

    n_hateful: int = 227
    n_nonhateful: int = 136
    bulk_messages: int = 20_000
    tree_count: int | None = None  # None keeps each tree family's default
    max_iter: int = 1000


TOY = Scale(n_hateful=14, n_nonhateful=10, bulk_messages=300, tree_count=3, max_iter=50)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """One workload for one seed.

    ``setup`` writes the inputs into a directory and is what ``setup_s``
    times. ``prepare`` reads them back, untimed, for the provenance block and
    writes there whatever the output check compares against. ``load`` reads
    that back in the process that runs the passes, so the work of set-up and
    of ``prepare`` stays out of that process's memory. ``run_pass`` is one
    timed pass; ``check`` returns a description of what is wrong with a
    pass's outputs, or None.
    """

    jobs = 1

    def __init__(self, name: str, seed: int, scale: Scale):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.specs = tuple(
            models.ModelSpec(family, max_iter=scale.max_iter, tree_count=scale.tree_count)
            for family in models.MODEL_FAMILIES
        )

    def corpus(self):
        return synth.generate(
            synth.GeneratorConfig(
                mode="table1",
                n_hateful=self.scale.n_hateful,
                n_nonhateful=self.scale.n_nonhateful,
                seed=self.seed,
            )
        )


class GridWorkload(Workload):
    """The paper's experiment as `argstruct run` runs it: load_dataset ->
    run_grid (8 encodings x 4 models, k=5, default jobs) -> emit_report in
    every format."""

    def __init__(self, name, seed, scale):
        super().__init__(name, seed, scale)
        self.cfg = experiment.ExperimentConfig(models=self.specs, k=K, seed=seed)
        self.jobs = os.cpu_count() or 1
        self.reference = None

    def setup(self, workdir: Path) -> None:
        data.write_dataset(self.corpus(), workdir / CORPUS_FILE)

    def prepare(self, workdir: Path) -> None:
        path = workdir / CORPUS_FILE
        labels = data.load_dataset(path).labels()
        self.provenance = {
            "dataset_sha256": sha256_file(path),
            "fold_digest": evaluation.stratified_kfold(labels, K, self.seed).digest(),
        }

    def load(self, workdir: Path) -> None:
        # the first pass's reports are the reference of the passes after it
        self.path = workdir / CORPUS_FILE

    def run_pass(self, serial: bool = False) -> dict:
        cfg = dataclasses.replace(self.cfg, jobs=1) if serial else self.cfg
        report = experiment.run_grid(data.load_dataset(self.path), cfg)
        return {fmt: experiment.emit_report(report, fmt).encode() for fmt in REPORT_FORMATS}

    def check(self, outputs: dict) -> str | None:
        problem = self._malformed(outputs)
        if problem is not None:
            return problem
        if self.reference is None:
            self.reference = outputs
            return None
        for fmt in REPORT_FORMATS:
            if outputs[fmt] != self.reference[fmt]:
                return f"{fmt} report bytes differ from the first pass's"
        return None

    def _malformed(self, outputs: dict) -> str | None:
        cells = len(self.cfg.encodings) * len(self.cfg.models)
        payload = json.loads(outputs["json"])
        if payload["k"] != K or len(payload["rows"]) != cells:
            return f"json report has k={payload['k']} and {len(payload['rows'])} rows"
        for row in payload["rows"]:
            for metric in ("precision", "recall", "macro_f1"):
                mean, std = row[metric]["mean"], row[metric]["std"]
                if not (0.0 <= mean <= 1.0 and math.isfinite(std)):
                    return f"{row['encoding']}/{row['model']} {metric} is {mean} ± {std}"
        lines = {
            "markdown": outputs["markdown"].count(b"\n") - 2,
            "csv": outputs["csv"].count(b"\n") - 1,
        }
        for fmt, rows in lines.items():
            if rows != cells:
                return f"{fmt} report has {rows} rows, expected {cells}"
        return None

    def headline(self, pass_s: float) -> tuple:
        """The issue's name for this workload's pass time: (name, value, unit)."""
        return "grid_s", pass_s, "s"

    def digests(self) -> dict:
        if self.reference is None:
            return {}
        return {fmt: hashlib.sha256(b).hexdigest() for fmt, b in self.reference.items()}


@dataclass(frozen=True)
class BulkOutputs:
    messages: int
    skipped: int
    scores: dict


class BulkWorkload(Workload):
    """Score a large JSONL file with the four families reloaded from JSON."""

    def bulk(self):
        n, scale = self.scale.bulk_messages, self.scale
        n_hateful = round(n * scale.n_hateful / (scale.n_hateful + scale.n_nonhateful))
        return synth.generate(
            synth.GeneratorConfig(
                mode="table1", n_hateful=n_hateful, n_nonhateful=n - n_hateful,
                seed=self.seed + 1_000_000,  # a stream apart from the corpus's
            )
        )

    def fitted(self) -> dict:
        corpus = self.corpus()
        X = encodings.encode_dataset(corpus, BULK_SPEC)
        y = np.asarray(corpus.labels(), dtype=float)
        return {spec.family: models.fit(spec, X, y) for spec in self.specs}

    def setup(self, workdir: Path) -> None:
        for family, model in self.fitted().items():
            persist.save_model(model, workdir / f"{family}.json")
        data.write_dataset(self.bulk(), workdir / BULK_FILE)

    def prepare(self, workdir: Path) -> None:
        """Score the bulk set with the models fitted in memory, for the check."""
        X = encodings.encode_dataset(self.bulk(), BULK_SPEC)
        reference = {
            family: model.predict_score(X) for family, model in self.fitted().items()
        }
        np.savez(workdir / REFERENCE_FILE, **reference)
        self.provenance = {
            "dataset_sha256": sha256_file(workdir / BULK_FILE),
            "fold_digest": None,
        }

    def load(self, workdir: Path) -> None:
        self.workdir = workdir
        with np.load(workdir / REFERENCE_FILE) as saved:
            self.reference = {family: saved[family] for family in saved.files}
        self.messages = len(next(iter(self.reference.values())))

    def run_pass(self, serial: bool = False) -> BulkOutputs:
        loaded = {
            family: persist.load_model(self.workdir / f"{family}.json")
            for family in models.MODEL_FAMILIES
        }
        parsed = data.parse_dataset(self.workdir / BULK_FILE, strict=False)
        stats = data.dataset_stats(parsed.dataset)
        X = encodings.encode_dataset(parsed.dataset, BULK_SPEC)
        scores = {family: model.predict_score(X) for family, model in loaded.items()}
        return BulkOutputs(stats.n_messages, len(parsed.skipped), scores)

    def check(self, outputs: BulkOutputs) -> str | None:
        if outputs.skipped:
            return f"{outputs.skipped} records skipped"
        if outputs.messages != self.messages:
            return f"parsed {outputs.messages} messages, wrote {self.messages}"
        for family, expected in self.reference.items():
            got = np.asarray(outputs.scores[family])
            bitwise_equal = (got.shape, got.dtype, got.tobytes()) == (
                expected.shape, expected.dtype, expected.tobytes()
            )
            if not bitwise_equal:
                return f"{family} scores of the reloaded model differ from the fitted model's"
        return None

    def headline(self, pass_s: float) -> tuple:
        """The bulk scoring rate, derived from the pass time: (name, value, unit)."""
        return "bulk_msgs_per_s", self.scale.bulk_messages / pass_s, "msgs/s"

    def digests(self) -> dict:
        return {
            family: hashlib.sha256(scores.tobytes()).hexdigest()
            for family, scores in self.reference.items()
        }


def make(name: str, seed: int, toy: bool = False) -> Workload:
    scale = TOY if toy else Scale()
    if name == "grid-corpus":
        return GridWorkload(name, seed, scale)
    if name == "bulk-score":
        return BulkWorkload(name, seed, scale)
    raise ValueError(f"unknown workload {name!r}; valid: {list(NAMES)}")
