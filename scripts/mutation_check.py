#!/usr/bin/env python3
"""Check that the tests still catch a table of known-bad edits to the source.

    python scripts/mutation_check.py

Each row of ``MUTATIONS`` is one edit that breaks an invariant: a file under
``src/``, an exact text that occurs once in it, the text that replaces it, and
the tests that must fail once it is replaced. For each row the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies that one edit there and runs the named tests with pytest; a mutation
is killed only when pytest reports failed tests (exit code 1). Before any
mutation is judged, every named test is run once on an unmutated copy and
must pass. The script exits 1 when that baseline fails, when a mutation
survives (its tests pass), when an anchor text does not occur exactly once,
or when pytest ends any other way (exit 2 is a collection or import error).
The sweep takes a few minutes; ``tests/test_mutation_table.py`` checks only
the anchors.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_TREE = "src/argstruct/models/tree.py"
_FOREST = "src/argstruct/models/forest.py"
_LINEAR = "src/argstruct/models/linear.py"
_DATA = "src/argstruct/data.py"
_ENCODINGS = "src/argstruct/encodings.py"
_CHANGED_LINE = "tests/test_data.py::test_one_scan_matches_per_line_loop_on_a_changed_line"

MUTATIONS = (
    Mutation(
        "gini-parent-square",
        _TREE,
        "parent = 1.0 - np.float_power(T / n, 2) - np.float_power((n - T) / n, 2)",
        "parent = 1.0 - (T / n) ** 2 - ((n - T) / n) ** 2",
        ("tests/test_tree_builder.py::"
         "test_gini_tie_between_complementary_columns_follows_recursive_builder",),
    ),
    Mutation(
        "gbt-gather-layout",
        _TREE,
        "parts.append(wt @ X[b][rows[r]][:, cs])",
        "parts.append(wt @ X[b][rows[r][:, None], cs])",
        ("tests/test_tree_builder.py::test_fit_each_matches_recursive_builder_on_corpus_folds",),
    ),
    Mutation(
        "block-gather-wrong-block",
        _TREE,
        "return A[0] if len(A) == 1 else A[block]",
        "return A[0] if len(A) == 1 else A[block[::-1]]",
        ("tests/test_tree_builder.py::test_batched_gbt_on_unequal_blocks_matches_single_fits",),
    ),
    Mutation(
        "block-padding-weighted",
        _TREE,
        "padded = np.zeros((len(arrays), max(self.sizes)) + np.shape(arrays[0])[1:])",
        "padded = np.ones((len(arrays), max(self.sizes)) + np.shape(arrays[0])[1:])",
        ("tests/test_tree_builder.py::test_batched_gbt_on_unequal_blocks_matches_single_fits",),
    ),
    Mutation(
        "forest-draw-no-run-offset",
        _FOREST,
        "chosen = np.repeat(starts[drawn], sizes)",
        "chosen = np.zeros(sum(sizes), dtype=int)",
        ("tests/test_tree_builder.py::test_forest_matches_recursive_builder_on_corpus_folds",),
    ),
    Mutation(
        "forest-draw-drops-single-candidates",
        _FOREST,
        "return np.concatenate([starts[counts == 1], chosen])",
        "return np.concatenate([starts[:0], chosen])",
        ("tests/test_tree_builder.py::test_forest_matches_recursive_builder",),
    ),
    Mutation(
        "distinct-rows-key-order",
        _TREE,
        "np.lexsort(X.T[::-1])",
        "np.lexsort(X.T)",
        ("tests/test_tree_builder.py::test_dedup_rows_matches_np_unique_reference",),
    ),
    Mutation(
        "linear-no-freeze",
        _LINEAR,
        "            stepping = ~np.concatenate([stop[col_owner], stop])",
        "            stepping = True",
        ("tests/test_linear.py::test_corpus_folds_freeze_at_their_own_iteration",),
    ),
    Mutation(
        "linear-no-where-mask",
        _LINEAR,
        "np.subtract(theta, lr * grad, out=theta, where=stepping)",
        "np.subtract(theta, lr * grad, out=theta)",
        ("tests/test_linear.py::test_corpus_folds_freeze_at_their_own_iteration",),
    ),
    Mutation(
        "gbt-roots-contiguous",
        "src/argstruct/models/boosting.py",
        "roots=grown.roots[i::k]",
        "roots=grown.roots[i * (len(grown.roots) // k):(i + 1) * (len(grown.roots) // k)]",
        ("tests/test_tree_builder.py::test_fit_each_matches_fit_per_problem",),
    ),
    Mutation(
        "encode-no-c-order",
        _ENCODINGS,
        "return np.ascontiguousarray(np.concatenate(blocks, axis=1, dtype=float))",
        "return np.concatenate(blocks, axis=1, dtype=float)",
        ("tests/test_encodings.py::test_encode_dataset_matches_oracle",),
    ),
    Mutation(
        "error-not-data-error",
        _ENCODINGS,
        "class PremiseOverflowError(DataError):",
        "class PremiseOverflowError(Exception):",
        ("tests/test_cli.py::test_every_data_error_exits_2",),
    ),
    Mutation(
        "enum-miss-no-fallback",
        _DATA,
        "        return codes[enum(value).value]",
        "        raise ValueError(f\"{value!r} is not valid\")",
        ("tests/test_data.py::test_parse_matches_object_oracle",),
    ),
    Mutation(
        "no-duplicate-id-check",
        _DATA,
        "            if msg_id in lines_of:",
        "            if False:",
        ("tests/test_data.py::test_repeated_id_is_rejected_on_the_later_line",
         "tests/test_cli.py::test_bad_input_exits_with_documented_code"),
    ),
    Mutation(
        "scan-never-taken",
        _DATA,
        "            dataset = _scan_dataset(text)",
        "            dataset = None",
        ("tests/test_data.py::test_one_scan_parses_generated_files_as_the_per_line_loop",),
    ),
    Mutation(
        "scan-record-spans-lines",
        _DATA,
        'text.find("\\n", start, end) != -1',
        "False",
        (f"{_CHANGED_LINE}[spans-two-lines-0]",),
    ),
    Mutation(
        "scan-any-character-after-record",
        _DATA,
        'end < n and text[end] != "\\n"',
        "False",
        (f"{_CHANGED_LINE}[two-records-on-a-line-0]",),
    ),
    Mutation(
        "scan-no-duplicate-id-fallback",
        _DATA,
        "len(set(ids)) != len(ids)",
        "False",
        (f"{_CHANGED_LINE}[duplicate-id-0]",),
    ),
    Mutation(
        "scan-no-partial-annotation-fallback",
        _DATA,
        "(np.repeat(label, sizes).astype(bool) & (hate == UNANNOTATED)).any()",
        "False",
        (f"{_CHANGED_LINE}[partial-annotation-0]",),
    ),
    Mutation(
        "scan-no-role-layout-check",
        _DATA,
        "min(sizes) < 2 or conclusions.sum() != len(ids) or not conclusions[offsets[1:] - 1].all()",
        "False",
        (f"{_CHANGED_LINE}[no-premise-0]", f"{_CHANGED_LINE}[two-conclusions-0]",
         f"{_CHANGED_LINE}[conclusion-first-0]"),
    ),
    Mutation(
        "premise-std-pairwise",
        _DATA,
        "math.sqrt(sum((c - mu) ** 2 for c in counts_of) / len(counts_of))",
        "math.sqrt(float(np.sum((np.array(counts_of) - mu) ** 2)) / len(counts_of))",
        ("tests/test_data.py::test_stats_match_object_oracle_on_a_corpus_sized_set",),
    ),
    Mutation(
        "premise-slot-off-by-one",
        _ENCODINGS,
        "slot[premise] = (before[:-1] - before[d.offsets[:-1]][d.message_of])[premise]",
        "slot[premise] = (before[1:] - before[d.offsets[:-1]][d.message_of])[premise]",
        ("tests/test_encodings.py::test_encode_dataset_matches_oracle",),
    ),
    Mutation(
        "inner-cv-scores-own-rows",
        "src/argstruct/experiment.py",
        "        score_rows = inner.test_indices(i)",
        "        score_rows = inner.train_indices(i)",
        ("tests/test_experiment.py::test_inner_cv_never_scores_a_row_with_a_model_fitted_on_it",),
    ),
)

# Edits no test can tell from the original, with the search that was made.
# fit_linear's stop test sums dw * dw with BLAS ddot; numpy's pairwise
# np.add.reduce(dwi * dwi) can differ from it in the last bit, which moves a
# problem's stop iteration only when the gradient norm lands within an ulp of
# GRAD_TOL. Search: every fit of the 5-fold grid on the seed 501-510 corpora,
# with and without inner CV, for lgr and svm at their defaults, lgr at
# learning rate 5.0 and L2 0.003, and log-loss svm at learning rate 5.0 (the
# last two stop before max_iter): 5,200 fits, each with the same weight and
# bias bits under either sum.
EQUIVALENT = (
    Mutation(
        "linear-stop-sum-order",
        _LINEAR,
        "sq[i] = np.dot(dwi, dwi)",
        "sq[i] = np.add.reduce(dwi * dwi)",
        (),
    ),
)


def anchor_count(mutation: Mutation, root: Path = ROOT) -> int:
    return (root / mutation.path).read_text(encoding="utf-8").count(mutation.old)


def run_tests(tests, mutation: Mutation | None = None) -> subprocess.CompletedProcess:
    """Run ``tests`` with pytest in a temporary copy of the tree, with
    ``mutation`` applied to the copy when one is given."""
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutation is not None:
            target = copy / mutation.path
            target.write_text(
                target.read_text(encoding="utf-8").replace(mutation.old, mutation.new),
                encoding="utf-8",
            )
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True,
        )


def check(mutation: Mutation) -> str | None:
    """What is wrong with ``mutation``'s row, or None if its tests kill it."""
    if anchor_count(mutation) != 1:
        return f"its anchor occurs {anchor_count(mutation)} times in {mutation.path}"
    done = run_tests(mutation.tests, mutation)
    if done.returncode == 0:
        return "survived: its tests pass"
    if done.returncode != 1:
        return f"pytest exited {done.returncode}:\n{_tail(done)}"
    return None


def _tail(done: subprocess.CompletedProcess) -> str:
    return (done.stdout + done.stderr)[-2000:]


def main() -> int:
    tests = sorted({test for m in MUTATIONS for test in m.tests})
    baseline = run_tests(tests)
    if baseline.returncode != 0:
        print(f"the named tests do not pass unmutated (pytest exited {baseline.returncode}):\n"
              f"{_tail(baseline)}")
        return 1
    failed = 0
    for mutation in MUTATIONS:
        problem = check(mutation)
        print(f"{mutation.name}: {'killed' if problem is None else problem}", flush=True)
        failed += problem is not None
    print(f"{len(MUTATIONS) - failed} of {len(MUTATIONS)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
