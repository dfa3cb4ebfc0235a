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
_MIDDLE_BLOCK = (
    "tests/test_data.py::test_blocks_match_per_line_loop_on_a_changed_line_in_a_middle_block"
)
_ROW_CHUNKS = "tests/test_tree_builder.py::test_predict_in_row_chunks_matches_recursive_builder"

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
    Mutation(  # the batched sums decide every node, near-ties too
        "gbt-exact-fallback-never-taken",
        _TREE,
        "        if len(u):\n",
        "        if False:\n",
        ("tests/test_tree_builder.py::test_gbt_exact_ties_follow_recursive_builder",
         "tests/test_report_bytes.py::test_grid_report_and_model_bytes_are_pinned"),
    ),
    Mutation(  # a near-tie between two boundaries of one column goes unseen
        "gbt-runner-up-from-column-maxima",
        _TREE,
        "    others[r, best] = seconds[r, best]\n",
        "    others[r, best] = -np.inf\n",
        ("tests/test_tree_builder.py::test_gbt_matches_recursive_builder",),
    ),
    Mutation(
        "block-gather-wrong-block",
        _TREE,
        "return A[0] if len(A) == 1 else A[block]",
        "return A[0] if len(A) == 1 else A[block[::-1]]",
        ("tests/test_tree_builder.py::test_batched_gbt_on_unequal_blocks_matches_single_fits",),
    ),
    Mutation(
        "leaf-descent-wrong-block",
        _TREE,
        "start = (np.arange(blocks)[:, None] * rows",
        "start = (np.arange(blocks)[::-1, None] * rows",
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
    Mutation(  # a node of weight 0 or 1 is a leaf by purity alone
        "split-without-purity-test",
        _TREE,
        "leaf |= _one_value(t, block, W > 0)",
        "leaf |= False",
        ("tests/test_tree_builder.py::test_forest_matches_recursive_builder",),
    ),
    Mutation(
        "sorted-split-threshold-of-column-0",
        _TREE,
        "thresholds[r, best]",
        "thresholds[r, 0]",
        ("tests/test_tree_builder.py::test_forest_matches_recursive_builder",),
    ),
    Mutation(
        "predict-chunk-drops-a-row",
        _TREE,
        "slice(start, start + PREDICT_ROWS)",
        "slice(start, start + PREDICT_ROWS - 1)",
        (f"{_ROW_CHUNKS}[rforest]", f"{_ROW_CHUNKS}[gbt]"),
    ),
    Mutation(
        "distinct-rows-check-drops-a-row",
        _TREE,
        "rows = X[start : start + CHECK_ROWS]",
        "rows = X[start : start + CHECK_ROWS - 1]",
        ("tests/test_tree_builder.py::test_distinct_rows_checks_every_row_for_0_1_columns",),
    ),
    Mutation(
        "distinct-rows-key-order",
        _TREE,
        "np.lexsort(keys[::-1])",
        "np.lexsort(keys)",
        ("tests/test_tree_builder.py::test_dedup_rows_matches_np_unique_reference",),
    ),
    Mutation(
        "distinct-rows-run-width",
        _TREE,
        "KEY_BITS = 52",
        "KEY_BITS = 64",
        ("tests/test_tree_builder.py::test_distinct_rows_matches_per_column_oracle",),
    ),
    Mutation(
        "descent-nan-side",
        _TREE,
        "node = child[(flat[start + f] <= self.threshold[node]) + 2 * node]",
        "node = child[1 - (flat[start + f] > self.threshold[node]) + 2 * node]",
        ("tests/test_tree_builder.py::test_predict_on_non_finite_rows_matches_recursive_builder",),
    ),
    Mutation(
        "linear-no-freeze",
        _LINEAR,
        "                stepping = ~np.concatenate([stop[col_owner], stop])",
        "                stepping = True",
        ("tests/test_linear.py::test_corpus_folds_freeze_at_their_own_iteration",),
    ),
    Mutation(
        "linear-no-where-mask",
        _LINEAR,
        "np.subtract(theta, lr * grad, out=theta, where=stepping)",
        "np.subtract(theta, lr * grad, out=theta)",
        ("tests/test_linear.py::test_corpus_folds_freeze_at_their_own_iteration",),
    ),
    Mutation(  # BLAS blocks X @ w by the width, so a constant column moves last bits
        "linear-scores-full-width",
        _LINEAR,
        "        return sigmoid(z)",
        "        return sigmoid(X @ self.weights + self.bias)",
        ("tests/test_models.py::test_constant_column_inserted_anywhere_changes_no_fit",),
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
        "X = np.zeros((n, spec.length))",
        'X = np.zeros((n, spec.length), order="F")',
        ("tests/test_encodings.py::test_encode_dataset_matches_oracle",),
    ),
    Mutation(
        "encode-chunk-drops-a-row",
        _ENCODINGS,
        "stop = start + ENCODE_ROWS",
        "stop = start + ENCODE_ROWS - 1",
        ("tests/test_encodings.py::test_encode_dataset_in_chunks_matches_oracle",),
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
        "if (j := first.setdefault(d.ids[i], i)) != i:",
        "if (j := first.setdefault(d.ids[i], i)) != i and False:",
        ("tests/test_data.py::test_repeated_id_is_rejected_on_the_later_line",
         "tests/test_cli.py::test_bad_input_exits_with_documented_code"),
    ),
    Mutation(
        "duplicate-id-against-rejected-records",
        _DATA,
        "for i in np.flatnonzero(accepted).tolist():",
        "for i in range(len(d)):",
        ("tests/test_data.py::test_repeated_id_of_a_skipped_record_is_accepted",),
    ),
    Mutation(
        "scan-never-taken",
        _DATA,
        'line_no = records.scan_text(block.decode("utf-8"), line_no)',
        'raise UnicodeDecodeError("utf-8", block, 0, 1, "the scan is never taken")',
        ("tests/test_data.py::test_one_scan_parses_generated_files_as_the_per_line_loop",),
    ),
    Mutation(
        "block-line-numbers-not-carried",
        _DATA,
        "            line_no = 1\n            while block := fh.read(BLOCK_BYTES):\n",
        "            while block := fh.read(BLOCK_BYTES):\n                line_no = 1\n",
        (f"{_MIDDLE_BLOCK}[not-an-object]",),
    ),
    Mutation(  # the outcome stays; only the lines the per-line decoder takes show it
        "scan-resumes-a-line-late",
        _DATA,
        "                start, line_no = end, line_no + 1\n",
        "                start, line_no = end, line_no + 1\n"
        "                if start < n:  # the next line too\n"
        '                    end = text.find("\\n", start) % (n + 1) + 1\n'
        "                    self.decode_line(text[start:end], line_no)\n"
        "                    start, line_no = end, line_no + 1\n",
        (f"{_CHANGED_LINE}[trailing-spaces-0]",),
    ),
    Mutation(  # the outcome stays; only the lines the per-line decoder takes show it
        "scan-integer-id-not-read",
        _DATA,
        "                        msg_id = str(msg_id)\n",
        "                        pass\n",
        (f"{_CHANGED_LINE}[integer-id-0]",),
    ),
    Mutation(
        "scan-keeps-a-left-records-components",
        _DATA,
        "del codes[offsets[-1]:], texts[offsets[-1]:]",
        "codes, texts",
        (f"{_CHANGED_LINE}[text-after-a-bad-component-0]",),
    ),
    Mutation(  # a source such as a pipe can be read once
        "parse-reads-a-path-twice",
        _DATA,
        '        with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:',
        '        open(source, "rb").read() if not isinstance(source, bytes) else None\n'
        '        with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:',
        ("tests/test_data.py::test_a_pipe_parses_as_its_file_in_one_read",),
    ),
    Mutation(
        "duplicate-id-hash-check-skipped",
        _DATA,
        "(hashes[1:] == hashes[:-1]).any()",
        "False",
        ("tests/test_data.py::test_repeated_id_is_rejected_on_the_later_line",),
    ),
    Mutation(
        "scan-record-spans-lines",
        _DATA,
        'line_end = text.find("\\n", start) % (n + 1)',
        'line_end = text.find("\\n", end) % (n + 1)',
        (f"{_CHANGED_LINE}[spans-two-lines-0]",),
    ),
    Mutation(
        "scan-any-character-after-record",
        _DATA,
        'end != line_end and text[end:line_end] != "\\r"',
        "end > line_end",
        (f"{_CHANGED_LINE}[two-records-on-a-line-0]",),
    ),
    Mutation(
        "partial-annotation-never-warns",
        _DATA,
        "(per_record(d.hate == UNANNOTATED) > 0)",
        "(per_record(d.hate == UNANNOTATED) < 0)",
        ("tests/test_data.py::test_unannotated_in_hateful_message_warns",
         "tests/test_data.py::test_validate_message_matches_object_oracle"),
    ),
    Mutation(
        "scan-no-role-layout-check",
        _DATA,
        "np.select([rule[1] for rule in rules], range(1, len(rules) + 1))",
        "np.select([rule[1] & False for rule in rules], range(1, len(rules) + 1))",
        ("tests/test_data.py::test_no_premise_rejected",
         "tests/test_data.py::test_multiple_conclusions_rejected",
         "tests/test_data.py::test_conclusion_not_last_rejected"),
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
        "slot[premise] = (before[:-1] - before[bounds[:-1] - first][message])[premise]",
        "slot[premise] = (before[1:] - before[bounds[:-1] - first][message])[premise]",
        ("tests/test_encodings.py::test_encode_dataset_matches_oracle",),
    ),
    Mutation(
        "inner-cv-scores-own-rows",
        "src/argstruct/experiment.py",
        "        score_rows = inner.test_indices(i)",
        "        score_rows = inner.train_indices(i)",
        ("tests/test_experiment.py::test_inner_cv_never_scores_a_row_with_a_model_fitted_on_it",),
    ),
    Mutation(
        "stage1-fits-all-rows",
        "src/argstruct/experiment.py",
        "stage1 = fit_each(model_spec, [(X1[t], y[t]) for t in trains])",
        "stage1 = fit_each(model_spec, [(X1, y) for t in trains])",
        ("tests/test_experiment.py::test_two_stage_never_trains_stage1_on_test_rows",),
    ),
    Mutation(  # arg-str differs from arg-str-p in a constant column: no cell is shared
        "grid-shares-only-equal-designs",
        "src/argstruct/experiment.py",
        "if np.array_equal(matrices[first][:, columns], X[:, varying])",
        "if np.array_equal(matrices[first], X)",
        ("tests/test_experiment.py::test_grid_fits_each_shared_fold_model_once",),
    ),
    Mutation(  # the inner folds move, and only the pinned bytes show it
        "inner-cv-seed-moved",
        "src/argstruct/experiment.py",
        "    return seed * 1000003 + fold + 1",
        "    return seed * 1000003 + fold + 2",
        ("tests/test_report_bytes.py::test_grid_report_and_model_bytes_are_pinned",),
    ),
)

# Edits no test can tell from the original, with the search that was made.
# fit_linear's stop test takes a problem's own dw @ dw with BLAS ddot, and only
# when the batched sum of squares lies within a relative 1e-9 of GRAD_TOL**2;
# numpy's pairwise np.add.reduce(dwi * dwi) can differ from ddot in the last
# bit, which moves a problem's stop iteration only when the gradient norm
# lands within an ulp of GRAD_TOL. Search (before the batched test, when every
# iteration took the ddot): every fit of the 5-fold grid on the seed 501-510
# corpora, with and without inner CV, for lgr and svm at their defaults, lgr
# at learning rate 5.0 and L2 0.003, and log-loss svm at learning rate 5.0
# (the last two stop before max_iter): 5,200 fits, each with the same weight
# and bias bits under either sum. The margin now leaves only that band to the
# exact sum, so the edit can matter in fewer steps still.
#
# Encoding and prediction write each chunk's rows and add nothing to them, so
# a row that two chunks hold gets the same values twice.
EQUIVALENT = (
    Mutation(
        "linear-stop-sum-order",
        _LINEAR,
        "np.dot(dws[i], dws[i])",
        "np.add.reduce(dws[i] * dws[i])",
        (),
    ),
    Mutation(
        "encode-chunk-repeats-a-row",
        _ENCODINGS,
        "stop = start + ENCODE_ROWS",
        "stop = start + ENCODE_ROWS + 1",
        (),
    ),
    Mutation(
        "predict-chunk-repeats-a-row",
        _TREE,
        "slice(start, start + PREDICT_ROWS)",
        "slice(start, start + PREDICT_ROWS + 1)",
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
