"""Command-line interface: validate, stats, encode, synth, run.

Exit codes: 0 success, 1 usage error, 2 data or validation error (any
``data.DataError``), 3 runtime error. Diagnostics go to stderr; results go to
stdout or the --out file. The ARGSTRUCT_DATA_DIR environment variable
supplies a fallback directory for relative dataset paths.
"""

import argparse
import csv
import io
import json
import os
import sys
import warnings
from pathlib import Path

from .data import (
    DataError,
    EmptyDatasetError,
    MessageLabel,
    PartialAnnotationWarning,
    dataset_stats,
    dataset_to_jsonl,
    load_dataset,
    parse_dataset,
)
from .encodings import (
    FAMILIES,
    EncodingSpec,
    StageOneScoreError,
    encode_dataset,
    feature_names,
)
from .experiment import (
    MODEL_ORDER,
    REPORT_FORMATS,
    ExperimentConfig,
    emit_report,
    run_grid,
)
from .models import ModelSpec
from .synth import CORPUS_SIZES, MODES, GeneratorConfig, InvalidConfigError, generate

DATA_DIR_ENV = "ARGSTRUCT_DATA_DIR"

# The names each list option of run accepts, mapped to what they select
# (xgb is an alias for gbt).
_NAMES = {
    "encodings": {family: family for family in FAMILIES},
    "models": {**{family: family for family in MODEL_ORDER}, "xgb": "gbt"},
}

# run's hyperparameter flags: (flag, family, ModelSpec field, type, choices).
# Each default is the family's ModelSpec value; family None means every family.
_HYPER = (
    ("--max-iter", None, "max_iter", int, None),
    ("--model-seed", None, "seed", int, None),
    ("--lgr-learning-rate", "lgr", "learning_rate", float, None),
    ("--lgr-l2", "lgr", "regularization", float, None),
    ("--svm-learning-rate", "svm", "learning_rate", float, None),
    ("--svm-l2", "svm", "regularization", float, None),
    ("--svm-loss", "svm", "loss", str, ("hinge", "log")),
    ("--rf-trees", "rforest", "tree_count", int, None),
    ("--rf-max-depth", "rforest", "max_depth", int, None),
    ("--rf-criterion", "rforest", "criterion", str, ("gini", "entropy")),
    ("--gbt-rounds", "gbt", "tree_count", int, None),
    ("--gbt-max-depth", "gbt", "max_depth", int, None),
    ("--gbt-shrinkage", "gbt", "learning_rate", float, None),
    ("--gbt-subsample", "gbt", "subsample", float, None),
)

# synth's generator flags: (flag, GeneratorConfig field, type); each default
# is the GeneratorConfig default.
_GENERATOR = (
    ("--seed", "seed", int),
    ("--max-premises", "max_premises", int),
    ("--premise-mean-hate", "hateful_premise_mean", float),
    ("--premise-std-hate", "hateful_premise_std", float),
    ("--premise-mean-nohate", "nonhateful_premise_mean", float),
    ("--premise-std-nohate", "nonhateful_premise_std", float),
)

_DATA_ERRORS = (DataError, FileNotFoundError, IsADirectoryError)


class UsageError(Exception):
    pass


class OutputError(Exception):
    """Failed to write results; maps to the runtime-error exit code."""


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, unless the flag has none."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _resolve_dataset(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists() or path.is_absolute():
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = Path(data_dir) / path
        if candidate.exists():
            return candidate
    return path


def _write_output(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argstruct parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="argstruct",
        description=(
            "Predict message-level hatefulness from argument-component "
            "structure and annotations."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fmt = _HelpFormatter

    p = subs.add_parser(
        "validate", help="check every record of a dataset file", formatter_class=fmt
    )
    p.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser(
        "stats", help="corpus statistics and contingency table", formatter_class=fmt
    )
    p.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    p.add_argument(
        "--format", choices=("markdown", "json"), default="markdown",
        help="report format",
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser(
        "encode", help="emit feature vectors as CSV", formatter_class=fmt
    )
    p.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    p.add_argument(
        "--encoding", required=True, choices=FAMILIES, help="encoding family"
    )
    p.add_argument(
        "--capacity",
        type=int,
        help="premise slot capacity L; unset means the dataset's maximum",
    )
    p.add_argument(
        "--truncate",
        action="store_true",
        help="drop surplus premises instead of failing on overflow",
    )
    p.add_argument(
        "--stage1-scores",
        help="JSON file of {message id: score} for the two-stage encodings",
    )
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser(
        "synth", help="generate a synthetic dataset", formatter_class=fmt
    )
    p.add_argument("--mode", choices=MODES, default="table1", help="generator mode")
    p.add_argument("--n-hate", type=int, default=CORPUS_SIZES[0], help="hateful messages")
    p.add_argument("--n-nohate", type=int, default=CORPUS_SIZES[1], help="non-hateful messages")
    for flag, field, kind in _GENERATOR:
        p.add_argument(
            flag, type=kind, default=getattr(GeneratorConfig, field),
            help=f"generator {field.replace('_', ' ')}",
        )
    p.add_argument(
        "--ensure-hateful-component",
        action="store_true",
        help="force at least one hateful component into every hateful message",
    )
    p.add_argument("--out", help="write the dataset here instead of stdout")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser(
        "run", help="cross-validated encoding x model grid", formatter_class=fmt
    )
    p.add_argument(
        "--dataset", default=None, help="dataset path (flag or config key; required)"
    )
    p.add_argument(
        "--config",
        help="JSON object of run flag values, checked like flags (explicit flags win)",
    )
    for option, names in _NAMES.items():
        p.add_argument(
            f"--{option}", default="all",
            help=f"comma-separated {option} from {', '.join(names)}, or 'all'",
        )
    p.add_argument("--k", type=int, default=5, help="number of folds")
    p.add_argument("--seed", type=int, default=0, help="fold-assignment seed")
    p.add_argument(
        "--format", choices=REPORT_FORMATS, default="markdown", help="report format"
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--jobs",
        type=int,
        help="parallel task workers; unset means available parallelism",
    )
    p.add_argument(
        "--inner-cv",
        action="store_true",
        help="use out-of-fold stage-1 scores for two-stage training rows",
    )
    p.add_argument(
        "--hard-stage1",
        action="store_true",
        help="threshold stage-1 scores at 0.5 before stage 2",
    )
    p.add_argument(
        "--sample-std",
        action="store_true",
        help="report sample (n-1) instead of population standard deviation",
    )
    for flag, family, field, kind, choices in _HYPER:
        p.add_argument(
            flag, type=kind, choices=choices,
            default=getattr(ModelSpec(family) if family else ModelSpec, field),
            help=f"{field} of {family or 'every family'}",
        )
    p.set_defaults(func=cmd_run)

    return parser, subs.choices


def cmd_validate(args) -> int:
    path = _resolve_dataset(args.dataset)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PartialAnnotationWarning)
        try:
            result = parse_dataset(path, strict=False)
        except EmptyDatasetError as exc:
            for issue in exc.skipped:
                sys.stderr.write(f"invalid record at {issue}\n")
            raise
    for w in caught:
        if issubclass(w.category, PartialAnnotationWarning):
            sys.stderr.write(f"warning: {w.message}\n")
    if result.skipped:
        for issue in result.skipped:
            sys.stderr.write(f"invalid record at {issue}\n")
        sys.stderr.write(f"{len(result.skipped)} invalid record(s)\n")
        return 2
    d = result.dataset
    n_hate = d.class_counts[MessageLabel.HATEFUL]
    sys.stdout.write(
        f"OK: {len(d)} messages ({n_hate} hate, {len(d) - n_hate} nohate), "
        f"premise capacity L={d.premise_capacity}\n"
    )
    return 0


def cmd_stats(args) -> int:
    d = load_dataset(_resolve_dataset(args.dataset))
    report = dataset_stats(d)
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        text = report.to_markdown()
    _write_output(text, args.out)
    return 0


def cmd_encode(args) -> int:
    d = load_dataset(_resolve_dataset(args.dataset))
    capacity = args.capacity if args.capacity is not None else d.premise_capacity
    try:
        spec = EncodingSpec(args.encoding, capacity)
    except ValueError as exc:  # capacity < 1
        raise UsageError(str(exc)) from exc
    scores = None
    if spec.two_stage:
        if not args.stage1_scores:
            raise UsageError(
                f"{spec.family} needs --stage1-scores (a JSON object of "
                "message id to score); scores are fold-dependent model "
                "outputs, produced by the run subcommand"
            )
        try:
            by_id = json.loads(Path(args.stage1_scores).read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON or UTF-8
            raise StageOneScoreError(f"cannot decode {args.stage1_scores}: {exc}") from exc
        if not isinstance(by_id, dict):
            raise StageOneScoreError(f"{args.stage1_scores} must hold a JSON object")
        missing = [msg_id for msg_id in d.ids if msg_id not in by_id]
        if missing:
            raise StageOneScoreError(
                f"{args.stage1_scores} has no stage-1 score for ids {missing[:5]}"
            )
        scores = [by_id[msg_id] for msg_id in d.ids]
        # JSON true and "0.5" would pass float(); only a JSON number is a score
        bad = [s for s in scores if isinstance(s, bool) or not isinstance(s, (int, float))]
        if bad:
            raise StageOneScoreError(f"stage-1 scores must be numbers, got {bad[0]!r}")
        try:
            scores = [float(s) for s in scores]
        except OverflowError as exc:  # an integer beyond float range
            raise StageOneScoreError(f"stage-1 score out of range: {exc}") from exc
    elif args.stage1_scores:
        raise UsageError(f"{spec.family} does not take --stage1-scores")
    X = encode_dataset(d, spec, stage1_scores=scores, truncate=args.truncate)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(feature_names(spec) + ["label"])
    for row, label in zip(X, d.labels()):
        cells = [str(int(v)) if v == int(v) else repr(float(v)) for v in row]
        writer.writerow(cells + [label])
    _write_output(buffer.getvalue(), args.out)
    return 0


def cmd_synth(args) -> int:
    try:
        cfg = GeneratorConfig(
            mode=args.mode,
            n_hateful=args.n_hate,
            n_nonhateful=args.n_nohate,
            ensure_hateful_component=args.ensure_hateful_component,
            **{field: getattr(args, _dest(flag)) for flag, field, _ in _GENERATOR},
        )
    except InvalidConfigError as exc:
        raise UsageError(str(exc)) from exc
    _write_output(dataset_to_jsonl(generate(cfg)), args.out)
    return 0


def _parse_names(args, option: str) -> tuple[str, ...]:
    """What a comma-separated list option (or 'all') selects, in order."""
    names = _NAMES[option]
    text = getattr(args, option)
    if text.strip() == "all":
        return tuple(dict.fromkeys(names.values()))
    chosen = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [n for n in chosen if n not in names]
    if unknown:
        raise UsageError(f"unknown {option} {unknown}; valid: {list(names)}")
    if not chosen:
        raise UsageError(f"empty --{option}")
    return tuple(names[n] for n in chosen)


def _model_specs(args) -> tuple[ModelSpec, ...]:
    """One ModelSpec per selected family, from the _HYPER flags that apply to it."""
    return tuple(
        ModelSpec(
            family,
            **{
                field: getattr(args, _dest(flag))
                for flag, owner, field, _, _ in _HYPER
                if owner in (None, family)
            },
        )
        for family in dict.fromkeys(_parse_names(args, "models"))
    )


def cmd_run(args) -> int:
    if not args.dataset:
        raise UsageError("run needs --dataset (on the command line or in --config)")
    try:
        cfg = ExperimentConfig(
            encodings=_parse_names(args, "encodings"),
            models=_model_specs(args),
            k=args.k,
            seed=args.seed,
            inner_cv=args.inner_cv,
            hard_stage1=args.hard_stage1,
            sample_std=args.sample_std,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    d = load_dataset(_resolve_dataset(args.dataset))
    report = run_grid(d, cfg)
    _write_output(emit_report(report, args.format), args.out)
    return 0


def _config_argv(argv, args, subparser) -> list[str]:
    """argv with the --config file's values as flags ahead of the explicit ones.

    Parsing that again checks config values exactly like flags, and an
    explicit flag, coming later, wins. On/off flags take true/false.
    """
    try:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = [k for k in values if k not in actions]
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")
    tokens = []
    for key, value in values.items():
        switch = actions[key].nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            wanted = "true or false" if switch else "a string or a number"
            raise UsageError(f"config key {key!r} takes {wanted}, not {value!r}")
        flag = actions[key].option_strings[0]
        if not switch:
            tokens.append(f"{flag}={value}")
        elif value:
            tokens.append(flag)
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(_config_argv(argv, args, subparsers[args.command]))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 3
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
