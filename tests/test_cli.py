import json

import pytest

from argstruct import cli
from argstruct.cli import main
from argstruct.data import (
    EmptyDatasetError,
    MalformedRecordError,
    ValidationError,
    dataset_to_jsonl,
)
from argstruct.encodings import (
    MissingStageOneScoreError,
    PremiseOverflowError,
    StageOneScoreError,
    UnexpectedStageOneScoreError,
)
from argstruct.evaluation import (
    ClassTooSmallError,
    EmptyMatrixError,
    KTooSmallError,
    LengthMismatchError,
    NonBinaryLabelError,
    TooFewFoldsError,
)
from argstruct.models import (
    DimensionMismatchError,
    EmptyTrainingSetError,
    NonFiniteInputError,
    SingleClassError,
)
from argstruct.synth import GeneratorConfig, generate


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.jsonl"
    d = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=25, seed=0))
    path.write_text(dataset_to_jsonl(d), encoding="utf-8")
    return path


def test_synth_then_validate(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    assert main([
        "synth", "--mode", "separable", "--n-hate", "10", "--n-nohate", "10",
        "--seed", "7", "--out", str(out),
    ]) == 0
    assert main(["validate", "--dataset", str(out)]) == 0
    captured = capsys.readouterr()
    assert "OK: 20 messages (10 hate, 10 nohate)" in captured.out


def test_validate_reports_bad_record_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    good = (
        '{"id":"a","label":"hate","components":['
        '{"role":"premise","cw":"CFS","hate":"hate"},'
        '{"role":"conclusion","cw":"CFS","hate":"hate"}]}'
    )
    no_premise = (
        '{"id":"b","label":"hate","components":['
        '{"role":"conclusion","cw":"CFS","hate":"hate"}]}'
    )
    path.write_text(good + "\n" + no_premise + "\n", encoding="utf-8")
    assert main(["validate", "--dataset", str(path)]) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert "NO_PREMISE" in captured.err


def test_stats_formats(dataset_file, tmp_path, capsys):
    assert main(["stats", "--dataset", str(dataset_file)]) == 0
    assert "premise capacity" in capsys.readouterr().out
    out = tmp_path / "stats.json"
    assert main([
        "stats", "--dataset", str(dataset_file), "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["class_counts"] == {"hate": 30, "nohate": 25}


def test_encode_csv_header_and_rows(dataset_file, capsys):
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str-hs",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "p0"
    assert header[-2:] == ["concl_hs", "label"]
    assert len(lines) == 56  # header + one row per message


def test_encode_two_stage_requires_scores(dataset_file, capsys):
    code = main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str-c-given-p",
    ])
    assert code == 1
    assert "stage1" in capsys.readouterr().err.lower()


def test_encode_two_stage_with_scores(dataset_file, tmp_path, capsys):
    d = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=25, seed=0))
    scores_path = tmp_path / "scores.json"
    scores_path.write_text(json.dumps({m.id: 0.5 for m in d}), encoding="utf-8")
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str-c-given-p",
        "--stage1-scores", str(scores_path),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stage1,concl,label"


@pytest.mark.parametrize(
    "first_score",
    ["1.5", "NaN", '"high"', "{", None, "true", '"0.5"', "1" + "0" * 400],
    ids=["out-of-range", "nan", "not-a-number", "invalid-json", "not-an-object",
         "bool", "numeric-string", "huge-int"],
)
def test_encode_bad_stage1_scores_is_data_error(dataset_file, tmp_path, capsys, first_score):
    d = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=25, seed=0))
    scores_path = tmp_path / "scores.json"
    if first_score is None:
        text = "0.5"
    else:
        rest = "".join(f', "{m.id}": 0.5' for m in d.messages[1:])
        text = f'{{"{d.messages[0].id}": {first_score}{rest}}}'
    scores_path.write_text(text, encoding="utf-8")
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str-c-given-p",
        "--stage1-scores", str(scores_path),
    ]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_encode_stage1_scores_missing_ids_names_the_file(dataset_file, tmp_path, capsys):
    scores_path = tmp_path / "scores.json"
    scores_path.write_text(json.dumps({"h00000": 0.5}), encoding="utf-8")
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str-c-given-p",
        "--stage1-scores", str(scores_path),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {scores_path} has no stage-1 score for ids")
    assert "line 0" not in err


def test_encode_capacity_overflow_and_truncate(dataset_file, capsys):
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str",
        "--capacity", "1",
    ]) == 2
    capsys.readouterr()
    assert main([
        "encode", "--dataset", str(dataset_file), "--encoding", "arg-str",
        "--capacity", "1", "--truncate",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p0,concl,label"


def test_run_markdown_and_determinism(dataset_file, capsys):
    args = [
        "run", "--dataset", str(dataset_file), "--encodings", "arg-str,arg-str-hs",
        "--models", "lgr", "--k", "2", "--jobs", "1",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "| Encoding | Model | Precision | Recall | Macro F1 |"
    assert len(first.splitlines()) == 4


def test_run_csv_format(dataset_file, capsys):
    assert main([
        "run", "--dataset", str(dataset_file), "--encodings", "arg-str",
        "--models", "lgr,xgb", "--k", "2", "--format", "csv", "--jobs", "1",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("encoding,model,precision_mean")
    assert len(lines) == 3
    assert lines[2].startswith("arg-str,gbt,")  # xgb aliases to gbt


def test_run_rejects_unknown_names(dataset_file, capsys):
    assert main([
        "run", "--dataset", str(dataset_file), "--encodings", "arg-struct",
        "--models", "lgr", "--jobs", "1",
    ]) == 1
    capsys.readouterr()
    assert main([
        "run", "--dataset", str(dataset_file), "--encodings", "arg-str",
        "--models", "resnet", "--jobs", "1",
    ]) == 1


def test_unknown_flag_rejected(dataset_file):
    assert main(["run", "--dataset", str(dataset_file), "--frobnicate"]) == 1


def test_help_exits_zero_and_lists_defaults(capsys):
    assert main(["run", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--encodings" in text
    assert "default: all" in text
    assert "--gbt-shrinkage" in text
    assert "(default: None)" not in text


@pytest.mark.parametrize("command", ("validate", "stats", "encode", "synth", "run"))
def test_every_subcommand_has_help(command, capsys):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "--dataset" in text or command == "synth"
    if command == "synth":
        assert "default: 227" in text


def test_missing_dataset_file_is_data_error(tmp_path, capsys):
    assert main(["stats", "--dataset", str(tmp_path / "nope.jsonl")]) == 2


def test_out_to_bad_directory_is_runtime_error(dataset_file, tmp_path):
    assert main([
        "stats", "--dataset", str(dataset_file),
        "--out", str(tmp_path / "missing" / "x.md"),
    ]) == 3


def test_config_file_defaults_and_override(dataset_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"k": 3, "encodings": "arg-str", "models": "lgr",
                                  "jobs": 1, "format": "json"}))
    assert main(["run", "--dataset", str(dataset_file), "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3
    # explicit flag beats the config value
    assert main([
        "run", "--dataset", str(dataset_file), "--config", str(config), "--k", "2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 2


def test_config_file_rejects_unknown_keys(dataset_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"folds": 3}))
    assert main(["run", "--dataset", str(dataset_file), "--config", str(config)]) == 1


def test_config_file_can_supply_dataset(dataset_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dataset": str(dataset_file), "encodings": "arg-str", "models": "lgr",
        "k": 2, "jobs": 1,
    }))
    assert main(["run", "--config", str(config)]) == 0
    assert "arg-str" in capsys.readouterr().out


def test_run_without_dataset_anywhere_is_usage_error(capsys):
    assert main(["run", "--encodings", "arg-str", "--models", "lgr"]) == 1
    assert "--dataset" in capsys.readouterr().err


def test_validate_all_records_invalid_lists_every_line(tmp_path, capsys):
    no_premise = (
        '{"id":"b","label":"hate","components":['
        '{"role":"conclusion","cw":"CFS","hate":"hate"}]}'
    )
    path = tmp_path / "allbad.jsonl"
    path.write_text(no_premise + "\n" + "not json\n", encoding="utf-8")
    assert main(["validate", "--dataset", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "line 2" in err


def test_env_var_dataset_directory(dataset_file, monkeypatch, capsys):
    monkeypatch.setenv("ARGSTRUCT_DATA_DIR", str(dataset_file.parent))
    monkeypatch.chdir(dataset_file.parent.parent)
    assert main(["validate", "--dataset", dataset_file.name]) == 0


def test_synth_run_pipeline_learns_planted_rule(tmp_path, capsys):
    data = tmp_path / "s.jsonl"
    assert main([
        "synth", "--mode", "separable", "--n-hate", "100", "--n-nohate", "100",
        "--seed", "7", "--out", str(data),
    ]) == 0
    assert main([
        "run", "--dataset", str(data), "--encodings", "arg-str-hs",
        "--models", "lgr", "--k", "5", "--seed", "0", "--format", "csv",
        "--jobs", "1",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    f1_mean = float(lines[1].split(",")[6])
    assert f1_mean >= 0.95


def test_validate_surfaces_partial_annotation_warning(tmp_path, capsys):
    record = (
        '{"id":"a","label":"hate","components":['
        '{"role":"premise","cw":"CFS","hate":null},'
        '{"role":"conclusion","cw":"CFS","hate":"hate"}]}'
    )
    path = tmp_path / "part.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    assert main(["validate", "--dataset", str(path)]) == 0
    assert "unannotated" in capsys.readouterr().err


_RUN = ["run", "--dataset", "{data}"]

_GOOD = {
    "id": "a",
    "label": "hate",
    "components": [
        {"role": "premise", "cw": "CFS", "hate": "nohate"},
        {"role": "conclusion", "cw": "CFS", "hate": "hate"},
    ],
}
_TEXT = {"role": "premise", "cw": "NFS", "hate": "hate"}
# dataset files, by name, whose records do not round-trip or repeat an id
_BAD_RECORDS = {
    "null_id": [dict(_GOOD, id=None)],
    "bool_id": [dict(_GOOD, id=True)],
    "float_id": [dict(_GOOD, id=1.5)],
    "int_text": [dict(_GOOD, components=[dict(_TEXT, text=5), _GOOD["components"][1]])],
    "list_text": [dict(_GOOD, components=[dict(_TEXT, text=[1]), _GOOD["components"][1]])],
    "duplicate_id": [_GOOD, dict(_GOOD, label="nohate")],
}


@pytest.mark.parametrize(
    "argv, config, code, prefix",
    [
        pytest.param(_RUN, {"k": 2.5}, 1, "argstruct run: error:", id="config-k-float"),
        pytest.param(
            _RUN, {"encodings": ["arg-str"]}, 1, "usage error:", id="config-encodings-list"
        ),
        pytest.param(_RUN, {"models": 5}, 1, "usage error:", id="config-models-number"),
        pytest.param(_RUN, {"format": "xml"}, 1, "argstruct run: error:", id="config-format"),
        pytest.param(_RUN, {"inner_cv": "no"}, 1, "usage error:", id="config-switch-string"),
        pytest.param(_RUN, {"seed": -1}, 1, "usage error:", id="config-seed-negative"),
        pytest.param(_RUN + ["--seed", "-1"], None, 1, "usage error:", id="run-seed-negative"),
        pytest.param(["synth", "--seed", "-1"], None, 1, "usage error:", id="synth-seed-negative"),
        pytest.param(["synth", "--n-hate", "0"], None, 1, "usage error:", id="synth-n-hate"),
        pytest.param(
            ["synth", "--premise-std-hate", "-1"], None, 1, "usage error:", id="synth-std"
        ),
        pytest.param(
            ["synth", "--max-premises", "0"], None, 1, "usage error:", id="synth-max-premises"
        ),
        pytest.param(
            ["synth", "--premise-mean-hate", "nan"], None, 1, "usage error:",
            id="synth-mean-nan",
        ),
        pytest.param(
            ["synth", "--premise-std-hate", "nan"], None, 1, "usage error:", id="synth-std-nan"
        ),
        pytest.param(_RUN + ["--lgr-l2", "nan"], None, 1, "usage error:", id="run-lgr-l2-nan"),
        pytest.param(_RUN + ["--svm-l2", "nan"], None, 1, "usage error:", id="run-svm-l2-nan"),
        pytest.param(_RUN + ["--lgr-l2", "inf"], None, 1, "usage error:", id="run-lgr-l2-inf"),
        pytest.param(
            _RUN + ["--lgr-learning-rate", "inf"], None, 1, "usage error:",
            id="run-lgr-learning-rate-inf",
        ),
        pytest.param(
            ["encode", "--dataset", "{data}", "--encoding", "arg-str", "--capacity", "0"],
            None, 1, "usage error:", id="encode-capacity-0",
        ),
        pytest.param(
            ["validate", "--dataset", "{not_utf8}"], None, 2, "invalid record at line 1:",
            id="validate-not-utf8",
        ),
        pytest.param(
            ["stats", "--dataset", "{not_utf8}"], None, 2, "data error: line 1:",
            id="stats-not-utf8",
        ),
        pytest.param(
            ["validate", "--dataset", "{big_int}"], None, 2, "invalid record at line 1:",
            id="validate-big-int",
        ),
        pytest.param(
            ["stats", "--dataset", "{big_int}"], None, 2, "data error: line 1:",
            id="stats-big-int",
        ),
        pytest.param(
            ["validate", "--dataset", "{deep}"], None, 2,
            "invalid record at line 1: line 1: invalid JSON: maximum recursion depth exceeded",
            id="validate-deep-nesting",
        ),
        pytest.param(
            ["stats", "--dataset", "{deep}"], None, 2, "data error: line 1: invalid JSON:",
            id="stats-deep-nesting",
        ),
        pytest.param(
            ["validate", "--dataset", "{null_id}"], None, 2, "invalid record at line 1:",
            id="validate-null-id",
        ),
        pytest.param(
            ["stats", "--dataset", "{null_id}"], None, 2, "data error: line 1:",
            id="stats-null-id",
        ),
        pytest.param(
            ["validate", "--dataset", "{bool_id}"], None, 2, "invalid record at line 1:",
            id="validate-bool-id",
        ),
        pytest.param(
            ["stats", "--dataset", "{float_id}"], None, 2, "data error: line 1:",
            id="stats-float-id",
        ),
        pytest.param(
            ["validate", "--dataset", "{int_text}"], None, 2, "invalid record at line 1:",
            id="validate-int-text",
        ),
        pytest.param(
            ["stats", "--dataset", "{list_text}"], None, 2, "data error: line 1:",
            id="stats-list-text",
        ),
        pytest.param(
            ["validate", "--dataset", "{duplicate_id}"], None, 2,
            "invalid record at line 2: DUPLICATE_ID", id="validate-duplicate-id",
        ),
        pytest.param(
            ["stats", "--dataset", "{duplicate_id}"], None, 2, "data error: DUPLICATE_ID",
            id="stats-duplicate-id",
        ),
        pytest.param(
            ["encode", "--dataset", "{duplicate_id}", "--encoding", "arg-str"], None, 2,
            "data error: DUPLICATE_ID", id="encode-duplicate-id",
        ),
    ],
)
def test_bad_input_exits_with_documented_code(
    dataset_file, tmp_path, capsys, argv, config, code, prefix
):
    not_utf8 = tmp_path / "not_utf8.jsonl"
    not_utf8.write_bytes(b"\xff\xfe" + dataset_file.read_bytes())
    # json.loads raises a plain ValueError on an integer of more than 4300 digits
    big_int = tmp_path / "big_int.jsonl"
    big_int.write_text('{"id": ' + "1" * 5000 + "}\n", encoding="utf-8")
    # json.loads raises RecursionError on nesting past the interpreter's limit
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 200_000 + "\n", encoding="utf-8")
    files = {"data": dataset_file, "not_utf8": not_utf8, "big_int": big_int, "deep": deep}
    for name, lines in _BAD_RECORDS.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    argv = [a.format(**files) for a in argv]
    if config is not None:
        path = tmp_path / "run.json"
        small = {"encodings": "arg-str", "models": "lgr", "k": 2, "jobs": 1}
        path.write_text(json.dumps({**small, **config}))
        argv += ["--config", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert any(line.startswith(prefix) for line in err.splitlines()), err
    assert "runtime error:" not in err


@pytest.mark.parametrize(
    "error",
    [
        ValidationError("NO_PREMISE", "m1"),
        MalformedRecordError(1, "bad"),
        EmptyDatasetError("none"),
        PremiseOverflowError("m1", 7, 6),
        MissingStageOneScoreError("missing"),
        UnexpectedStageOneScoreError("unexpected"),
        StageOneScoreError("out of range"),
        ClassTooSmallError("small"),
        NonBinaryLabelError("label 2 is not 0 or 1"),
        KTooSmallError("k"),
        LengthMismatchError("length"),
        EmptyMatrixError("empty"),
        TooFewFoldsError("folds"),
        SingleClassError("one class"),
        EmptyTrainingSetError("no rows"),
        DimensionMismatchError("width"),
        NonFiniteInputError("nan"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_every_data_error_exits_2(dataset_file, monkeypatch, capsys, error):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "load_dataset", fail)
    assert main(["stats", "--dataset", str(dataset_file)]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_config_values_match_the_same_flags(dataset_file, tmp_path, capsys):
    values = {
        "lgr_learning_rate": 0.05, "lgr_l2": 0.01, "svm_learning_rate": 0.2,
        "svm_l2": 0.01, "svm_loss": "log", "rf_trees": 20, "rf_max_depth": 4,
        "rf_criterion": "entropy", "gbt_rounds": 20, "gbt_max_depth": 2,
        "gbt_shrinkage": 0.2, "gbt_subsample": 0.6, "max_iter": 300, "model_seed": 4,
    }
    base = [
        "run", "--dataset", str(dataset_file), "--encodings",
        "arg-str,arg-str-c-given-p-cw,arg-str-cw-hs", "--k", "2", "--jobs", "1",
        "--format", "json",
    ]
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    assert main(base + flags) == 0
    by_flags = capsys.readouterr().out
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    assert main(base + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == by_flags
    assert main(base) == 0
    assert capsys.readouterr().out != by_flags  # the values took effect
