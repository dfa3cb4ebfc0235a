import json

import pytest

from argstruct.cli import main
from argstruct.data import dataset_to_jsonl
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
    ["1.5", "NaN", '"high"', "{", None],
    ids=["out-of-range", "nan", "not-a-number", "invalid-json", "not-an-object"],
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
