import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.data import (
    ArgComponent,
    Checkworthiness,
    ComponentHate,
    Dataset,
    EmptyDatasetError,
    MalformedRecordError,
    Message,
    MessageLabel,
    PartialAnnotationWarning,
    Role,
    ValidationError,
    dataset_stats,
    dataset_to_jsonl,
    parse_dataset,
    validate_message,
    write_dataset,
)
from argstruct.synth import GeneratorConfig, generate
from messages import make_message


def test_validate_accepts_worked_message(worked_message):
    validate_message(worked_message)


def test_no_premise_rejected():
    m = Message(
        id="x",
        components=(
            ArgComponent(Role.CONCLUSION, 0, Checkworthiness.CFS, ComponentHate.HATEFUL),
        ),
        label=MessageLabel.HATEFUL,
    )
    with pytest.raises(ValidationError) as err:
        validate_message(m)
    assert err.value.code == "NO_PREMISE"
    assert "x" in str(err.value)


def test_no_conclusion_rejected():
    m = Message(
        id="x",
        components=(
            ArgComponent(Role.PREMISE, 0, Checkworthiness.CFS, ComponentHate.HATEFUL),
        ),
        label=MessageLabel.HATEFUL,
    )
    with pytest.raises(ValidationError) as err:
        validate_message(m)
    assert err.value.code == "NO_CONCLUSION"


def test_multiple_conclusions_rejected():
    m = Message(
        id="x",
        components=(
            ArgComponent(Role.PREMISE, 0, Checkworthiness.CFS, ComponentHate.HATEFUL),
            ArgComponent(Role.CONCLUSION, 1, Checkworthiness.CFS, ComponentHate.HATEFUL),
            ArgComponent(Role.CONCLUSION, 2, Checkworthiness.CFS, ComponentHate.HATEFUL),
        ),
        label=MessageLabel.HATEFUL,
    )
    with pytest.raises(ValidationError) as err:
        validate_message(m)
    assert err.value.code == "MULTIPLE_CONCLUSIONS"


def test_conclusion_not_last_rejected():
    m = Message(
        id="x",
        components=(
            ArgComponent(Role.CONCLUSION, 0, Checkworthiness.CFS, ComponentHate.HATEFUL),
            ArgComponent(Role.PREMISE, 1, Checkworthiness.CFS, ComponentHate.HATEFUL),
        ),
        label=MessageLabel.HATEFUL,
    )
    with pytest.raises(ValidationError) as err:
        validate_message(m)
    assert err.value.code == "CONCLUSION_NOT_LAST"


def test_non_contiguous_positions_rejected():
    m = Message(
        id="x",
        components=(
            ArgComponent(Role.PREMISE, 0, Checkworthiness.CFS, ComponentHate.HATEFUL),
            ArgComponent(Role.CONCLUSION, 5, Checkworthiness.CFS, ComponentHate.HATEFUL),
        ),
        label=MessageLabel.HATEFUL,
    )
    with pytest.raises(ValidationError) as err:
        validate_message(m)
    assert err.value.code == "NON_CONTIGUOUS_POSITIONS"


def test_unannotated_in_hateful_message_warns():
    m = make_message(premise_hate=[ComponentHate.UNANNOTATED, ComponentHate.HATEFUL])
    with pytest.warns(PartialAnnotationWarning):
        validate_message(m)


def test_unannotated_in_nonhateful_message_is_silent():
    m = make_message(
        label=MessageLabel.NON_HATEFUL,
        premise_hate=[ComponentHate.UNANNOTATED] * 2,
        conclusion_hate=ComponentHate.UNANNOTATED,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_message(m)


RECORD = {
    "id": "a",
    "label": "hate",
    "components": [
        {"role": "premise", "cw": "CFS", "hate": "nohate"},
        {"role": "conclusion", "cw": "CFS", "hate": "hate"},
    ],
}


def _lines(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def test_parse_two_records():
    other = {
        "id": "b",
        "label": "nohate",
        "components": [
            {"role": "premise", "cw": "NFS", "hate": None},
            {"role": "premise", "cw": "UFS", "hate": None},
            {"role": "premise", "cw": "UFS", "hate": None},
            {"role": "conclusion", "cw": "NFS", "hate": None},
        ],
    }
    result = parse_dataset(_lines(RECORD, other).splitlines())
    assert len(result.dataset) == 2
    assert result.dataset.premise_capacity == 3
    assert result.skipped == ()


def test_parse_missing_label_is_malformed():
    bad = {k: v for k, v in RECORD.items() if k != "label"}
    with pytest.raises(MalformedRecordError) as err:
        parse_dataset(_lines(bad).splitlines())
    assert err.value.line_no == 1


def test_parse_invalid_json_reports_line():
    with pytest.raises(MalformedRecordError) as err:
        parse_dataset([json.dumps(RECORD), "{nonsense"])
    assert err.value.line_no == 2


def test_parse_strict_propagates_validation_error():
    bad = dict(RECORD, components=[RECORD["components"][1]])  # conclusion only
    with pytest.raises(ValidationError) as err:
        parse_dataset(_lines(RECORD, bad).splitlines())
    assert err.value.code == "NO_PREMISE"


def test_parse_lenient_skips_and_counts():
    bad = dict(RECORD, components=[RECORD["components"][1]])
    result = parse_dataset(_lines(RECORD, bad, RECORD).splitlines(), strict=False)
    assert len(result.dataset) == 2
    assert len(result.skipped) == 1
    assert result.skipped[0].line_no == 2


def test_parse_empty_dataset_error():
    with pytest.raises(EmptyDatasetError):
        parse_dataset(["", "   "])


def test_parse_blank_lines_ignored():
    result = parse_dataset(["", json.dumps(RECORD), "   ", ""])
    assert len(result.dataset) == 1


def test_parse_accepts_bytes():
    result = parse_dataset(_lines(RECORD).encode("utf-8"))
    assert result.dataset.messages[0].id == "a"


def test_corpus_sized_file_class_counts(tmp_path, table1_dataset):
    path = tmp_path / "corpus.jsonl"
    write_dataset(table1_dataset, path)
    d = parse_dataset(path).dataset
    assert d.class_counts[MessageLabel.HATEFUL] == 227
    assert d.class_counts[MessageLabel.NON_HATEFUL] == 136


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_hate=st.integers(1, 12), n_nohate=st.integers(1, 12))
def test_serialize_parse_round_trip(seed, n_hate, n_nohate):
    d = generate(
        GeneratorConfig(mode="table1", n_hateful=n_hate, n_nonhateful=n_nohate, seed=seed)
    )
    assert parse_dataset(dataset_to_jsonl(d).splitlines()).dataset == d


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_parsed_messages_pass_validation(seed):
    d = generate(GeneratorConfig(mode="separable", n_hateful=5, n_nonhateful=5, seed=seed))
    reparsed = parse_dataset(dataset_to_jsonl(d).splitlines()).dataset
    for m in reparsed:
        validate_message(m)


def test_stats_exact_counts(small_dataset):
    report = dataset_stats(small_dataset)
    assert report.n_messages == 6
    assert report.n_components == 12 + 6  # premises + one conclusion each
    assert report.premise_capacity == 3
    assert report.class_counts[MessageLabel.HATEFUL] == 3
    assert report.premise_mean[MessageLabel.HATEFUL] == pytest.approx(2.0)
    assert report.premise_mean[MessageLabel.NON_HATEFUL] == pytest.approx(2.0)
    key = (MessageLabel.HATEFUL, Role.PREMISE, Checkworthiness.NFS, ComponentHate.HATEFUL)
    assert report.cells[key] == 1
    assert sum(report.cw_totals.values()) == report.n_components


def test_stats_single_message():
    d = Dataset((make_message("solo", n_premises=1),))
    report = dataset_stats(d)
    assert report.premise_capacity == 1
    assert report.n_components == 2


def test_stats_empty_dataset_raises():
    with pytest.raises(EmptyDatasetError):
        dataset_stats(Dataset(()))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_stats_cells_sum_to_totals(seed):
    d = generate(GeneratorConfig(mode="table1", n_hateful=8, n_nonhateful=8, seed=seed))
    report = dataset_stats(d)
    assert sum(report.cells.values()) == report.n_components
    assert sum(report.class_counts.values()) == report.n_messages
    assert sum(report.cw_totals.values()) == report.n_components


def test_stats_markdown_and_dict(small_dataset):
    report = dataset_stats(small_dataset)
    text = report.to_markdown()
    assert "premise capacity L=3" in text
    payload = report.to_dict()
    assert payload["n_messages"] == 6
    assert sum(cell["count"] for cell in payload["cells"]) == payload["n_components"]
