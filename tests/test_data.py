import dataclasses
import io
import itertools
import json
import os
import threading
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
from argstruct import data
from argstruct.synth import GeneratorConfig, generate
import data_oracle
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
    result = parse_dataset(_lines(RECORD, bad, dict(RECORD, id="c")).splitlines(), strict=False)
    assert len(result.dataset) == 2
    assert len(result.skipped) == 1
    assert result.skipped[0].line_no == 2


def test_parse_lenient_skips_an_integer_past_the_digit_limit():
    # json.loads raises a plain ValueError, not a JSONDecodeError, on such a record
    big = '{"id": "b", "n": ' + "9" * 5000 + "}"
    lines = [json.dumps(RECORD), big, json.dumps(dict(RECORD, id="c"))]
    result = parse_dataset(lines, strict=False)
    assert result.dataset.ids == ("a", "c")
    assert [issue.line_no for issue in result.skipped] == [2]
    assert isinstance(result.skipped[0].error, MalformedRecordError)
    assert "invalid JSON: Exceeds the limit (4300 digits)" in str(result.skipped[0].error)
    with pytest.raises(MalformedRecordError, match="invalid JSON"):
        parse_dataset(lines)


def test_parse_lenient_skips_a_record_nested_past_the_recursion_limit():
    lines = [json.dumps(RECORD), "[" * 200_000, json.dumps(dict(RECORD, id="c"))]
    for source in (lines, "\n".join(lines).encode()):
        result = parse_dataset(source, strict=False)
        assert result.dataset.ids == ("a", "c")
        assert [issue.line_no for issue in result.skipped] == [2]
        assert "invalid JSON: maximum recursion depth exceeded" in str(result.skipped[0].error)
        with pytest.raises(MalformedRecordError, match="line 2: invalid JSON"):
            parse_dataset(source)


def test_parse_empty_dataset_error():
    with pytest.raises(EmptyDatasetError):
        parse_dataset(["", "   "])


def test_parse_blank_lines_ignored():
    result = parse_dataset(["", json.dumps(RECORD), "   ", ""])
    assert len(result.dataset) == 1


def test_parse_accepts_bytes():
    result = parse_dataset(_lines(RECORD).encode("utf-8"))
    assert result.dataset.messages[0].id == "a"


def test_integer_id_reads_as_its_decimal_string():
    d = parse_dataset(_lines(dict(RECORD, id=7)).splitlines()).dataset
    assert d.ids == ("7",)
    assert json.loads(dataset_to_jsonl(d))["id"] == "7"


@pytest.mark.parametrize("msg_id", [None, True, 1.5, [1], {"a": 1}])
def test_id_that_is_no_string_or_integer_is_malformed(msg_id):
    with pytest.raises(MalformedRecordError, match="bad record: TypeError") as err:
        parse_dataset(_lines(RECORD, dict(RECORD, id=msg_id)).splitlines())
    assert err.value.line_no == 2


@pytest.mark.parametrize("text", [5, [1], True, {"a": "b"}])
def test_text_that_is_no_string_or_null_is_malformed(text):
    components = [dict(RECORD["components"][0], text=text), RECORD["components"][1]]
    with pytest.raises(MalformedRecordError, match="bad component 0: TypeError"):
        parse_dataset(_lines(dict(RECORD, components=components)).splitlines())


def test_repeated_id_is_rejected_on_the_later_line():
    lines = _lines(RECORD, dict(RECORD, id="b"), dict(RECORD, label="nohate")).splitlines()
    with pytest.raises(ValidationError, match="line 1 has the same id") as err:
        parse_dataset(lines)
    assert err.value.code == "DUPLICATE_ID"
    result = parse_dataset(lines, strict=False)
    assert result.dataset.ids == ("a", "b")
    assert [issue.line_no for issue in result.skipped] == [3]


def test_repeated_id_of_a_skipped_record_is_accepted():
    """DUPLICATE_ID looks only at the earlier accepted records, on either path."""
    lines = _lines(dict(RECORD, components=RECORD["components"][1:]), RECORD).splitlines()
    for source in (lines, "\n".join(lines).encode()):
        result = parse_dataset(source, strict=False)
        assert result.dataset.ids == ("a",)
        assert [(i.line_no, i.error.code) for i in result.skipped] == [(1, "NO_PREMISE")]


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
    d = Dataset.from_messages((make_message("solo", n_premises=1),))
    report = dataset_stats(d)
    assert report.premise_capacity == 1
    assert report.n_components == 2


def test_from_messages_raises_what_validate_message_raises():
    good = make_message("a")
    moved = dataclasses.replace(good.components[-1], position=5)
    bad = dataclasses.replace(good, id="b", components=(*good.components[:-1], moved))
    with pytest.raises(ValidationError) as expected:
        validate_message(bad)
    with pytest.raises(ValidationError) as err:
        Dataset.from_messages((good, bad, bad))
    assert (err.value.code, str(err.value)) == (expected.value.code, str(expected.value))
    assert err.value.code == "NON_CONTIGUOUS_POSITIONS"


def test_stats_empty_dataset_raises():
    with pytest.raises(EmptyDatasetError):
        dataset_stats(Dataset.from_messages(()))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_stats_cells_sum_to_totals(seed):
    d = generate(GeneratorConfig(mode="table1", n_hateful=8, n_nonhateful=8, seed=seed))
    report = dataset_stats(d)
    assert sum(report.cells.values()) == report.n_components
    assert sum(report.class_counts.values()) == report.n_messages
    assert sum(report.cw_totals.values()) == report.n_components


@pytest.mark.parametrize("mode", ["table1", "separable"])
def test_stats_match_object_oracle_on_a_corpus_sized_set(mode):
    """The premise-count moments keep their bits: np.sum's pairwise order
    would move the last bit of the std on a set this size."""
    d = generate(GeneratorConfig(mode=mode, n_hateful=227, n_nonhateful=136, seed=501))
    got, expected = dataset_stats(d), data_oracle.dataset_stats(d.messages)
    assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
    assert got.to_markdown() == expected.to_markdown()


def test_stats_markdown_and_dict(small_dataset):
    report = dataset_stats(small_dataset)
    text = report.to_markdown()
    assert "premise capacity L=3" in text
    payload = report.to_dict()
    assert payload["n_messages"] == 6
    assert sum(cell["count"] for cell in payload["cells"]) == payload["n_components"]


_ROLES = ["premise", "conclusion"]
_CWS = ["NFS", "UFS", "CFS"]
_HATES = [None, "hate", "nohate", "unannotated"]
# values no enum accepts: unknown, of the wrong type, or unhashable
_BAD_VALUES = ["maybe", "", "HATE", 1, 0.5, True, None, [1], {"a": 1}, []]


@st.composite
def _component(draw, role):
    component = {"role": role, "cw": draw(st.sampled_from(_CWS))}
    if draw(st.booleans()):
        component["hate"] = draw(st.sampled_from(_HATES))
    if draw(st.booleans()):
        component["text"] = draw(st.none() | st.text(max_size=6))
    return component


@st.composite
def _record(draw, msg_id):
    """A record of a valid message: premises, then the conclusion."""
    roles = ["premise"] * draw(st.integers(1, 4)) + ["conclusion"]
    return {
        "id": msg_id,
        "label": draw(st.sampled_from(["hate", "nohate"])),
        "components": [draw(_component(role)) for role in roles],
    }


@st.composite
def _line(draw, line_index):
    """One dataset line (bytes, no newline): a valid record, or one broken in one way."""
    record = draw(_record(draw(st.sampled_from(["m", "é", "id "])) + str(line_index)))
    components = record["components"]
    kind = draw(st.sampled_from([
        "valid", "valid", "valid", "bad-json", "not-utf8", "not-object", "missing-key",
        "bad-value", "missing-component-key", "components-not-list", "component-not-dict",
        "roles", "blank",
    ]))
    if kind == "bad-json":
        return draw(st.sampled_from([
            b"{nonsense", b'{"id": "x",', b"[1,", b"nul", b"{}}", b'{"id": ' + b"7" * 4301 + b"}",
            b"[" * 100_000,
        ]))
    if kind == "not-utf8":
        return draw(st.sampled_from([b"\xff\xfe", b"\xc3", b"\xed\xa0\x80"])) + json.dumps(
            record
        ).encode()
    if kind == "not-object":
        return draw(st.sampled_from([b"[1, 2]", b'"text"', b"3", b"null", b"true"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"   ", b"\t", b"\r"]))
    if kind == "missing-key":
        del record[draw(st.sampled_from(["id", "label", "components"]))]
    elif kind == "bad-value":
        target = draw(st.sampled_from(["label", "role", "cw", "hate"]))
        value = draw(st.sampled_from(_BAD_VALUES))
        if target == "label":
            record["label"] = value
        else:
            draw(st.sampled_from(components))[target] = value
    elif kind == "missing-component-key":
        component = draw(st.sampled_from(components))
        component.pop(draw(st.sampled_from(["role", "cw"])))
    elif kind == "components-not-list":
        record["components"] = draw(st.sampled_from([{"a": 1}, "premise", None, 5]))
    elif kind == "component-not-dict":
        i = draw(st.integers(0, len(components) - 1))
        components[i] = draw(st.sampled_from(["premise", 1, None, [1], True]))
    elif kind == "roles":  # NO_PREMISE, NO_CONCLUSION, MULTIPLE_CONCLUSIONS, CONCLUSION_NOT_LAST
        roles = draw(st.lists(st.sampled_from(_ROLES), max_size=5))
        record["components"] = [draw(_component(role)) for role in roles]
    return json.dumps(record, ensure_ascii=draw(st.booleans())).encode()


def _issues(skipped):
    return [(i.line_no, type(i.error), str(i.error)) for i in skipped]


def _parse_outcome(parse, stats, to_jsonl, source, strict):
    """What a parser does with ``source``: its error, or its messages,
    skipped records, statistics and serialization; plus its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            messages, skipped, dataset = parse(source, strict)
        except (MalformedRecordError, ValidationError, EmptyDatasetError) as exc:
            outcome = (type(exc), str(exc), getattr(exc, "line_no", None),
                       _issues(getattr(exc, "skipped", ())))
        else:
            report = stats(dataset)
            outcome = (messages, _issues(skipped), json.dumps(report.to_dict()),
                       report.to_markdown(), to_jsonl(dataset))
    return outcome, [(w.category, str(w.message)) for w in caught]


def _columnar_parse(source, strict):
    result = parse_dataset(source, strict)
    return result.dataset.messages, result.skipped, result.dataset


def _oracle_parse(source, strict):
    messages, skipped = data_oracle.parse_dataset(source, strict)
    return messages, skipped, messages


@settings(max_examples=250, deadline=None)
@given(data=st.data(), n_lines=st.integers(1, 8), strict=st.booleans(),
       as_lines=st.booleans())
def test_parse_matches_object_oracle(data, n_lines, strict, as_lines):
    """Messages, skipped records, warnings, statistics, serialized bytes and
    the first error's type, text and line equal the object-per-message
    parser's, on valid and broken lines in strict and lenient mode."""
    lines = [data.draw(_line(i)) for i in range(n_lines)]
    source = [line + b"\n" for line in lines] if as_lines else b"\n".join(lines)
    expected = _parse_outcome(
        _oracle_parse, data_oracle.dataset_stats, data_oracle.dataset_to_jsonl, source, strict
    )
    got = _parse_outcome(_columnar_parse, dataset_stats, dataset_to_jsonl, source, strict)
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(
    roles=st.lists(st.sampled_from(list(Role)), max_size=5),
    shift=st.sampled_from([0, 0, 0, 1, -1]),
    label=st.sampled_from(list(MessageLabel)),
    hates=st.lists(st.sampled_from(list(ComponentHate)), min_size=5, max_size=5),
)
def test_validate_message_matches_object_oracle(roles, shift, label, hates):
    """Each ValidationError code and text, and the warning, as the original
    validate_message gives them; ``shift`` moves the last position."""
    components = tuple(
        ArgComponent(role, i + shift * (i == len(roles) - 1), Checkworthiness.CFS, hate)
        for i, (role, hate) in enumerate(zip(roles, hates))
    )
    m = Message("x", components, label)
    outcomes = []
    for validate in (data_oracle.validate_message, validate_message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                validate(m)
                error = None
            except ValidationError as exc:
                error = (exc.code, str(exc))
        outcomes.append((error, [(w.category, str(w.message)) for w in caught]))
    assert outcomes[0] == outcomes[1]


def _synth_bytes(mode, seed, n_hateful=9, n_nonhateful=7, with_texts=False):
    d = generate(GeneratorConfig(mode=mode, n_hateful=n_hateful, n_nonhateful=n_nonhateful,
                                 seed=seed))
    if with_texts:  # non-ASCII, escaped and absent texts
        texts = ["é \u2028 ü\n\"x\"", None, "", "😀"]
        d = dataclasses.replace(d, texts=[texts[i % 4] for i in range(len(d.texts))])
    return dataset_to_jsonl(d).encode()


def _per_line_outcome(source, strict):
    """What ``parse_dataset`` does with ``source``: its dataset and skipped
    records, or its error's type, text, line and skipped records; plus its
    warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse_dataset(source, strict)
        except (MalformedRecordError, ValidationError, EmptyDatasetError) as exc:
            outcome = (type(exc), str(exc), getattr(exc, "line_no", None),
                       _issues(getattr(exc, "skipped", ())))
        else:
            outcome = (result.dataset, _issues(result.skipped))
    return outcome, [(w.category, str(w.message)) for w in caught]


def _decoded_lines(monkeypatch) -> list:
    """The line numbers the per-line decoder is given from here on, in order."""
    decoded = []
    decode_line = data._Records.decode_line

    def recorded(records, line, line_no):
        decoded.append(line_no)
        return decode_line(records, line, line_no)

    monkeypatch.setattr(data._Records, "decode_line", recorded)
    return decoded


def _decode_each_line(records, lines):
    for line_no, line in enumerate(lines, 1):
        records.decode_line(line, line_no)


def _per_line_loop_outcome(source, strict, monkeypatch):
    """``_per_line_outcome`` of ``source`` with every line sent to the
    per-line decoder, ``json.loads``: the reference for the scan."""
    with monkeypatch.context() as patch:
        patch.setattr(data._Records, "read", _decode_each_line)
        return _per_line_outcome(source, strict)


@pytest.mark.parametrize("with_texts", [False, True])
@pytest.mark.parametrize("mode", ["table1", "separable"])
@pytest.mark.parametrize("seed", [501, 502, 7])
def test_one_scan_parses_generated_files_as_the_per_line_loop(
    mode, seed, with_texts, tmp_path, monkeypatch
):
    """Every line of a generated file takes the scan, from a path, from bytes
    and from a list of bytes or str lines, with and without its last newline,
    and the scan gives the per-line loop's result."""
    raw = _synth_bytes(mode, seed, 227, 136, with_texts)
    path = tmp_path / "d.jsonl"
    path.write_bytes(raw)
    for strict in (True, False):
        expected = [_per_line_loop_outcome(source, strict, monkeypatch)
                    for source in (raw, raw[:-1])]
        with monkeypatch.context() as patch:
            decoded = _decoded_lines(patch)
            got = [_per_line_outcome(source, strict) for source in (path, raw[:-1])]
            str_lines = [line.decode("utf-8") for line in io.BytesIO(raw)]
            as_lines = [_per_line_outcome(lines, strict)
                        for lines in (list(io.BytesIO(raw)), str_lines)]
        assert got == expected
        assert as_lines == [expected[0], expected[0]]
        assert decoded == []


def _record_with(line: bytes, **changes) -> bytes:
    return json.dumps({**json.loads(line), **changes}, ensure_ascii=False).encode()


def _components_with(line: bytes, change) -> bytes:
    """``line`` with its components replaced by ``change(components)``."""
    return _record_with(line, components=change(json.loads(line)["components"]))


def _first_with(**changes):
    return lambda components: [{**components[0], **changes}, *components[1:]]


def _without_hate(components):
    return [{k: v for k, v in components[0].items() if k != "hate"}, *components[1:]]


# each a changed dataset line, from the line and a line of another record
_VARIANTS = {
    "spans-two-lines": lambda line, other: line.replace(b", ", b",\n", 1),
    "two-records-on-a-line": lambda line, other: line + b" " + _record_with(line, id="extra"),
    "trailing-spaces": lambda line, other: line + b"  ",
    "crlf": lambda line, other: line + b"\r",
    "leading-space": lambda line, other: b" " + line,
    "blank-line": lambda line, other: b"\n" + line,
    "bom": lambda line, other: b"\xef\xbb\xbf" + line,
    "invalid-utf8": lambda line, other: line[:-2] + b"\xc3" + line[-2:],
    "integer-id": lambda line, other: _record_with(line, id=7),
    "hate-unannotated": lambda line, other: _record_with(
        _components_with(line, _first_with(hate="unannotated")), label="nohate"
    ),
    "partial-annotation": lambda line, other: _record_with(
        _components_with(line, _without_hate), label="hate"
    ),
    "duplicate-id": lambda line, other: _record_with(line, id=json.loads(other)["id"]),
    "4301-digit-integer": lambda line, other: line[:-1] + b', "n": ' + b"1" * 4301 + b"}",
    "deep-nesting": lambda line, other: b"[" * 200_000,
    "not-an-object": lambda line, other: b"[" + line + b"]",
    "components-not-a-list": lambda line, other: _record_with(line, components={}),
    "text-not-string": lambda line, other: _components_with(line, _first_with(text=5)),
    "text-after-a-bad-component": lambda line, other: _components_with(
        line, lambda cs: [{**cs[0], "text": "kept?"}, "not a component", *cs[1:]]
    ),
    "no-premise": lambda line, other: _components_with(line, lambda cs: cs[-1:]),
    "two-conclusions": lambda line, other: _components_with(
        line, _first_with(role="conclusion")
    ),
    "conclusion-first": lambda line, other: _components_with(line, lambda cs: cs[::-1]),
    "no-conclusion": lambda line, other: _components_with(
        line, lambda cs: [*cs[:-1], {**cs[-1], "role": "premise"}]
    ),
}


_SCANNED_VARIANTS = {
    "hate-unannotated", "crlf", "integer-id", "duplicate-id", "partial-annotation", "no-premise",
    "two-conclusions", "conclusion-first", "no-conclusion",
}


def _lines_for_the_per_line_decoder(line_no: int, variant: str) -> list[int]:
    """The numbers of the lines the per-line decoder takes, in order, when
    ``variant`` changed line ``line_no``: none for a change the scan keeps,
    both halves of a record split over two lines, and else the changed line
    alone."""
    if variant in _SCANNED_VARIANTS:
        return []
    return [line_no, line_no + 1] if variant == "spans-two-lines" else [line_no]


def _outcomes_and_decoded_lines(source, monkeypatch):
    """``_per_line_outcome`` of ``source`` in strict and lenient mode, and the
    line numbers the per-line decoder took in each."""
    outcomes, decoded = [], []
    for strict in (True, False):
        with monkeypatch.context() as patch:
            lines = _decoded_lines(patch)
            outcomes.append(_per_line_outcome(source, strict))
        decoded.append(lines)
    return outcomes, decoded


@pytest.mark.parametrize("where", [0, 5, -1])
@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_one_scan_matches_per_line_loop_on_a_changed_line(variant, where, monkeypatch):
    """With one line changed, the result, error text, warnings and skipped
    records of bytes and of their lines as a list equal the per-line loop's,
    in strict and lenient mode. The scan keeps a record that decodes: a
    valid value, a CRLF line end, or a record that breaks a rule or warns.
    Every other change sends the changed line alone, once, to the per-line
    decoder."""
    lines = _synth_bytes("table1", 11 + where, with_texts=True).split(b"\n")[:-1]
    line_no = where % len(lines) + 1
    lines[where] = _VARIANTS[variant](lines[where], lines[where - 1])
    raw = b"\n".join(lines) + b"\n"
    expected = [_per_line_loop_outcome(raw, strict, monkeypatch) for strict in (True, False)]
    per_line = _lines_for_the_per_line_decoder(line_no, variant)
    for source in (raw, list(io.BytesIO(raw))):
        outcomes, decoded = _outcomes_and_decoded_lines(source, monkeypatch)
        assert outcomes == expected
        assert decoded == [per_line, per_line]


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_blocks_match_per_line_loop_on_a_changed_line_in_a_middle_block(
    variant, tmp_path, monkeypatch
):
    """A file with one line changed, read from its path and through a binary
    file object whose 300-byte buffer holds the line in a middle block, gives
    the per-line loop's result, error text, line numbers, warnings and
    skipped records, in strict and lenient mode. The per-line decoder takes
    only the changed line or lines, each once."""
    lines = _synth_bytes("table1", 13, with_texts=True).split(b"\n")[:-1]
    where = len(lines) // 2
    lines[where] = _VARIANTS[variant](lines[where], lines[where - 1])
    raw = b"\n".join(lines) + b"\n"
    changed_start = len(b"\n".join(lines[:where])) + 1
    assert 300 < changed_start and changed_start + len(lines[where]) < len(raw) - 300
    path = tmp_path / "d.jsonl"
    path.write_bytes(raw)
    per_line = _lines_for_the_per_line_decoder(where + 1, variant)
    for strict in (True, False):
        expected = _per_line_loop_outcome(raw, strict, monkeypatch)
        with open(path, "rb", buffering=300) as fh:
            for source in (path, fh):
                with monkeypatch.context() as patch:
                    decoded = _decoded_lines(patch)
                    assert _per_line_outcome(source, strict) == expected
                assert decoded == per_line


_PER_LINE_VARIANTS = sorted(
    set(_VARIANTS) - _SCANNED_VARIANTS - {"spans-two-lines", "blank-line"}
)


def test_blocks_each_with_a_changed_line_decode_only_those_lines(monkeypatch):
    """A file with a line the scan cannot take every few lines gives the
    per-line loop's result, in strict and lenient mode, and the per-line
    decoder takes those lines alone, each once."""
    lines = _synth_bytes("table1", 23, 20, 15, with_texts=True).split(b"\n")[:-1]
    changed = list(range(2, len(lines) + 1, 3))  # line numbers, from 1
    assert len(changed) >= len(_PER_LINE_VARIANTS)
    for line_no, variant in zip(changed, itertools.cycle(_PER_LINE_VARIANTS)):
        lines[line_no - 1] = _VARIANTS[variant](lines[line_no - 1], lines[line_no - 2])
    raw = b"\n".join(lines) + b"\n"
    expected = [_per_line_loop_outcome(raw, strict, monkeypatch) for strict in (True, False)]
    outcomes, decoded = _outcomes_and_decoded_lines(raw, monkeypatch)
    assert outcomes == expected
    assert decoded == [changed, changed]


@pytest.mark.parametrize("buffering", [64, 300, 1000])
@pytest.mark.parametrize("shape", ["plain", "crlf", "no-final-newline", "crlf-no-final-newline"])
def test_blocks_parse_generated_files_as_the_per_line_loop(shape, buffering, tmp_path,
                                                          monkeypatch):
    """Non-ASCII and escaped texts, CRLF line ends and no last newline, read
    from a path, from bytes, and through a binary file object with a buffer
    of ``buffering`` bytes (shorter than every line at 64), give the per-line
    loop's result on the same lines, with no line taking the per-line
    decoder."""
    raw = _synth_bytes("table1", 17, 40, 30, with_texts=True)
    if shape.startswith("crlf"):
        raw = raw.replace(b"\n", b"\r\n")
    if shape.endswith("no-final-newline"):
        raw = raw.rstrip(b"\r\n")
    path = tmp_path / "d.jsonl"
    path.write_bytes(raw)
    expected = [_per_line_loop_outcome(raw, strict, monkeypatch) for strict in (True, False)]
    decoded = _decoded_lines(monkeypatch)
    for source in (raw, path):
        assert [_per_line_outcome(source, strict) for strict in (True, False)] == expected
    for strict, outcome in zip((True, False), expected):
        with open(path, "rb", buffering=buffering) as fh:
            assert _per_line_outcome(fh, strict) == outcome
    assert decoded == []


def _parse_through_a_pipe(raw: bytes, strict: bool):
    """``_per_line_outcome`` of ``raw`` read from a pipe's /dev/fd path, fed
    by a thread: the pipe holds the bytes once, so a second read sees none."""
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(raw)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        return _per_line_outcome(f"/dev/fd/{read_fd}", strict)
    finally:
        os.close(read_fd)  # a reader that stopped early ends the feeder with EPIPE
        feeder.join(timeout=30)
        assert not feeder.is_alive()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("bad_line", [False, True])
def test_a_pipe_parses_as_its_file_in_one_read(bad_line, tmp_path):
    """A source that can be read only once, front to back, gives the regular
    file's result, with a clean file and with a bad line near its end."""
    lines = _synth_bytes("table1", 19, 30, 20, with_texts=True).split(b"\n")[:-1]
    if bad_line:
        lines[-2] = _VARIANTS["trailing-spaces"](lines[-2], lines[-3])
    raw = b"\n".join(lines) + b"\n"
    path = tmp_path / "d.jsonl"
    path.write_bytes(raw)
    for strict in (True, False):
        assert _parse_through_a_pipe(raw, strict) == _per_line_outcome(path, strict)
