import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argstruct import encodings
from argstruct.data import Checkworthiness, ComponentHate, Dataset, MessageLabel
from argstruct.encodings import (
    FAMILIES,
    EncodingSpec,
    MissingStageOneScoreError,
    PremiseOverflowError,
    UnexpectedStageOneScoreError,
    encode,
    encode_dataset,
    feature_names,
    stage_one_spec,
)
from argstruct.synth import GeneratorConfig, generate
import encoding_oracle
from messages import make_message, message_strategy


@pytest.mark.parametrize(
    "family,capacity,expected",
    [
        ("arg-str", 4, 5),
        ("arg-str-p", 4, 4),
        ("arg-str-cw", 4, 20),
        ("arg-str-p-cw", 4, 16),
        ("arg-str-hs", 4, 10),
        ("arg-str-cw-hs", 2, 15),
        ("arg-str-c-given-p", 4, 2),
        ("arg-str-c-given-p", 9, 2),
        ("arg-str-c-given-p-cw", 4, 5),
    ],
)
def test_encoding_lengths(family, capacity, expected):
    assert EncodingSpec(family, capacity).length == expected


def test_spec_validation():
    with pytest.raises(ValueError):
        EncodingSpec("arg-structure", 3)
    with pytest.raises(ValueError):
        EncodingSpec("arg-str", 0)


def _after_presence(m, family, L):
    """encode's columns after the presence bits: the cw, then the hs block."""
    spec = EncodingSpec(family, L)
    return encode(m, spec)[len(spec.slots):].tolist()


def test_structure_vector_with_conclusion():
    m = make_message(n_premises=2)
    assert encode(m, EncodingSpec("arg-str", 4)).tolist() == [1, 1, 0, 0, 1]


def test_structure_vector_premises_only():
    m = make_message(n_premises=2)
    assert encode(m, EncodingSpec("arg-str-p", 4)).tolist() == [1, 1, 0, 0]


def test_structure_vector_overflow():
    m = make_message(n_premises=5)
    with pytest.raises(PremiseOverflowError):
        encode(m, EncodingSpec("arg-str", 4))


def test_structure_vector_truncates_on_request():
    m = make_message(n_premises=5)
    assert encode(m, EncodingSpec("arg-str", 4), truncate=True).tolist() == [1, 1, 1, 1, 1]


def test_cw_block_single_premise():
    m = make_message(
        n_premises=1,
        premise_cw=[Checkworthiness.CFS],
        conclusion_cw=Checkworthiness.NFS,
    )
    assert _after_presence(m, "arg-str-cw", 2) == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_cw_block_worked_example(worked_message):
    assert _after_presence(worked_message, "arg-str-cw", 2) == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_cw_block_excludes_conclusion():
    m = make_message(n_premises=1, premise_cw=[Checkworthiness.UFS])
    assert _after_presence(m, "arg-str-p-cw", 2) == [0, 1, 0, 0, 0, 0]


def test_hs_block_worked_example(worked_message):
    assert _after_presence(worked_message, "arg-str-hs", 2) == [0, 0, 1]


def test_hs_block_unannotated_encodes_zero():
    m = make_message(
        label=MessageLabel.NON_HATEFUL,
        premise_hate=[ComponentHate.UNANNOTATED] * 2,
        conclusion_hate=ComponentHate.UNANNOTATED,
    )
    assert _after_presence(m, "arg-str-hs", 2) == [0, 0, 0]


def test_hs_block_all_nonhateful_components():
    m = make_message(
        n_premises=1,
        premise_hate=[ComponentHate.NON_HATEFUL],
        conclusion_hate=ComponentHate.NON_HATEFUL,
    )
    assert _after_presence(m, "arg-str-hs", 1) == [0, 0]


def test_encode_worked_example_cw_hs(worked_message):
    vec = encode(worked_message, EncodingSpec("arg-str-cw-hs", 2))
    expected = [1, 1, 1] + [0, 0, 1, 0, 0, 1, 0, 0, 1] + [0, 0, 1]
    assert vec.tolist() == expected


def test_encode_two_stage(worked_message):
    vec = encode(worked_message, EncodingSpec("arg-str-c-given-p", 2), stage1_score=0.5)
    assert vec.tolist() == [0.5, 1.0]


def test_encode_two_stage_with_cw(worked_message):
    vec = encode(
        worked_message, EncodingSpec("arg-str-c-given-p-cw", 2), stage1_score=0.25
    )
    assert vec.tolist() == [0.25, 1.0, 0.0, 0.0, 1.0]


def test_encode_rejects_unexpected_score(worked_message):
    with pytest.raises(UnexpectedStageOneScoreError):
        encode(worked_message, EncodingSpec("arg-str", 2), stage1_score=0.5)


def test_encode_requires_score(worked_message):
    with pytest.raises(MissingStageOneScoreError):
        encode(worked_message, EncodingSpec("arg-str-c-given-p", 2))


def test_encode_rejects_out_of_range_score(worked_message):
    with pytest.raises(ValueError):
        encode(worked_message, EncodingSpec("arg-str-c-given-p", 2), stage1_score=1.5)


def test_stage_one_spec_mapping():
    assert stage_one_spec(EncodingSpec("arg-str-c-given-p", 3)).family == "arg-str-p"
    assert (
        stage_one_spec(EncodingSpec("arg-str-c-given-p-cw", 3)).family == "arg-str-p-cw"
    )
    with pytest.raises(ValueError):
        stage_one_spec(EncodingSpec("arg-str", 3))


@settings(max_examples=60, deadline=None)
@given(m=message_strategy(), family=st.sampled_from(FAMILIES), L=st.integers(5, 8))
def test_encode_length_matches_spec(m, family, L):
    spec = EncodingSpec(family, L)
    score = 0.5 if spec.two_stage else None
    assert len(encode(m, spec, stage1_score=score)) == spec.length


@settings(max_examples=30, deadline=None)
@given(m=message_strategy(), family=st.sampled_from(FAMILIES))
def test_encode_deterministic(m, family):
    spec = EncodingSpec(family, 6)
    score = 0.25 if spec.two_stage else None
    first = encode(m, spec, stage1_score=score)
    second = encode(m, spec, stage1_score=score)
    assert np.array_equal(first, second)


@settings(max_examples=40, deadline=None)
@given(m=message_strategy())
def test_arg_str_extends_premise_only_with_constant_one(m):
    full = encode(m, EncodingSpec("arg-str", 6))
    premise_only = encode(m, EncodingSpec("arg-str-p", 6))
    assert full[-1] == 1.0
    assert np.array_equal(full[:-1], premise_only)


@settings(max_examples=40, deadline=None)
@given(m=message_strategy())
def test_cw_slot_sums_match_occupancy(m):
    L = 6
    vec = encode(m, EncodingSpec("arg-str-cw", L))
    block = vec[L + 1 :].reshape(L + 1, 3)
    occupancy = vec[: L + 1]
    assert np.array_equal(block.sum(axis=1), occupancy)


def test_feature_names_match_length():
    for family in FAMILIES:
        spec = EncodingSpec(family, 3)
        assert len(feature_names(spec)) == spec.length


def test_feature_names_layout():
    assert feature_names(EncodingSpec("arg-str", 2)) == ["p0", "p1", "concl"]
    assert feature_names(EncodingSpec("arg-str-hs", 1)) == [
        "p0", "concl", "p0_hs", "concl_hs",
    ]
    assert feature_names(EncodingSpec("arg-str-c-given-p-cw", 2)) == [
        "stage1", "concl", "concl_NFS", "concl_UFS", "concl_CFS",
    ]
    names = feature_names(EncodingSpec("arg-str-cw", 1))
    assert names == ["p0", "concl", "p0_NFS", "p0_UFS", "p0_CFS",
                     "concl_NFS", "concl_UFS", "concl_CFS"]


def test_encode_dataset_shape(small_dataset):
    X = encode_dataset(small_dataset, EncodingSpec("arg-str-cw-hs", 3))
    assert X.shape == (6, 20)


def test_encode_dataset_is_c_contiguous_float64(small_dataset):
    for family in FAMILIES:
        spec = EncodingSpec(family, 3)
        scores = [0.5] * len(small_dataset) if spec.two_stage else None
        X = encode_dataset(small_dataset, spec, stage1_scores=scores)
        assert X.dtype == np.float64 and X.flags.c_contiguous, family


def test_encode_dataset_two_stage_requires_scores(small_dataset):
    spec = EncodingSpec("arg-str-c-given-p", 3)
    with pytest.raises(MissingStageOneScoreError):
        encode_dataset(small_dataset, spec)
    X = encode_dataset(small_dataset, spec, stage1_scores=[0.1] * 6)
    assert X.shape == (6, 2)
    with pytest.raises(ValueError):
        encode_dataset(small_dataset, spec, stage1_scores=[0.1] * 5)


def test_encode_dataset_rejects_scores_for_static(small_dataset):
    with pytest.raises(UnexpectedStageOneScoreError):
        encode_dataset(
            small_dataset, EncodingSpec("arg-str", 3), stage1_scores=[0.1] * 6
        )


def test_two_stage_ignores_premise_overflow():
    m = make_message(n_premises=5, conclusion_cw=Checkworthiness.UFS)
    spec = EncodingSpec("arg-str-c-given-p-cw", 2)
    assert encode(m, spec, stage1_score=0.5).tolist() == [0.5, 1.0, 0.0, 1.0, 0.0]


def _outcome(encoder, *args):
    """What ``encoder`` returns, or the type of the error it raises."""
    try:
        return encoder(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


_OVERFLOW = [make_message("a", n_premises=3), make_message("b", n_premises=1)]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=80, deadline=None)
@given(
    messages=st.lists(message_strategy(), min_size=1, max_size=8),
    slack=st.integers(-2, 1),
    truncate=st.booleans(),
    kind=st.sampled_from(["valid", "bad", "short", None]),
    pool=st.lists(
        st.sampled_from([0.0, 1.0, -0.0]) | st.floats(0.0, 1.0), min_size=8, max_size=8
    ),
    bad=st.sampled_from([np.nan, -0.25, 1.5, np.inf]),
)
@example(messages=_OVERFLOW, slack=-1, truncate=False, kind="valid", pool=[0.5] * 8, bad=0)
@example(messages=_OVERFLOW, slack=0, truncate=False, kind="bad", pool=[0.5] * 8, bad=np.nan)
def test_encode_dataset_matches_oracle(family, messages, slack, truncate, kind, pool, bad):
    """Bytes, dtype, C order and raised error type equal the per-message
    encoder's, with L below, at and above the largest premise count, and
    with no scores, valid scores, one bad score or a wrong score count."""
    d = Dataset.from_messages(messages)
    spec = EncodingSpec(family, max(1, d.premise_capacity + slack))
    scores = kind and pool[: len(d) - (kind == "short")]
    if kind == "bad":
        scores[-1] = bad
    expected = _outcome(encoding_oracle.encode_dataset, d, spec, scores, truncate)
    got = _outcome(encode_dataset, d, spec, scores, truncate)
    if isinstance(expected, type):
        assert got is expected
        return
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == expected.shape == (len(d), spec.length)
    assert got.tobytes() == expected.tobytes()
    assert feature_names(spec) == encoding_oracle.feature_names(spec)
    for i, m in enumerate(d):  # encode is the one-row case
        score = None if scores is None else scores[i]
        assert encode(m, spec, score, truncate).tobytes() == got[i].tobytes()


@pytest.mark.parametrize("truncate", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_encode_dataset_in_chunks_matches_oracle(family, truncate, monkeypatch):
    """Encoded three messages at a time, every row of every family has the
    per-message encoder's bytes, with L at and below the largest premise
    count."""
    monkeypatch.setattr(encodings, "ENCODE_ROWS", 3)
    d = generate(GeneratorConfig(mode="table1", n_hateful=16, n_nonhateful=12, seed=23))
    spec = EncodingSpec(family, d.premise_capacity - truncate)
    scores = np.random.default_rng(23).random(len(d)) if spec.two_stage else None
    expected = encoding_oracle.encode_dataset(d, spec, scores, truncate)
    got = encode_dataset(d, spec, scores, truncate)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()
