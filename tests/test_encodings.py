import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.data import Checkworthiness, ComponentHate, Dataset, MessageLabel
from argstruct.encodings import (
    FAMILIES,
    EncodingSpec,
    MissingStageOneScoreError,
    PremiseOverflowError,
    UnexpectedStageOneScoreError,
    cw_block,
    encode,
    encode_dataset,
    encoding_length,
    feature_names,
    hs_block,
    stage_one_spec,
    structure_vector,
)
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
    assert encoding_length(EncodingSpec(family, capacity)) == expected


def test_spec_validation():
    with pytest.raises(ValueError):
        EncodingSpec("arg-structure", 3)
    with pytest.raises(ValueError):
        EncodingSpec("arg-str", 0)


def test_structure_vector_with_conclusion():
    m = make_message(n_premises=2)
    assert structure_vector(m, 4, True).tolist() == [1, 1, 0, 0, 1]


def test_structure_vector_premises_only():
    m = make_message(n_premises=2)
    assert structure_vector(m, 4, False).tolist() == [1, 1, 0, 0]


def test_structure_vector_overflow():
    m = make_message(n_premises=5)
    with pytest.raises(PremiseOverflowError):
        structure_vector(m, 4, True)


def test_structure_vector_truncates_on_request():
    m = make_message(n_premises=5)
    assert structure_vector(m, 4, True, truncate=True).tolist() == [1, 1, 1, 1, 1]


def test_cw_block_single_premise():
    m = make_message(
        n_premises=1,
        premise_cw=[Checkworthiness.CFS],
        conclusion_cw=Checkworthiness.NFS,
    )
    assert cw_block(m, 2, True).tolist() == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_cw_block_worked_example(worked_message):
    assert cw_block(worked_message, 2, True).tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_cw_block_excludes_conclusion():
    m = make_message(n_premises=1, premise_cw=[Checkworthiness.UFS])
    assert cw_block(m, 2, False).tolist() == [0, 1, 0, 0, 0, 0]


def test_hs_block_worked_example(worked_message):
    assert hs_block(worked_message, 2).tolist() == [0, 0, 1]


def test_hs_block_unannotated_encodes_zero():
    m = make_message(
        label=MessageLabel.NON_HATEFUL,
        premise_hate=[ComponentHate.UNANNOTATED] * 2,
        conclusion_hate=ComponentHate.UNANNOTATED,
    )
    assert hs_block(m, 2).tolist() == [0, 0, 0]


def test_hs_block_all_nonhateful_components():
    m = make_message(
        n_premises=1,
        premise_hate=[ComponentHate.NON_HATEFUL],
        conclusion_hate=ComponentHate.NON_HATEFUL,
    )
    assert hs_block(m, 1).tolist() == [0, 0]


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
    assert len(encode(m, spec, stage1_score=score)) == encoding_length(spec)


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
    block = cw_block(m, L, True).reshape(L + 1, 3)
    occupancy = structure_vector(m, L, True)
    assert np.array_equal(block.sum(axis=1), occupancy)


def test_feature_names_match_length():
    for family in FAMILIES:
        spec = EncodingSpec(family, 3)
        assert len(feature_names(spec)) == encoding_length(spec)


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
