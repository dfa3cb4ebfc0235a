import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.evaluation import (
    ClassTooSmallError,
    ConfusionMatrix,
    EmptyMatrixError,
    KTooSmallError,
    LengthMismatchError,
    MetricSet,
    NonBinaryLabelError,
    TooFewFoldsError,
    aggregate,
    confusion,
    macro_metrics,
    stratified_kfold,
)


def oracle_macro(pred, gold):
    """Independent brute-force metric computation from raw pairs."""
    per_class = []
    for positive in (1, 0):
        tp = sum(1 for p, g in zip(pred, gold) if p == positive and g == positive)
        fp = sum(1 for p, g in zip(pred, gold) if p == positive and g != positive)
        fn = sum(1 for p, g in zip(pred, gold) if p != positive and g == positive)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    return MetricSet(
        precision=(per_class[0][0] + per_class[1][0]) / 2,
        recall=(per_class[0][1] + per_class[1][1]) / 2,
        f1=(per_class[0][2] + per_class[1][2]) / 2,
    )


def test_kfold_exact_divisibility():
    labels = [1] * 4 + [0] * 6
    folds = stratified_kfold(labels, 2, seed=0)
    for f in range(2):
        test = folds.test_indices(f)
        assert sum(labels[i] for i in test) == 2
        assert len(test) == 5


def test_kfold_corpus_sized_counts():
    labels = [1] * 227 + [0] * 136
    folds = stratified_kfold(labels, 5, seed=0)
    sizes, positives, negatives = [], [], []
    for f in range(5):
        test = folds.test_indices(f)
        sizes.append(len(test))
        positives.append(sum(labels[i] for i in test))
        negatives.append(sum(1 - labels[i] for i in test))
    assert set(positives) <= {45, 46}
    assert set(negatives) <= {27, 28}
    assert set(sizes) <= {72, 73}
    assert sum(sizes) == 363


def test_kfold_class_too_small():
    with pytest.raises(ClassTooSmallError):
        stratified_kfold([1, 1, 1] + [0] * 10, 5, seed=0)


def test_kfold_rejects_a_label_other_than_0_or_1():
    """Such a row would fall in no test fold and in every training split."""
    with pytest.raises(NonBinaryLabelError, match="label 2 is not 0 or 1"):
        stratified_kfold([0, 1, 0, 1, 0, 1, 2, 2], 2)
    with pytest.raises(NonBinaryLabelError, match="label 0.5 is not 0 or 1"):
        stratified_kfold([0.0, 1.0] * 4 + [0.5], 2)
    floats = stratified_kfold([0.0, 1.0] * 4, 2, seed=1)  # as inner CV passes its labels
    assert floats == stratified_kfold([0, 1] * 4, 2, seed=1)


def test_kfold_k_too_small():
    with pytest.raises(KTooSmallError):
        stratified_kfold([0, 1] * 5, 1, seed=0)


def test_kfold_deterministic_per_seed():
    labels = [1] * 30 + [0] * 50
    a = stratified_kfold(labels, 4, seed=3)
    b = stratified_kfold(labels, 4, seed=3)
    c = stratified_kfold(labels, 4, seed=4)
    assert a == b
    assert a.digest() == b.digest()
    assert a != c


@settings(max_examples=60, deadline=None)
@given(
    n_pos=st.integers(2, 60),
    n_neg=st.integers(2, 60),
    k=st.integers(2, 6),
    seed=st.integers(0, 10 ** 6),
)
def test_kfold_partition_and_proportionality(n_pos, n_neg, k, seed):
    if n_pos < k or n_neg < k:
        n_pos, n_neg = n_pos + k, n_neg + k
    labels = np.array([1] * n_pos + [0] * n_neg)
    rng = np.random.default_rng(seed)
    labels = labels[rng.permutation(len(labels))]
    folds = stratified_kfold(labels, k, seed=seed)
    seen = np.concatenate([folds.test_indices(f) for f in range(k)])
    assert sorted(seen.tolist()) == list(range(len(labels)))
    for cls, count in ((1, n_pos), (0, n_neg)):
        lo, hi = count // k, -(-count // k)
        for f in range(k):
            in_fold = sum(labels[i] == cls for i in folds.test_indices(f))
            assert lo <= in_fold <= hi


def test_confusion_examples():
    cm = confusion([1, 1, 0], [1, 0, 0])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 1)
    cm = confusion([1, 0], [1, 0])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 0, 0, 1)
    cm = confusion([0, 0], [1, 1])
    assert cm.fn == 2


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatchError):
        confusion([1, 0], [1])


def test_confusion_empty():
    with pytest.raises(EmptyMatrixError):
        confusion([], [])


def test_macro_metrics_hand_computed():
    metrics = macro_metrics(ConfusionMatrix(tp=2, fp=1, fn=1, tn=1))
    assert metrics.f1 == pytest.approx(7 / 12, abs=1e-12)


def test_macro_metrics_perfect():
    metrics = macro_metrics(ConfusionMatrix(tp=3, fp=0, fn=0, tn=2))
    assert metrics == MetricSet(1.0, 1.0, 1.0)


def test_macro_metrics_all_positive_predictions():
    # 50/50 gold, everything predicted positive
    metrics = macro_metrics(ConfusionMatrix(tp=2, fp=2, fn=0, tn=0))
    assert metrics.f1 == pytest.approx(1 / 3, abs=1e-12)


def test_macro_metrics_zero_cases_define_zero():
    # no predicted positives: positive-class precision is 0/0, defined as 0
    metrics = macro_metrics(ConfusionMatrix(tp=0, fp=0, fn=2, tn=2))
    assert metrics.precision == pytest.approx(0.25)
    # degenerate all-negative case: positive-class metrics all 0/0 -> 0
    assert macro_metrics(ConfusionMatrix(0, 0, 0, 4)).f1 == 0.5


def test_macro_metrics_empty_matrix():
    with pytest.raises(EmptyMatrixError):
        macro_metrics(ConfusionMatrix(0, 0, 0, 0))


def test_macro_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 101))
        pred = rng.integers(0, 2, n)
        gold = rng.integers(0, 2, n)
        ours = macro_metrics(confusion(pred, gold))
        assert ours == oracle_macro(pred.tolist(), gold.tolist())


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_metrics_permutation_invariant(data):
    n = data.draw(st.integers(1, 40))
    pred = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    gold = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    base = macro_metrics(confusion(pred, gold))
    shuffled = macro_metrics(
        confusion([pred[i] for i in perm], [gold[i] for i in perm])
    )
    assert base == shuffled


def test_aggregate_examples():
    two = [MetricSet(0.5, 0.5, 0.5), MetricSet(0.7, 0.7, 0.7)]
    agg = aggregate(two)
    assert agg.f1.mean == pytest.approx(0.6)
    assert agg.f1.std == pytest.approx(0.1)
    same = [MetricSet(0.7, 0.7, 0.7)] * 5
    assert aggregate(same).f1 == (pytest.approx(0.7), pytest.approx(0.0))
    extremes = [MetricSet(0.0, 0.0, 0.0), MetricSet(1.0, 1.0, 1.0)]
    assert aggregate(extremes).f1 == (pytest.approx(0.5), pytest.approx(0.5))


def test_aggregate_sample_std_flag():
    two = [MetricSet(0.5, 0.5, 0.5), MetricSet(0.7, 0.7, 0.7)]
    agg = aggregate(two, sample_std=True)
    assert agg.f1.std == pytest.approx((0.02 / 1) ** 0.5)


def test_aggregate_requires_two_folds():
    with pytest.raises(TooFewFoldsError):
        aggregate([MetricSet(1.0, 1.0, 1.0)])


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=10,
    )
)
def test_aggregate_mean_in_range_and_std_nonnegative(values):
    metrics = [MetricSet(v, v, v) for v in values]
    agg = aggregate(metrics)
    assert min(values) - 1e-12 <= agg.f1.mean <= max(values) + 1e-12
    assert agg.f1.std >= 0.0
