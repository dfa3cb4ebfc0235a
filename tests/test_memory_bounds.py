"""Memory bounds of the bulk path, by tracemalloc.

Parsing, encoding and tree prediction each hold their input and output; what
they allocate beyond that must stay a fraction of them. Parsing reads its
source in blocks of lines, encoding writes into the one matrix it returns a
chunk of messages at a time, and the tree families descend their distinct
rows a chunk at a time, so none of these bounds grows with the input.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from argstruct.data import parse_dataset, write_dataset
from argstruct.encodings import EncodingSpec, encode_dataset
from argstruct.models import ModelSpec, fit
from argstruct.synth import GeneratorConfig, generate


def _traced(call):
    """(result, peak bytes, bytes still held) of ``call()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture(scope="module")
def bulk():
    """A generated set of 20,000 messages."""
    return generate(GeneratorConfig(mode="table1", n_hateful=12_500, n_nonhateful=7_500,
                                    seed=29))


def test_parse_holds_less_than_its_file_beyond_its_result(bulk, tmp_path):
    path = tmp_path / "bulk.jsonl"
    write_dataset(bulk, path)
    size = path.stat().st_size
    result, peak, held = _traced(lambda: parse_dataset(path, strict=False))
    assert result.dataset == bulk and not result.skipped
    assert peak - held < size, (peak, held, size)


def test_encode_holds_less_than_half_its_matrix_beyond_it(bulk):
    bulk.message_of, bulk.premise_counts  # the dataset's own cached columns
    spec = EncodingSpec("arg-str-cw-hs", bulk.premise_capacity)
    X, peak, _ = _traced(lambda: encode_dataset(bulk, spec))
    assert X.shape == (len(bulk), spec.length) and X.flags.c_contiguous
    assert peak - X.nbytes < X.nbytes / 2, (peak, X.nbytes)


@pytest.mark.parametrize("family", ["rforest", "gbt"])
def test_tree_prediction_holds_less_than_one_score_per_tree_and_row(family):
    rng = np.random.default_rng(29)
    X_train = (rng.random((300, 24)) < 0.5).astype(float)
    y = (X_train[:, 0] != X_train[:, 1]).astype(float)
    model = fit(ModelSpec(family, seed=29), X_train, y)
    X = (rng.random((3_000, 24)) < 0.5).astype(float)
    distinct = len(np.unique(X, axis=0))
    assert distinct >= 1_000
    _, peak, _ = _traced(lambda: model.predict_score(X))
    assert peak < len(model.trees) * distinct * 8, (peak, len(model.trees), distinct)
