"""Model files: byte-stable saving and strict loading."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.models import ModelSpec, fit
from argstruct.models.linear import sigmoid
from argstruct.models.persist import (
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

FIXTURES = Path(__file__).parent / "fixtures"
SPECS = {"rforest": ModelSpec("rforest", tree_count=5, seed=3), "gbt": ModelSpec("gbt", tree_count=5)}


def _problem():
    # 0/1 columns, a few-valued score column (sorted splits) and repeated rows
    rng = np.random.default_rng(7)
    X = (rng.random((40, 4)) < 0.5).astype(float)
    X = np.hstack([X, rng.integers(0, 5, (40, 1)) / 4.0])
    X = np.vstack([X, X[:10]])
    y = ((X[:, 0] + X[:, 4] + 0.3 * rng.random(50)) > 0.9).astype(float)
    return X, y


@pytest.mark.parametrize("family", sorted(SPECS))
def test_saved_tree_model_bytes_match_fixture(family, tmp_path):
    # the fixtures were saved by the recursive tree builder (tests/tree_oracle.py)
    X, y = _problem()
    save_model(fit(SPECS[family], X, y), tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == (FIXTURES / f"{family}.json").read_bytes()


def _valid_dicts():
    X, y = _problem()
    dicts = [json.loads((FIXTURES / f"{family}.json").read_text()) for family in sorted(SPECS)]
    dicts.append(model_to_dict(fit(ModelSpec("lgr", max_iter=20), X, y)))
    return dicts


VALID = _valid_dicts()


def _nodes(obj):
    """Every tree node object of a model dict."""
    pending = list(obj["params"].get("trees", []))
    while pending:
        node = pending.pop()
        yield node
        if "v" not in node:
            pending += [node["l"], node["r"]]


def _mutations(obj):
    """Ways to break one valid model dict, each as a function that edits it in place."""
    out = [
        lambda o, key=key: o.pop(key) for key in ("family", "params", "n_features")
    ]
    params = list(obj["params"])
    out += [lambda o, key=key: o["params"].pop(key) for key in params]
    out.append(lambda o: o.__setitem__("n_features", "5"))
    if "weights" in obj["params"]:
        out.append(lambda o: o["params"]["weights"].append(0.0))
        out.append(lambda o: o["params"]["weights"].pop())
        out.append(lambda o: o["params"]["weights"].__setitem__(0, math.nan))
        out.append(lambda o: o["params"].__setitem__("bias", math.inf))
    if obj["family"] == "rforest":
        out.append(lambda o: o["params"]["trees"].clear())  # a gbt may have no trees
    for i, node in enumerate(_nodes(obj)):
        def at(o, i=i):
            return list(_nodes(o))[i]
        keys = ("v",) if "v" in node else ("f", "t", "l", "r")
        out += [lambda o, at=at, key=key: at(o).pop(key) for key in keys]
        if "v" in node:
            out += [lambda o, at=at, bad=bad: at(o).__setitem__("v", bad)
                    for bad in (math.nan, math.inf, "0.5", None)]
        else:
            out += [lambda o, at=at, bad=bad: at(o).__setitem__("f", bad)
                    for bad in (-1, obj["n_features"], 10 ** 6, 1.0, True)]
            out += [lambda o, at=at, bad=bad: at(o).__setitem__("t", bad)
                    for bad in (math.nan, -math.inf, [0.5])]
            out.append(lambda o, at=at: at(o).__setitem__("l", []))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_model_dicts_raise_model_format_error(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    mutate = data.draw(st.sampled_from(_mutations(obj)))
    mutate(obj)
    with pytest.raises(ModelFormatError):
        model_from_dict(obj)


def test_forest_with_no_trees_is_malformed():
    obj = copy.deepcopy(next(o for o in VALID if o["family"] == "rforest"))
    obj["params"]["trees"].clear()
    with pytest.raises(ModelFormatError, match="at least one tree"):
        model_from_dict(obj)


def test_model_file_nested_past_the_recursion_limit_is_malformed(tmp_path):
    depth = 100_000  # split nodes, each one level deeper than its parent
    tree = '{"f": 0, "t": 0.5, "l": ' * depth + '{"v": 1.0}' + ', "r": {"v": 0.0}}' * depth
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "argstruct-model", "version": 1, "family": "rforest", '
        f'"n_features": 1, "params": {{"trees": [{tree}]}}}}',
        encoding="utf-8",
    )
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        load_model(path)


def test_truncated_model_file_is_malformed(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text('{"format": "argstruct-model",', encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not UTF-8 JSON"):
        load_model(path)


def test_model_file_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ModelFormatError, match="not UTF-8 JSON"):
        load_model(path)


def test_gbt_with_no_trees_scores_its_base_score():
    obj = copy.deepcopy(next(o for o in VALID if o["family"] == "gbt"))
    obj["params"]["trees"].clear()
    model = model_from_dict(obj)
    X, _ = _problem()
    expected = sigmoid(np.full(len(X), obj["params"]["base_score"]))
    assert model.predict_score(X).tobytes() == expected.tobytes()


def test_valid_fixtures_load_and_round_trip():
    for obj in VALID:
        assert model_to_dict(model_from_dict(obj)) == obj
