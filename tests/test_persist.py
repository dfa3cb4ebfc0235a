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
from argstruct.models.persist import ModelFormatError, model_from_dict, model_to_dict, save_model

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


def test_valid_fixtures_load_and_round_trip():
    for obj in VALID:
        assert model_to_dict(model_from_dict(obj)) == obj
