"""Self-describing JSON persistence for trained models.

Layout: {"format": "argstruct-model", "version": 1, "family": <tag>,
"n_features": <d>, "params": {...}} where params holds weights/bias for the
linear families, a tree list for the forest, and base score + shrinkage +
tree list for boosting. Trees serialize as nested objects: internal nodes
{"f": feature, "t": threshold, "l": ..., "r": ...}, leaves {"v": value}.
In memory the trees are flat node arrays (``tree.Trees``); saving walks them
into this nested form and loading flattens it back, so the file format does
not depend on the in-memory layout.

Loading validates everything it reads: a missing key, a value of the wrong
type, a feature index outside [0, n_features), a non-finite number or a
weight vector of the wrong length raises ModelFormatError.
"""

import json
import math
from pathlib import Path

import numpy as np

from .boosting import GradientBoostedModel
from .forest import RandomForestModel
from .linear import LinearModel
from .tree import Trees

FORMAT_NAME = "argstruct-model"
FORMAT_VERSION = 1


class ModelFormatError(Exception):
    pass


def _tree_objs(trees: Trees) -> list:
    feature = trees.feature.tolist()
    threshold = trees.threshold.tolist()
    left = trees.left.tolist()
    right = trees.right.tolist()
    value = trees.value.tolist()

    def obj(i):
        if feature[i] < 0:
            return {"v": value[i]}
        return {"f": feature[i], "t": threshold[i], "l": obj(left[i]), "r": obj(right[i])}

    return [obj(root) for root in trees.roots.tolist()]


def model_to_dict(model) -> dict:
    if isinstance(model, LinearModel):
        params = {"weights": model.weights.tolist(), "bias": model.bias}
    elif isinstance(model, RandomForestModel):
        params = {"trees": _tree_objs(model.trees)}
    elif isinstance(model, GradientBoostedModel):
        params = {
            "base_score": model.base_score,
            "shrinkage": model.shrinkage,
            "trees": _tree_objs(model.trees),
        }
    else:
        raise ModelFormatError(f"cannot serialize {type(model).__name__}")
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": model.family,
        "n_features": model.n_features,
        "params": params,
    }


def _get(obj, key, where):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be an object")
    if key not in obj:
        raise ModelFormatError(f"{where} has no {key!r}")
    return obj[key]


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ModelFormatError(f"{where} must be finite, got {value!r}")
    return float(value)


def _integer(value, where, low, high) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ModelFormatError(f"{where} must be an integer in [{low}, {high}), got {value!r}")
    return value


def _trees_from_objs(objs, n_features) -> Trees:
    """Flatten nested tree objects, checking every node."""
    if not isinstance(objs, list):
        raise ModelFormatError("params.trees must be a list")
    feature, threshold, left, right, value, roots = [], [], [], [], [], []
    for k, root in enumerate(objs):
        roots.append(len(feature))
        pending = [(root, f"tree {k}", None, None)]  # (node, where, parent, side)
        while pending:
            obj, where, parent, side = pending.pop()
            i = len(feature)
            if parent is not None:
                side[parent] = i
            left.append(i)  # a leaf points to itself
            right.append(i)
            if isinstance(obj, dict) and "v" in obj:
                feature.append(-1)
                threshold.append(0.0)
                value.append(_number(obj["v"], where + ".v"))
            else:
                feature.append(_integer(_get(obj, "f", where), where + ".f", 0, n_features))
                threshold.append(_number(_get(obj, "t", where), where + ".t"))
                value.append(0.0)
                pending.append((_get(obj, "r", where), where + ".r", i, right))
                pending.append((_get(obj, "l", where), where + ".l", i, left))
    feature, left, right, roots = (
        np.array(xs, dtype=np.int32) for xs in (feature, left, right, roots)
    )
    return Trees(feature, np.array(threshold), left, right, np.array(value), roots)


def model_from_dict(obj: dict):
    if not isinstance(obj, dict) or obj.get("format") != FORMAT_NAME:
        raise ModelFormatError("not an argstruct model file")
    if obj.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported version {obj.get('version')!r}")
    family = _get(obj, "family", "model")
    params = _get(obj, "params", "model")
    n_features = _integer(_get(obj, "n_features", "model"), "n_features", 0, math.inf)
    if family in ("lgr", "svm"):
        weights = _get(params, "weights", "params")
        if not isinstance(weights, list) or len(weights) != n_features:
            raise ModelFormatError(f"params.weights must be a list of {n_features} numbers")
        return LinearModel(
            family=family,
            weights=np.array([_number(w, "params.weights") for w in weights], dtype=float),
            bias=_number(_get(params, "bias", "params"), "params.bias"),
        )
    if family == "rforest":
        return RandomForestModel(
            family=family,
            trees=_trees_from_objs(_get(params, "trees", "params"), n_features),
            n_features=n_features,
        )
    if family == "gbt":
        return GradientBoostedModel(
            family=family,
            base_score=_number(_get(params, "base_score", "params"), "params.base_score"),
            shrinkage=_number(_get(params, "shrinkage", "params"), "params.shrinkage"),
            trees=_trees_from_objs(_get(params, "trees", "params"), n_features),
            n_features=n_features,
        )
    raise ModelFormatError(f"unknown family {family!r}")


def save_model(model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
