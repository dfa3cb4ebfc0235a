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
type, a feature index outside [0, n_features), a non-finite number, a
weight vector of the wrong length, a forest with no trees, a file that is
not UTF-8 JSON or one nested past the recursion limit raises ModelFormatError.
"""

import json
import math
from bisect import bisect_right
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


def _first_bad(values, types):
    """Index of the first value that is a bool or not of ``types``, or None."""
    bad = {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, types)}
    return next(i for i, v in enumerate(values) if type(v) in bad) if bad else None


def _trees_from_objs(objs, n_features) -> Trees:
    """Flatten nested tree objects, checking every node.

    The walk checks each node's keys; the numbers it collects are checked
    together afterwards, and an error names the tree of the first bad one.
    """
    if not isinstance(objs, list):
        raise ModelFormatError("params.trees must be a list")
    left, right, roots = [], [], []
    splits, features, thresholds = [], [], []  # split node ids and their f, t
    leaves, values = [], []  # leaf node ids and their v
    for k, root in enumerate(objs):
        roots.append(len(left))
        pending = [(root, None, None)]  # (node, parent id, parent's child list)
        while pending:
            obj, parent, side = pending.pop()
            i = len(left)
            if parent is not None:
                side[parent] = i
            left.append(i)  # a leaf points to itself
            right.append(i)
            if not isinstance(obj, dict):
                raise ModelFormatError(f"tree {k}: a node must be an object")
            if "v" in obj:
                leaves.append(i)
                values.append(obj["v"])
                continue
            try:
                f, t, lo, hi = obj["f"], obj["t"], obj["l"], obj["r"]
            except KeyError as exc:
                raise ModelFormatError(f"tree {k}: a split node has no {exc.args[0]!r}") from None
            splits.append(i)
            features.append(f)
            thresholds.append(t)
            pending.append((hi, i, right))
            pending.append((lo, i, left))

    def fail(nodes, at, what):
        raise ModelFormatError(f"tree {bisect_right(roots, nodes[at]) - 1}: {what}")

    at = _first_bad(features, int)
    if at is not None:
        fail(splits, at, f"feature index must be an integer, got {features[at]!r}")
    if features and not (0 <= min(features) and max(features) < n_features):
        at = next(a for a, f in enumerate(features) if not 0 <= f < n_features)
        fail(splits, at, f"feature index must be in [0, {n_features}), got {features[at]!r}")
    feature = np.full(len(left), -1, dtype=np.int32)
    feature[splits] = features
    threshold, value = np.zeros(len(left)), np.zeros(len(left))
    for name, out, nodes, raw in (
        ("threshold", threshold, splits, thresholds), ("value", value, leaves, values)
    ):
        at = _first_bad(raw, (int, float))
        if at is not None:
            fail(nodes, at, f"{name} must be a number, got {raw[at]!r}")
        out[nodes] = raw
        finite = np.isfinite(out[nodes])
        if not finite.all():
            at = int(np.argmin(finite))
            fail(nodes, at, f"{name} must be finite, got {raw[at]!r}")
    left, right, roots = (np.array(xs, dtype=np.int32) for xs in (left, right, roots))
    return Trees(feature, threshold, left, right, value, roots)


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
        trees = _trees_from_objs(_get(params, "trees", "params"), n_features)
        if not len(trees):  # a forest divides its votes by its tree count
            raise ModelFormatError("params.trees of a forest must hold at least one tree")
        return RandomForestModel(family=family, trees=trees, n_features=n_features)
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
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as exc:  # nesting past the interpreter's recursion limit
        raise ModelFormatError(f"model file nested too deeply: {exc}") from None
    except ValueError as exc:  # not UTF-8 or not JSON, truncated ones among them
        raise ModelFormatError(f"model file is not UTF-8 JSON: {exc}") from None
    return model_from_dict(obj)
