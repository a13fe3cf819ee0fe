"""Versioned JSON persistence for fitted models.

Every file carries ``format_version``; loading a file written by a newer
format fails loudly instead of guessing. Floats are written with Python's
shortest-repr JSON encoding, which round-trips every finite double exactly,
and non-finite values are rejected at save time (``allow_nan=False``).

Two top-level kinds exist: ``stack`` (a StackState from any of the three
designs, including its level-0 models, fold plan, and P/H matrices) and
``plain-gp`` (the linear-mean baseline).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cwm import SimplexWeights
from .errors import ConfigError, DataError, SchemaError
from .gp import PlainGpModel, StackedGpModel
from .learners import LearnerModel
from .stacking import FoldPlan, Level2Stack, StackState

FORMAT_VERSION = 1


def _jsonable(obj):
    """Recursively convert numpy containers to exact plain-Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _weights_to_dict(w: SimplexWeights) -> dict:
    return {"beta": w.beta.tolist(), "degenerate": bool(w.degenerate),
            "meta": _jsonable(w.meta)}


def _weights_from_dict(d: dict) -> SimplexWeights:
    return SimplexWeights(beta=np.asarray(d["beta"], dtype=float),
                          degenerate=bool(d.get("degenerate", False)),
                          meta=dict(d.get("meta", {})))


def stack_to_dict(state: StackState) -> dict:
    d = {
        "kind": "stack",
        "design": state.design,
        "level1_kind": state.level1_kind,
        "plan": state.plan.to_dict(),
        "level0": [m.to_dict() for m in state.level0],
        "P": state.P.tolist(),
        "H": state.H.tolist(),
    }
    if state.level1_kind == "cwm":
        d["level1"] = _weights_to_dict(state.level1)
    elif state.level1_kind == "gp":
        d["level1"] = state.level1.to_dict()
    elif state.level1_kind == "gp+cwm":
        stack: Level2Stack = state.level1
        d["level1"] = {"members": [m.to_dict() for m in stack.members],
                       "weights": _weights_to_dict(stack.weights),
                       "member_columns": list(stack.member_columns)}
    else:
        raise DataError(f"cannot serialise level-1 kind {state.level1_kind!r}")
    return d


def stack_from_dict(d: dict) -> StackState:
    state = StackState(
        P=np.asarray(d["P"], dtype=float),
        H=np.asarray(d["H"], dtype=float),
        plan=FoldPlan.from_dict(d["plan"]),
        level0=[LearnerModel.from_dict(m) for m in d["level0"]],
        design=int(d["design"]),
        level1_kind=d["level1_kind"],
    )
    lvl = d["level1"]
    if state.level1_kind == "cwm":
        state.level1 = _weights_from_dict(lvl)
    elif state.level1_kind == "gp":
        state.level1 = StackedGpModel.from_dict(lvl)
    elif state.level1_kind == "gp+cwm":
        state.level1 = Level2Stack(
            members=[StackedGpModel.from_dict(m) for m in lvl["members"]],
            weights=_weights_from_dict(lvl["weights"]),
            member_columns=[int(c) for c in lvl["member_columns"]])
    else:
        raise SchemaError(f"unknown level-1 kind {state.level1_kind!r} in model file")
    return state


def model_to_dict(model) -> dict:
    if isinstance(model, StackState):
        payload = stack_to_dict(model)
    elif isinstance(model, PlainGpModel):
        payload = {"kind": "plain-gp", **model.to_dict()}
    else:
        raise DataError(f"cannot serialise model of type {type(model).__name__}")
    payload["format_version"] = FORMAT_VERSION
    return payload


def model_from_dict(d: dict):
    version = d.get("format_version")
    if not isinstance(version, int):
        raise SchemaError("model file has no integer format_version")
    if version > FORMAT_VERSION:
        raise SchemaError(f"model file format_version {version} is newer than the "
                          f"supported {FORMAT_VERSION}; upgrade the package to read it")
    kind = d.get("kind")
    if kind == "stack":
        return stack_from_dict(d)
    if kind == "plain-gp":
        return PlainGpModel.from_dict(d)
    raise SchemaError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    """Write a model JSON file; floats round-trip exactly."""
    payload = _jsonable(model_to_dict(model))
    text = json.dumps(payload, allow_nan=False, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path):
    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: model file must hold a JSON object")
    try:
        return model_from_dict(d)
    except SchemaError as exc:     # format_version and unknown kinds, worded without the path
        raise SchemaError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ConfigError, DataError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc!r}") from exc
