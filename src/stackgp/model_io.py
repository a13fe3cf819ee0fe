"""Versioned JSON persistence for fitted models.

Every file carries ``format_version``; loading a file written by a newer
format fails loudly instead of guessing. Floats are written with Python's
shortest-repr JSON encoding, which round-trips every finite double exactly,
and non-finite values are refused when saving (``allow_nan=False``) and when
loading (``NaN``, ``Infinity`` or an overflowing ``1e999``).

This module is only the envelope around a model's own ``to_dict`` layout:
the top-level ``kind``, ``stack`` (a StackState from any of the three designs)
or ``plain-gp`` (the GP with a GLS linear mean), and ``format_version``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .gp import PlainGpModel
from .stacking import StackState

FORMAT_VERSION = 1
KINDS = {"stack": StackState, "plain-gp": PlainGpModel}   # top-level kind -> model type


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


def model_from_dict(d: dict):
    version = d.get("format_version")
    if not isinstance(version, int):
        raise SchemaError("model file has no integer format_version")
    if version > FORMAT_VERSION:
        raise SchemaError(f"model file format_version {version} is newer than the "
                          f"supported {FORMAT_VERSION}; upgrade the package to read it")
    kind = d.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown model kind {kind!r}")
    return KINDS[kind].from_dict(d)


def save_model(model, path) -> None:
    """Write a model JSON file; floats round-trip exactly."""
    kind = next((k for k, cls in KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DataError(f"cannot serialise model of type {type(model).__name__}")
    payload = {"kind": kind, **model.to_dict(), "format_version": FORMAT_VERSION}
    text = json.dumps(_jsonable(payload), allow_nan=False, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _finite(token: str) -> float:
    if math.isfinite(value := float(token)):
        return value
    raise ValueError(f"model files hold only finite numbers, got {token}")


def load_model(path):
    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:     # JSONDecodeError or a non-finite number
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: model file must hold a JSON object")
    try:
        return model_from_dict(d)
    except SchemaError as exc:     # format_version and unknown kinds, worded without the path
        raise SchemaError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError, DataError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc!r}") from exc
