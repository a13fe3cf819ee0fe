"""The benchmark's span tracer looks up package functions by name.

A refactor that drops or renames a traced function fails here, in the fast
suite, rather than only in the traced benchmark run (``pytest bench``).
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} is not a callable"
