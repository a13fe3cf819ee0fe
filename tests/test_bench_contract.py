"""The benchmark's span tracer looks up package functions by name.

A refactor that drops or renames a traced function fails here, in the fast
suite, rather than only in the traced benchmark run (``pytest bench``).
"""

import importlib
from pathlib import Path

import numpy as np

from stackgp.cwm import fit_cwm

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} is not a callable"


def test_cwm_iterations_count_the_starting_vertex(monkeypatch):
    # the traced runs require cwm.iterations > 0; an exact member makes the
    # starting vertex optimal, so the count must include that vertex
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    (attrs,) = [t[3] for t in spans.TARGETS if t[2] == "cwm.fit"]
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    H = np.column_stack([y + rng.normal(size=30), y, y + rng.normal(size=30)])
    weights = fit_cwm(H, y)
    np.testing.assert_array_equal(weights.beta, [0.0, 1.0, 0.0])
    assert attrs((H, y), {}, weights)["iterations"] >= 1
