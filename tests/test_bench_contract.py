"""The benchmark's span tracer looks up package functions by name.

A refactor that drops or renames a traced function fails here, in the fast
suite, rather than only in the traced benchmark run (``pytest bench``).
"""

import csv
import importlib
import json
from pathlib import Path

import numpy as np
import yaml

from stackgp.cli import main
from stackgp.cwm import fit_cwm
import stackgp.gp as gp
from stackgp.gp import fit_hyperparams, matern1_matrix, minimize
from stackgp.learners import LearnerSpec
from stackgp.stacking import fit_stack, make_folds, repeat_cv_evaluate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} is not a callable"


def test_the_two_gp_predict_targets_are_distinct_functions():
    # spans.install wraps each TARGETS entry wherever its function object is
    # bound; were one predict an alias of the other, both entries would wrap
    # it and one call would record two gp.predict spans
    assert gp.gp_stacked_predict is not gp.plain_gp_predict


def test_bench_span_binding_check_passes(monkeypatch):
    # the check `pytest bench` runs: a src refactor that drops a caller's
    # `from .x import y` binding (say stackgp.cli.gp_stacked_predict) fails here
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("test_spans").test_install_rebinds_every_lookup_site()


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


def test_traced_gp_fits_count_evaluations_and_lml_spans(monkeypatch):
    # the tracer counts optimizer evaluations by comparing each objective
    # value with the penalty, so the objective must return a plain float;
    # it records gp.lml spans only if the fits evaluate through
    # stackgp.gp.log_marginal_likelihood
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(46)
    n = 30
    points = np.column_stack([rng.uniform(30.0, 31.0, n), rng.uniform(-2.0, -1.0, n),
                              rng.integers(0, 6, n).astype(float)])
    basis = rng.normal(size=(n, 2))
    y = basis @ [0.6, 0.4] + rng.normal(size=n) * 0.3
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        gp.fit_hyperparams(y, basis, points, restarts=1, max_iter=30)
        gp.fit_gp_linear_mean(y, basis, points, restarts=1, max_iter=30)
    finally:
        restore()
    assert gp.fit_hyperparams is fit_hyperparams and gp.minimize is minimize
    runs = [span for span in tracer.spans if span["layer"] == "gp.optimizer"]
    assert len(runs) == 2
    assert all(run["evals"] > 0 and run["penalty"] == 0 for run in runs), runs
    assert any(span["layer"] == "gp.lml" for span in tracer.spans)


def test_level0_fits_run_inside_the_traced_level0_span(monkeypatch):
    # the traced gp-cv run requires stacking.level0_s, the run_level0 span, to be
    # non-zero and counts learners.fit spans; a cv that fitted its folds outside
    # run_level0 would fail only there, so pin it here on a small problem
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(47)
    n, v = 30, 3
    X = rng.normal(size=(n, 3))
    y = X @ [0.6, -0.4, 0.2] + rng.normal(size=n) * 0.3
    points = np.column_stack([rng.uniform(30.0, 31.0, n), rng.uniform(-2.0, -1.0, n),
                              rng.integers(0, 6, n).astype(float)])
    specs = [LearnerSpec(kind="enet", name="enet", seed=3, params={"lambda1": 0.1}),
             LearnerSpec(kind="mars", name="mars", seed=5, params={"max_terms": 5})]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        repeat_cv_evaluate(X, y, points, specs, v=v, repeats=2, seed=1,
                           gp_options={"restarts": 1, "max_iter": 20})
        cv_spans = len(tracer.spans)
        fit_stack(1, X, y, points, specs, make_folds(n, v, seed=1), level1="cwm")
    finally:
        restore()

    def in_level0(i):
        while i is not None and tracer.spans[i]["layer"] != "stacking.level0":
            i = tracer.spans[i]["parent"]
        return i is not None
    cv_fits = [i for i in range(cv_spans) if tracer.spans[i]["layer"] == "learners.fit"]
    assert len(cv_fits) == 2 * v * len(specs)       # repeats x folds x learners, no full fits
    assert all(in_level0(i) for i in cv_fits)
    fit_layers = [span["layer"] for span in tracer.spans[cv_spans:]]
    assert fit_layers.count("stacking.level0") == 1
    assert fit_layers.count("learners.fit") == (v + 1) * len(specs)


def test_traced_level2_predict_records_every_predict_layer(monkeypatch, tmp_path):
    # the traced lattice-predict run requires these layers to be non-zero;
    # a predict path that stops looking the functions up through the module
    # globals would drop their spans, so pin them here on a small model
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")

    def write(name, payload):
        (tmp_path / name).write_text(yaml.safe_dump(payload), encoding="utf-8")
        return str(tmp_path / name)

    data = tmp_path / "data"
    synth = write("synth.yaml", {"synth": {"n_surveys": 30, "n_lon": 5, "n_lat": 5,
                                           "m_covariates": 2}, "output_dir": str(data)})
    assert main(["synth", "--config", synth, "--seed", "3"]) == 0
    inputs = {"surveys": str(data / "surveys.csv"), "stack": str(data / "stack.yaml")}
    fit = write("fit.yaml", {
        "data": inputs, "gp": {"restarts": 1, "max_iter": 20}, "output_dir": str(tmp_path),
        "stacking": {"design": 2, "v": 3, "learners": [
            {"kind": "enet", "name": "enet-a", "params": {"lambda1": 0.1}},
            {"kind": "enet", "name": "enet-b", "params": {"lambda1": 0.01}}]}})
    assert main(["fit", "--config", fit]) == 0
    predict = write("predict.yaml", {"data": inputs, "output_dir": str(tmp_path),
                                     "predict": {"model": str(tmp_path / "model.json"),
                                                 "months": [16, 17]}})
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert main(["predict", "--config", predict]) == 0
    finally:
        restore()
    assert gp.matern1_matrix is matern1_matrix
    layers = [span["layer"] for span in tracer.spans]
    for layer in ("gp.kernel", "gp.cov_block", "gp.condition", "gp.predict", "dataset.grid"):
        assert layer in layers, f"no {layer} span in a traced level-2 predict"
    # one grid and, per level-2 member, one conditioning over both months
    assert layers.count("dataset.grid") == 1
    assert layers.count("gp.predict") == layers.count("gp.condition") == 2
    # each member evaluates the Matern once per training pair and once per
    # (survey, distinct cell), however the months and blocks split the points
    members = json.loads((tmp_path / "model.json").read_text())["level1"]["members"]
    with open(tmp_path / "predictions.csv", newline="") as f:
        sites = len({(row["lon"], row["lat"]) for row in csv.DictReader(f)})

    def enclosing_predict(i):
        while tracer.spans[i]["layer"] != "gp.predict":
            i = tracer.spans[i]["parent"]
        return i
    entries, conditions = {}, []
    for i, span in enumerate(tracer.spans):
        if span["layer"] == "gp.kernel":
            entries[enclosing_predict(i)] = entries.get(enclosing_predict(i), 0) + span["entries"]
        elif span["layer"] == "gp.condition":
            conditions.append(enclosing_predict(i))
    expected = [len(m["train_points"]) * (len(m["train_points"]) + sites) for m in members]
    assert list(entries.values()) == expected
    assert conditions == list(entries)      # one conditioning inside each member's predict
