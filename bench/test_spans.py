"""Checks of the benchmark's span tracing.

    PYTHONPATH=src python3 -m pytest bench -q

The traced-run tests run the benchmark itself (about a minute in all).
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent


def test_install_rebinds_every_lookup_site():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in spans.TARGETS}
    restore = spans.install(spans.Tracer())
    try:
        for name, module in sorted(sys.modules.items()):
            if name != "stackgp" and not name.startswith("stackgp."):
                continue
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), \
                    f"{name}.{attr} still refers to the untraced function"
        # names copied into callers by `from .x import y`
        for module, attr, home in [
            ("stackgp.stacking", "fit_learner", "stackgp.learners.base"),
            ("stackgp.learners.boosting", "grow_tree", "stackgp.learners.trees"),
            ("stackgp.learners.forest", "grow_tree", "stackgp.learners.trees"),
            ("stackgp.cli", "gp_stacked_predict", "stackgp.gp"),
            ("stackgp.stacking", "fit_hyperparams", "stackgp.gp"),
            ("stackgp.stacking", "cov_block", "stackgp.gp"),
            ("stackgp.synth", "matern1_matrix", "stackgp.gp"),
            ("stackgp.cli", "save_model", "stackgp.model_io"),
        ]:
            bound = getattr(importlib.import_module(module), attr)
            assert bound.__wrapped__ is originals[(home, attr)], f"{module}.{attr}"
    finally:
        restore()
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_layer_metrics_self_time_and_nesting():
    recorded = [
        {"layer": "cli.command", "parent": None, "start": 0.0, "end": 10.0},
        {"layer": "gp.hyperfit", "parent": 0, "start": 1.0, "end": 5.0},
        {"layer": "gp.hyperfit", "parent": 1, "start": 2.0, "end": 3.0},
        {"layer": "gp.optimizer", "parent": 1, "start": 2.0, "end": 4.0, "nfev": 7, "nit": 5,
         "success": False, "fun": 3.5, "evals": 8, "penalty": 2},
        {"layer": "model_io.save", "parent": 0, "start": 6.0, "end": 7.0, "bytes": 100},
    ]
    values = spans.layer_metrics(recorded)
    assert values["gp.hyperfit_s"] == 4.0          # the nested call is not counted twice
    assert values["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert values["gp.objective_evals"] == 7
    assert values["gp.optimizer_unconverged"] == 1
    assert values["gp.penalty_eval_ratio"] == 0.25
    assert values["model_io.model_bytes"] == 100
    assert values["cli.command_s"] == 10.0
    assert set(values) - {"cli.command_s"} | {"cli.startup_s", "trace_overhead_s", "oof_mse",
                                               "truth_mse"} == set(spans.PER_LAYER)


def test_benchmark_json_lists_the_traced_metrics_and_workloads():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["per_layer"]] == list(spans.PER_LAYER)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == spans.PER_LAYER[m["name"]][:2]
    assert [w["name"] for w in doc["workloads"]] == list(spans.ALL)


@pytest.mark.parametrize("workload", spans.ALL)
def test_traced_run_moves_its_layers_and_keeps_outputs(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # failed counts non-zero exits, traced outputs that differ from untraced
    # ones, layers that are 0 where they should move, and work in the layers
    # of MUST_BE_ZERO
    assert result["failed"] == 0, proc.stdout
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(spans.PER_LAYER)
