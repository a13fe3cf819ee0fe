import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from stackgp.cli import COMMANDS, main
from stackgp.config import KEYS
from stackgp.cwm import cwm_predict
from stackgp.dataset import build_prediction_grid, load_stack_manifest
from stackgp.gp import gp_stacked_predict, plain_gp_predict
from stackgp.model_io import load_model
from stackgp.stacking import level2_mean_sd

SRC = Path(__file__).resolve().parents[1] / "src"


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario")
    data_dir = root / "data"
    cfg = write_yaml(root / "synth.yaml", {
        "synth": {"n_surveys": 40, "n_lon": 8, "n_lat": 8, "n_months": 8,
                  "m_covariates": 2, "noise_sd": 0.2},
        "output_dir": str(data_dir),
    })
    assert main(["synth", "--config", str(cfg), "--seed", "7"]) == 0
    return data_dir


DESIGN3 = {"design": 3, "learners": [{"kind": "enet"}], "gp_variants": [{}]}


def fit_config(scenario, out, **stacking):
    body = {"design": 1, "v": 3, "learners": [
        {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.1}},
        {"kind": "gbt", "params": {"n_rounds": 5}},
    ]}
    body.update(stacking)
    if body["design"] == 1:     # a CWM level-1 unless the test picks one; no other design reads it
        body.setdefault("level1", "cwm")
    return {
        "data": {"surveys": str(scenario / "surveys.csv"),
                 "stack": str(scenario / "stack.yaml")},
        "stacking": body,
        "gp": {"restarts": 1, "max_iter": 40},
        "output_dir": str(out),
    }


@pytest.fixture(scope="module")
def cwm_fit(scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("cwm-fit")
    cfg = write_yaml(out / "fit.yaml", fit_config(scenario, out))
    assert main(["fit", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def gp_fit(scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("gp-fit")
    cfg = write_yaml(out / "fit.yaml", fit_config(scenario, out, level1="gp"))
    assert main(["fit", "--config", str(cfg)]) == 0
    return out


def test_console_script_is_cli_main():
    # an installed `stackgp` runs the main every other test calls
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attr = pyproject["project"]["scripts"]["stackgp"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


class TestSynth:
    def test_outputs_and_provenance(self, scenario):
        assert (scenario / "surveys.csv").exists()
        assert (scenario / "stack.yaml").exists()
        assert (scenario / "truth.csv").exists()
        assert (scenario / "resolved-config.yaml").exists()
        resolved = yaml.safe_load((scenario / "resolved-config.yaml").read_text())
        assert resolved["seed"] == 7
        grids = list((scenario / "grids").glob("*.csv"))
        # one static surface + 8 monthly slices of the dynamic covariate
        assert len(grids) == 1 + 8

    def test_seed_is_mandatory(self, scenario, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "synth.yaml", {
            "synth": {"n_surveys": 10, "n_lon": 8, "n_lat": 8, "n_months": 8},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err
        assert "--seed" in err

    def test_rerun_is_byte_identical(self, scenario, tmp_path):
        cfg = write_yaml(tmp_path / "synth.yaml", {
            "synth": {"n_surveys": 40, "n_lon": 8, "n_lat": 8, "n_months": 8,
                      "m_covariates": 2, "noise_sd": 0.2},
            "output_dir": str(tmp_path / "again"),
        })
        assert main(["synth", "--config", str(cfg), "--seed", "7"]) == 0
        for name in ("surveys.csv", "truth.csv", "stack.yaml"):
            assert (tmp_path / "again" / name).read_bytes() \
                == (scenario / name).read_bytes()


class TestConfigFailures:
    def test_unknown_key_exits_2_with_category(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "bad.yaml", {"mystery_key": 1})
        assert main(["synth", "--config", str(cfg), "--seed", "1"]) == 2
        assert "stackgp: error category=config:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, keys", [
        ("synth", {1: "x", "stackign": 2}, ["1", "stackign"]),
        ("fit", {"stacking": {1: "a", "lvl1": "b"}}, ["1", "lvl1"]),
        ("fit", {"stacking": {"learners": [{"kind": "enet", "params": {1: 2, "depth": 3}}]}},
         ["1", "depth"]),
        ("synth", {"synth": {1: 2, "mystery": 3}}, ["1", "mystery"]),
        ("fit", {"stacking": {"learners": [{"kind": "enet"}]}, "gp": {"fixed": {1: 2, "range": 3}}},
         ["1", "range"]),
    ], ids=["top-level", "stacking", "learner-params", "synth", "gp-fixed"])
    def test_integer_key_beside_a_text_key_exits_2_naming_both(self, tmp_path, capsys,
                                                                command, config, keys):
        # sorting the raw keys compared an int with a str and exited 1
        cfg = {"data": {"surveys": str(tmp_path / "absent.csv"),
                        "stack": str(tmp_path / "absent.yaml")},
               "output_dir": str(tmp_path / "out"), **config}
        assert main([command, "--config", str(write_yaml(tmp_path / "run.yaml", cfg)),
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err and f"unknown key(s) {keys}" in err

    @pytest.mark.parametrize("kind, key, value", [
        ("enet", "lambda1", float("inf")), ("enet", "lambda2", float("inf")),
        ("mars", "gcv_penalty", float("inf")), ("gbt", "learning_rate", float("inf")),
        ("gam", "lambda_grid", [1.0, float("inf")])])
    def test_infinite_learner_param_exits_2_before_inputs_are_read(self, tmp_path, capsys,
                                                                   kind, key, value):
        # lambda1 and gcv_penalty fitted and then could not be saved; lambda2 failed a solve
        cfg = {"data": {"surveys": str(tmp_path / "absent.csv"),
                        "stack": str(tmp_path / "absent.yaml")},
               "stacking": {"learners": [{"kind": kind, "params": {key: value}}]},
               "output_dir": str(tmp_path / "out")}
        assert main(["fit", "--config", str(write_yaml(tmp_path / "fit.yaml", cfg))]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err
        assert f"learner '{kind}': {key} must be" in err and f"got {value}" in err

    @pytest.mark.parametrize("key, value", [
        ("d_lon", 0), ("d_lat", -0.05), ("n_tested_range", [1, 10000000000000000000])])
    def test_out_of_range_synth_field_exits_2(self, tmp_path, capsys, key, value):
        # d_lon 0 exited 3 as invalid grid geometry; the huge range exited 1 from numpy
        cfg = write_yaml(tmp_path / "synth.yaml", {
            "synth": {"n_surveys": 10, "n_lon": 4, "n_lat": 4, "n_months": 8, key: value},
            "output_dir": str(tmp_path / "out")})
        assert main(["synth", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err and f"{key} must be" in err
        assert not (tmp_path / "out" / "surveys.csv").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "absent.yaml"),
                     "--seed", "1"]) == 2
        assert "category=config" in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "fit.yaml", {
            "data": {"surveys": str(tmp_path / "absent.csv"),
                     "stack": str(tmp_path / "absent.yaml")},
            "stacking": {"learners": [{"kind": "enet"}]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["fit", "--config", str(cfg)]) == 3
        assert "stackgp: error category=data:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, surveys", [
        pytest.param("design", 9, None, id="9"),
        pytest.param("design", True, None, id="True"),
        pytest.param("design", 2.0, None, id="2.0"),
        # the names are checked when the config loads, before any data file is read
        pytest.param("design", 9, "nope.csv", id="9-missing-surveys"),
        pytest.param("level1", "ols", "nope.csv", id="level1-ols-missing-surveys"),
    ])
    def test_bad_design_exits_2(self, scenario, tmp_path, capsys, key, value, surveys):
        cfg_dict = fit_config(scenario, tmp_path / "out", **{key: value})
        if surveys:
            cfg_dict["data"]["surveys"] = str(tmp_path / surveys)
        cfg = write_yaml(tmp_path / "fit.yaml", cfg_dict)
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and f"stacking.{key} must be" in err

    @pytest.mark.parametrize("stacking, key", [
        ({"design": 2, "level1": "cwm"}, "stacking.level1"),
        ({"design": 1, "gp_variants": [{"phi": 0.0}]}, "stacking.gp_variants"),
        ({"design": 2, "gp_variants": [{"phi": 0.0}]}, "stacking.gp_variants"),
        ({"design": "plain-gp", "level1": "gp"}, "stacking.level1"),
        ({"design": 2, "level1": "cwm", "gp_variants": [{"phi": 0.0}]}, "stacking.level1"),
    ], ids=["design2-level1", "design1-gp_variants", "design2-gp_variants", "plain-gp-level1",
            "design2-both"])
    def test_key_of_another_design_exits_2_before_inputs_are_read(self, scenario, tmp_path,
                                                                  capsys, stacking, key):
        # a key the design does not read would be silently ignored; it means another design
        cfg_dict = fit_config(scenario, tmp_path / "out", **stacking)
        cfg_dict["data"]["surveys"] = str(tmp_path / "nope.csv")
        cfg = write_yaml(tmp_path / "fit.yaml", cfg_dict)
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err and f"{key} applies to design" in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_bad_gp_variant_key_exits_2(self, scenario, tmp_path, capsys):
        cfg_dict = fit_config(scenario, tmp_path / "out", design=3,
                              gp_variants=[{"range": 1.0}],
                              learners=[{"kind": "enet"}])
        cfg = write_yaml(tmp_path / "fit.yaml", cfg_dict)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "range" in capsys.readouterr().err

    def test_negative_gp_seed_exits_2(self, scenario, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "fit.yaml", fit_config(scenario, tmp_path / "out"))
        assert main(["fit", "--config", str(cfg), "--set", "gp.seed=-1"]) == 2
        assert "gp.seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("stacking, override, key", [
        ({}, "gp.fixed.phi=2", "gp.fixed.phi"),
        ({}, "gp.fixed.phi=abc", "gp.fixed.phi"),
        ({}, "gp.fixed.sigma_e2=-1", "gp.fixed.sigma_e2"),
        ({}, "gp.fixed.log_tau=.nan", "gp.fixed.log_tau"),
        ({}, "gp.fixed.log_kappa=true", "gp.fixed.log_kappa"),
        ({}, "gp.fixed.beta=[1.0]", "gp.fixed.beta"),          # two learners feed it
        ({}, "gp.fixed.beta=[-1, 2]", "gp.fixed.beta"),
        ({}, "gp.fixed.beta=[0, 0]", "gp.fixed.beta"),
        (DESIGN3, "gp.fixed.beta=[0.5, 0.5]", "gp.fixed.beta"),  # single-column members
        (DESIGN3, "stacking.gp_variants=[{phi: 1.5}]", "stacking.gp_variants[0].phi"),
    ])
    def test_bad_fixed_value_exits_2_naming_key(self, scenario, tmp_path, capsys,
                                                stacking, override, key):
        cfg = write_yaml(tmp_path / "fit.yaml",
                         fit_config(scenario, tmp_path / "out", **stacking))
        assert main(["fit", "--config", str(cfg), "--set", override]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err
        assert f"{key} must be" in err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("fit", "data.surveys=5", "data.surveys"),
        ("fit", "data.stack=5", "data.stack"),
        ("predict", "predict.model=5", "predict.model"),
        ("decompose", "decompose.model=5", "decompose.model"),
        ("eval", "eval.predictions=5", "eval.predictions"),
        ("eval", "eval.truth=5", "eval.truth"),
        ("eval", "eval.truth_field=[1]", "eval.truth_field"),
    ])
    def test_wrong_typed_input_exits_2_naming_key(self, scenario, cwm_fit, tmp_path, capsys,
                                                  command, override, key):
        table = tmp_path / "table.csv"
        table.write_text("lon,lat,t,mean\n1.0,2.0,0,0.5\n")
        cfg = write_yaml(tmp_path / "run.yaml", {
            **fit_config(scenario, tmp_path / "out"),
            "predict": {"model": str(cwm_fit / "model.json"), "months": [6]},
            "decompose": {"model": str(cwm_fit / "model.json")},
            "eval": {"predictions": str(table), "truth": str(table), "truth_field": "mean"},
        })
        assert main([command, "--config", str(cfg), "--set", override]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err
        assert f"{key} must be" in err

    def test_values_checked_before_inputs_are_read(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(tmp_path / "absent.csv"),
                     "stack": str(tmp_path / "absent.yaml")},
            "stacking": {"learners": [{"kind": "enet"}]},
            "cv": {"repeats": 0},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "1"]) == 2
        assert "cv.repeats must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, body, message", [
        ("fit", "stacking", {"learners": [{"kind": "nope"}]}, "unknown learner kind 'nope'"),
        ("fit", "stacking", {"design": 3, "learners": [{"kind": "enet"}, {"kind": "gam"}]},
         "design 3 takes exactly one learner"),
        ("cv", "stacking", {"learners": [{"kind": "nope"}]}, "unknown learner kind 'nope'"),
        ("cv", "cv", {"methods": ["gp-stak"]}, "cv.methods must be"),
    ], ids=["fit-learner-kind", "fit-design3-roster", "cv-learner-kind", "cv-method-name"])
    def test_roster_and_methods_checked_before_inputs_are_read(self, tmp_path, capsys, command,
                                                               section, body, message):
        cfg = {"data": {"surveys": str(tmp_path / "absent.csv"),
                        "stack": str(tmp_path / "absent.yaml")},
               "stacking": {"learners": [{"kind": "enet"}]},
               "output_dir": str(tmp_path / "out")}
        cfg[section] = body
        assert main([command, "--config", str(write_yaml(tmp_path / "run.yaml", cfg)),
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err and message in err

    @pytest.mark.parametrize("key", [key for key, entry in KEYS.items() if entry is not None])
    @pytest.mark.parametrize("value", ["true", "[[]]"])
    def test_every_checked_key_rejects_wrong_type(self, tmp_path, capsys, key, value):
        cfg = write_yaml(tmp_path / "empty.yaml", {})
        assert main(["eval", "--config", str(cfg), "--output-dir", str(tmp_path / "out"),
                     "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert "stackgp: error category=config:" in err
        assert f"{key} must be" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_duplicate_learner_names_exit_2(self, scenario, tmp_path, capsys):
        cfg_dict = fit_config(scenario, tmp_path / "out",
                              learners=[{"kind": "enet"}, {"kind": "enet"}])
        cfg = write_yaml(tmp_path / "fit.yaml", cfg_dict)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "unique" in capsys.readouterr().err


class TestDesign3:
    def test_gp_fixed_applies_to_every_variant(self, scenario, tmp_path):
        out = tmp_path / "d3"
        cfg = write_yaml(tmp_path / "fit.yaml", fit_config(
            scenario, out, design=3, learners=[{"kind": "enet"}],
            gp_variants=[{}, {"phi": 0.0}]))
        assert main(["fit", "--config", str(cfg), "--set", "gp.fixed.log_kappa=1.0",
                     "--set", "gp.fixed.phi=0.5"]) == 0
        members = load_model(out / "model.json").level1.members
        assert [m.params.log_kappa for m in members] == [1.0, 1.0]
        # the variant's own key wins over gp.fixed
        assert [m.params.phi for m in members] == [0.5, 0.0]


class TestFitAndPredict:
    def test_fit_writes_model_and_resolved_config(self, cwm_fit):
        assert (cwm_fit / "model.json").exists()
        assert (cwm_fit / "resolved-config.yaml").exists()
        payload = json.loads((cwm_fit / "model.json").read_text())
        assert payload["format_version"] == 1
        assert payload["kind"] == "stack"

    def predict_into(self, scenario, model_path, out, months=(6,)):
        cfg = write_yaml(out / "predict.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(model_path), "months": list(months)},
            "output_dir": str(out),
        })
        return main(["predict", "--config", str(cfg)])

    def test_predict_grid_shape_and_schema(self, scenario, cwm_fit, tmp_path):
        assert self.predict_into(scenario, cwm_fit / "model.json", tmp_path) == 0
        rows = read_csv(tmp_path / "predictions.csv")
        assert len(rows) == 8 * 8
        assert list(rows[0]) == ["lon", "lat", "t", "mean", "sd"]
        assert all(r["t"] == "6" for r in rows)
        # CWM stacks carry no predictive distribution
        assert all(float(r["sd"]) == 0.0 for r in rows)

    def test_predict_twice_is_byte_identical(self, scenario, cwm_fit, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert self.predict_into(scenario, cwm_fit / "model.json", a, months=(6, 7)) == 0
        assert self.predict_into(scenario, cwm_fit / "model.json", b, months=(6, 7)) == 0
        assert (a / "predictions.csv").read_bytes() == (b / "predictions.csv").read_bytes()
        assert len(read_csv(a / "predictions.csv")) == 2 * 64

    def test_gp_stack_predictions_have_positive_sd(self, scenario, gp_fit, tmp_path):
        assert self.predict_into(scenario, gp_fit / "model.json", tmp_path) == 0
        rows = read_csv(tmp_path / "predictions.csv")
        sds = np.array([float(r["sd"]) for r in rows])
        assert np.all(np.isfinite(sds))
        assert sds.max() > 0

    def test_plain_gp_fit_and_predict(self, scenario, tmp_path):
        out = tmp_path / "plain"
        cfg = write_yaml(tmp_path / "fit.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"design": "plain-gp"},
            "gp": {"restarts": 1, "max_iter": 30},
            "output_dir": str(out),
        })
        assert main(["fit", "--config", str(cfg)]) == 0
        payload = json.loads((out / "model.json").read_text())
        assert payload["kind"] == "plain-gp"
        assert self.predict_into(scenario, out / "model.json", out) == 0
        rows = read_csv(out / "predictions.csv")
        assert len(rows) == 64
        assert all(np.isfinite(float(r["mean"])) for r in rows)

    def edited_model(self, cwm_fit, tmp_path, edit, kind="enet"):
        payload = json.loads((cwm_fit / "model.json").read_text())
        (learner,) = [m for m in payload["level0"] if m["spec"]["kind"] == kind]
        edit(learner)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_model_with_retired_enet_params_predicts_identically(self, scenario, cwm_fit,
                                                                  tmp_path):
        # enet models written before the active-set solve store max_iter and tol
        path = self.edited_model(cwm_fit, tmp_path, lambda m: m["spec"]["params"].update(
            max_iter=10000, tol=1e-10))
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert self.predict_into(scenario, cwm_fit / "model.json", a) == 0
        assert self.predict_into(scenario, path, b) == 0
        assert (a / "predictions.csv").read_bytes() == (b / "predictions.csv").read_bytes()

    def test_retired_enet_param_in_run_config_exits_2(self, scenario, tmp_path, capsys):
        cfg = fit_config(scenario, tmp_path / "out")
        cfg["stacking"]["learners"][0]["params"]["tol"] = 1e-10
        assert main(["fit", "--config", str(write_yaml(tmp_path / "fit.yaml", cfg))]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and "unknown key(s) ['tol']" in err

    @pytest.mark.parametrize("key, value", [("max_backfit", 30), ("tol", 1e-8)])
    def test_retired_gam_param_in_run_config_exits_2(self, scenario, tmp_path, capsys,
                                                     key, value):
        # GAM fits by one exact solve now, so its backfitting knobs are gone
        cfg = fit_config(scenario, tmp_path / "out")
        cfg["stacking"]["learners"].append({"kind": "gam", "params": {key: value}})
        assert main(["fit", "--config", str(write_yaml(tmp_path / "fit.yaml", cfg))]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and f"unknown key(s) ['{key}']" in err

    def test_short_enet_state_exits_3_naming_the_file(self, scenario, cwm_fit, tmp_path, capsys):
        path = self.edited_model(cwm_fit, tmp_path, lambda m: m["state"]["coef"].pop())
        assert self.predict_into(scenario, path, tmp_path) == 3
        err = capsys.readouterr().err
        assert f"{path}: malformed model file" in err
        assert "learner 'enet'" in err
        assert not (tmp_path / "predictions.csv").exists()

    def test_non_finite_prediction_exits_4_naming_the_file(self, scenario, cwm_fit, tmp_path,
                                                          capsys):
        # finite but huge: X @ coef overflows for some cells, which wrote inf and nan rows
        path = self.edited_model(cwm_fit, tmp_path,
                                 lambda m: m["state"]["coef"].__setitem__(0, 1e308))
        # the command's own warning filters, not the suite's error::RuntimeWarning, under
        # which the overflow would exit 1
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert self.predict_into(scenario, path, tmp_path) == 4
        err = capsys.readouterr().err
        assert f"category=numerical: {path}: a predicted mean or sd is not finite" in err, err
        assert not (tmp_path / "predictions.csv").exists()

    def test_numerical_failure_exits_4_naming_the_file(self, scenario, gp_fit, tmp_path, capsys):
        # a training point far off the grid loads, then fails in the covariance at predict
        payload = json.loads((gp_fit / "model.json").read_text())
        payload["level1"]["train_points"][0][0] = 1e308
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert self.predict_into(scenario, path, tmp_path) == 4
        err = capsys.readouterr().err
        assert f"category=numerical: {path}: " in err, err
        assert not (tmp_path / "predictions.csv").exists()

    def test_cyclic_tree_exits_3_naming_the_file(self, scenario, cwm_fit, tmp_path):
        # the root as its own left child: predict looped forever on this file
        path = self.edited_model(cwm_fit, tmp_path,
                                 lambda m: m["state"]["trees"][0]["left"].__setitem__(0, 0),
                                 kind="gbt")
        cfg = write_yaml(tmp_path / "predict.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(path), "months": [6]},
            "output_dir": str(tmp_path),
        })
        out = subprocess.run([sys.executable, "-m", "stackgp.cli", "predict", "--config", str(cfg)],
                             capture_output=True, text=True, timeout=20,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.returncode == 3, out.stderr
        assert f"{path}: malformed model file" in out.stderr and "tree node 0" in out.stderr
        assert not (tmp_path / "predictions.csv").exists()

    def test_index_beyond_c_long_exits_3_naming_the_file(self, scenario, cwm_fit, tmp_path,
                                                         capsys):
        path = self.edited_model(cwm_fit, tmp_path,
                                 lambda m: m["state"]["col_subsets"][0].__setitem__(0, 2 ** 70),
                                 kind="gbt")
        assert self.predict_into(scenario, path, tmp_path) == 3
        assert f"{path}: malformed model file: OverflowError" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["log_kappa", "log_tau"])
    def test_log_scale_past_700_exits_3_naming_the_file(self, scenario, gp_fit, tmp_path,
                                                        capsys, key):
        # exp(1e308) overflowed in GpHyperParams.kappa and exited 1
        payload = json.loads((gp_fit / "model.json").read_text())
        payload["level1"]["params"][key] = 1e308
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert self.predict_into(scenario, path, tmp_path) == 3
        err = capsys.readouterr().err
        assert f"{path}: malformed model file" in err and f"{key} must be" in err

    @staticmethod
    def copied_scenario(scenario, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(scenario, data)
        return data

    def test_grid_files_outside_the_months_are_never_read(self, scenario, gp_fit, tmp_path):
        # month 6 at lags 0, 2, 4 and 6 reads cov01 slices 6, 4, 2 and 0 only
        whole, window = tmp_path / "whole", tmp_path / "window"
        whole.mkdir(), window.mkdir()
        data = self.copied_scenario(scenario, tmp_path)
        for t in (1, 3, 5, 7):
            (data / "grids" / f"cov01_{t}.csv").unlink()
        assert self.predict_into(scenario, gp_fit / "model.json", whole) == 0
        assert self.predict_into(data, gp_fit / "model.json", window) == 0
        assert (window / "predictions.csv").read_bytes() == (whole / "predictions.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["delete", "garble"])
    def test_a_needed_grid_file_that_fails_exits_3_naming_it(self, scenario, cwm_fit, tmp_path,
                                                              capsys, damage):
        data = self.copied_scenario(scenario, tmp_path)
        needed = data / "grids" / "cov01_4.csv"
        if damage == "delete":
            needed.unlink()
        else:
            needed.write_text("1.0,2.0\n", encoding="utf-8")
        assert self.predict_into(data, cwm_fit / "model.json", tmp_path) == 3
        assert str(needed) in capsys.readouterr().err

    def test_an_empty_needed_grid_file_exits_3_with_one_error_line(self, scenario, cwm_fit,
                                                                    tmp_path):
        # numpy's "input contained no data" warning reached stderr ahead of the error
        data = self.copied_scenario(scenario, tmp_path)
        needed = data / "grids" / "cov01_4.csv"
        needed.write_text("", encoding="utf-8")
        cfg = write_yaml(tmp_path / "predict.yaml", {
            "data": {"stack": str(data / "stack.yaml")},
            "predict": {"model": str(cwm_fit / "model.json"), "months": [6]},
            "output_dir": str(tmp_path),
        })
        out = subprocess.run([sys.executable, "-m", "stackgp.cli", "predict", "--config", str(cfg)],
                             capture_output=True, text=True, timeout=20,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.returncode == 3, out.stderr
        assert out.stderr == f"stackgp: error category=data: {needed}: no grid rows\n"

    def test_a_grid_cell_that_is_not_a_number_exits_3_naming_the_file(self, scenario, tmp_path,
                                                                      capsys):
        # np.loadtxt's ValueError used to exit 1 as category=internal
        data = self.copied_scenario(scenario, tmp_path)
        garbled = data / "grids" / "cov01_4.csv"
        cells = garbled.read_text()
        garbled.write_text("abc" + cells[cells.index(","):])      # the first cell
        cfg = write_yaml(tmp_path / "fit.yaml", fit_config(data, tmp_path / "out"))
        assert main(["fit", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"stackgp: error category=data: {garbled}: could not convert string 'abc'" in err

    def test_month_past_the_stack_exits_3_with_the_month(self, scenario, cwm_fit, tmp_path,
                                                         capsys):
        assert self.predict_into(scenario, cwm_fit / "model.json", tmp_path, months=(8,)) == 3
        assert ("category=data: row 0: covariate 'cov01': month 8 outside [0, 7]"
                in capsys.readouterr().err)

    def test_bad_month_rejected(self, scenario, cwm_fit, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "predict.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(cwm_fit / "model.json"), "months": [-1]},
            "output_dir": str(tmp_path),
        })
        assert main(["predict", "--config", str(cfg)]) == 2
        assert "months" in capsys.readouterr().err


def _level0(model, grid):
    return np.column_stack([m.predict(grid.design) for m in model.level0])


def _cwm_mean_sd(model, grid):
    return cwm_predict(model.level1, _level0(model, grid)), np.zeros(len(grid.points))


def _gp_mean_sd(model, grid):
    post = gp_stacked_predict(model.level1, _level0(model, grid), grid.points)
    return post.mu_star, post.sd


def _level2_mean_sd(model, grid):
    return level2_mean_sd(model.level1, _level0(model, grid), grid.points)


def _plain_gp_mean_sd(model, grid):
    post = plain_gp_predict(model, grid.design.values, grid.points)
    return post.mu_star, post.sd


class TestPredictValues:
    """predictions.csv holds, bit for bit, the mean and sd that the building block of the
    model's level-1 gives for the loaded model on the same prediction grid."""

    @pytest.mark.parametrize("stacking, expected", [
        pytest.param({"level1": "cwm"}, _cwm_mean_sd, id="design1-cwm"),
        pytest.param({"level1": "gp"}, _gp_mean_sd, id="design1-gp"),
        pytest.param({"design": 2}, _level2_mean_sd, id="design2"),
        pytest.param(DESIGN3, _level2_mean_sd, id="design3"),
        pytest.param({"design": "plain-gp"}, _plain_gp_mean_sd, id="plain-gp"),
    ])
    def test_mean_and_sd_are_the_building_blocks(self, scenario, tmp_path, stacking, expected):
        months = [7, 6]
        fit = write_yaml(tmp_path / "fit.yaml", fit_config(scenario, tmp_path, **stacking))
        assert main(["fit", "--config", str(fit)]) == 0
        cfg = write_yaml(tmp_path / "predict.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(tmp_path / "model.json"), "months": months},
            "output_dir": str(tmp_path),
        })
        assert main(["predict", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "predictions.csv")

        covariates = load_stack_manifest(scenario / "stack.yaml")
        grid = build_prediction_grid(covariates[0].geometry, months, covariates)
        mean, sd = expected(load_model(tmp_path / "model.json"), grid)
        np.testing.assert_array_equal([[float(r[k]) for k in ("lon", "lat", "t")] for r in rows],
                                      grid.points)
        np.testing.assert_array_equal([float(r["mean"]) for r in rows], mean)
        np.testing.assert_array_equal([float(r["sd"]) for r in rows], sd)


@pytest.fixture(scope="module")
def scenario18(tmp_path_factory):
    """An 18-month scenario, so that months 16 and 17 can be predicted."""
    root = tmp_path_factory.mktemp("scenario18")
    cfg = write_yaml(root / "synth.yaml", {
        "synth": {"n_surveys": 40, "n_lon": 6, "n_lat": 6, "n_months": 18,
                  "m_covariates": 2, "noise_sd": 0.2},
        "output_dir": str(root / "data"),
    })
    assert main(["synth", "--config", str(cfg), "--seed", "8"]) == 0
    return root / "data"


class TestPredictMonthOrder:
    """Predicting several months in one command writes each month's rows, in config
    order, exactly as a one-month command writes them."""

    @staticmethod
    def predict_months(data, model, tmp_path) -> dict:
        """Months -> predictions.csv bytes of predicting [17, 16], [17] and [16]."""
        written = {}
        for months in ([17, 16], [17], [16]):
            out = tmp_path / "-".join(map(str, months))
            cfg = write_yaml(tmp_path / "predict.yaml", {
                "data": {"stack": str(data / "stack.yaml")},
                "predict": {"model": str(model / "model.json"), "months": months},
                "output_dir": str(out),
            })
            assert main(["predict", "--config", str(cfg)]) == 0
            written[tuple(months)] = (out / "predictions.csv").read_bytes()
        return written

    @pytest.mark.parametrize("design", [2, "plain-gp"])
    def test_rows_are_the_single_month_runs_in_config_order(self, scenario18, tmp_path, design):
        model = tmp_path / "model"
        fit = write_yaml(tmp_path / "fit.yaml", fit_config(scenario18, model, design=design))
        assert main(["fit", "--config", str(fit)]) == 0
        written = self.predict_months(scenario18, model, tmp_path)
        month16_rows = written[(16,)].split(b"\n", 1)[1]
        assert written[(17, 16)] == written[(17,)] + month16_rows
        assert len(read_csv(tmp_path / "17-16" / "predictions.csv")) == 2 * 36

    def test_ragged_blocks_keep_the_single_month_rows(self, tmp_path):
        # 300 surveys and 225 cells a month: the two-month run cuts its 450
        # points into blocks of other widths than either one-month run, and
        # some rows fell at other places in their blocks; the predictive mean
        # of 2 rows once differed in its last digits
        data = tmp_path / "data"
        synth = write_yaml(tmp_path / "synth.yaml", {
            "synth": {"n_surveys": 300, "n_lon": 15, "n_lat": 15, "n_months": 18,
                      "m_covariates": 2, "noise_sd": 0.2},
            "output_dir": str(data)})
        assert main(["synth", "--config", str(synth), "--seed", "8"]) == 0
        model = tmp_path / "model"
        config = fit_config(data, model, design="plain-gp")
        config["gp"] = {"restarts": 1, "max_iter": 30}
        assert main(["fit", "--config", str(write_yaml(tmp_path / "fit.yaml", config))]) == 0
        written = self.predict_months(data, model, tmp_path)
        month16_rows = written[(16,)].split(b"\n", 1)[1]
        assert written[(17, 16)] == written[(17,)] + month16_rows
        assert len(read_csv(tmp_path / "17-16" / "predictions.csv")) == 2 * 225


class TestCv:
    def test_schema_and_row_counts(self, scenario, tmp_path):
        out = tmp_path / "cv"
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"v": 3, "learners": [
                {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.1}},
                {"kind": "gbt", "params": {"n_rounds": 5}},
            ]},
            "cv": {"repeats": 2, "region": "east",
                   "methods": ["level0", "cwm-stack"]},
            "output_dir": str(out),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "3"]) == 0
        rows = read_csv(out / "metrics.csv")
        assert list(rows[0]) == ["method", "region", "repeat", "mse", "mae",
                                 "correlation"]
        # (2 learners + cwm-stack) x 2 repeats
        assert len(rows) == 3 * 2
        assert {r["method"] for r in rows} == {"enet", "gbt", "cwm-stack"}
        assert all(r["region"] == "east" for r in rows)
        summary = read_csv(out / "summary.csv")
        assert len(summary) == 3
        for srow in summary:
            picked = [float(r["mse"]) for r in rows if r["method"] == srow["method"]]
            assert float(srow["mse"]) == pytest.approx(np.mean(picked), rel=1e-15)

    def test_seed_is_mandatory(self, scenario, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"learners": [{"kind": "enet"}]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg)]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("v", ["abc", "2.5"])
    def test_bad_fold_count_exits_2(self, scenario, tmp_path, capsys, v):
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"learners": [{"kind": "enet"}]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "1",
                     "--set", f"stacking.v={v}"]) == 2
        assert "stacking.v must be an integer >= 2" in capsys.readouterr().err

    def test_unknown_method_rejected(self, scenario, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"learners": [{"kind": "enet"}]},
            "cv": {"methods": ["bagging"]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "1"]) == 2
        assert "bagging" in capsys.readouterr().err

    def test_learner_named_like_a_stack_method_exits_2(self, scenario, tmp_path, capsys):
        # its rows would be averaged into the CWM stack's summary row
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "stacking": {"learners": [{"kind": "enet", "name": "cwm-stack"}]},
            "cv": {"repeats": 1, "methods": ["level0", "cwm-stack"]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "1"]) == 2
        assert "cwm-stack" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("stacking, key", [
        ({"design": 3, "level1": "cwm", "gp_variants": [{"phi": 0.0}]}, "stacking.level1"),
        ({"design": 3, "gp_variants": [{"phi": 0.0}]}, "design 3 takes exactly one learner"),
        ({"design": 2, "gp_variants": [{}]}, "stacking.gp_variants"),
    ], ids=["level1-in-design-3", "design-3-roster", "gp_variants-in-design-2"])
    def test_stacking_section_that_fit_refuses_exits_2_before_reading_data(
            self, tmp_path, capsys, stacking, key):
        # the data files do not exist: a check after reading them would exit 3
        cfg = write_yaml(tmp_path / "cv.yaml", {
            "data": {"surveys": str(tmp_path / "missing.csv"),
                     "stack": str(tmp_path / "missing.yaml")},
            "stacking": {**stacking, "learners": [{"kind": "enet"}, {"kind": "mars"}]},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["cv", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "category=config" in err and key in err, err


class TestDecompose:
    def decompose_cfg(self, scenario, model_path, out):
        return {
            "data": {"surveys": str(scenario / "surveys.csv"),
                     "stack": str(scenario / "stack.yaml")},
            "decompose": {"model": str(model_path)},
            "output_dir": str(out),
        }

    def test_cwm_stack_decomposes_with_identity(self, scenario, cwm_fit, tmp_path):
        cfg = write_yaml(tmp_path / "d.yaml",
                         self.decompose_cfg(scenario, cwm_fit / "model.json", tmp_path))
        assert main(["decompose", "--config", str(cfg)]) == 0
        summary = read_csv(tmp_path / "decompose-summary.csv")[0]
        weighted = float(summary["weighted_error"])
        ambiguity = float(summary["ambiguity"])
        ensemble = float(summary["ensemble_error"])
        assert abs(weighted - ambiguity - ensemble) <= 1e-10 * max(1.0, weighted)
        assert float(summary["residual"]) <= 1e-10 * max(1.0, weighted)
        points = read_csv(tmp_path / "decompose.csv")
        assert len(points) == 40
        assert list(points[0]) == ["row", "weighted_error", "ambiguity",
                                   "ensemble_error"]

    def test_stack_missing_a_level0_model_exits_3_naming_the_file(self, scenario, cwm_fit,
                                                                   tmp_path, capsys):
        payload = json.loads((cwm_fit / "model.json").read_text())
        payload["level0"].pop()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = write_yaml(tmp_path / "d.yaml", self.decompose_cfg(scenario, path, tmp_path))
        assert main(["decompose", "--config", str(cfg)]) == 3
        assert f"category=schema: {path}: malformed model file" in capsys.readouterr().err
        assert not (tmp_path / "decompose.csv").exists()

    def test_gp_stack_is_rejected(self, scenario, gp_fit, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "d.yaml",
                         self.decompose_cfg(scenario, gp_fit / "model.json", tmp_path))
        assert main(["decompose", "--config", str(cfg)]) == 2
        assert "CWM" in capsys.readouterr().err


class TestEval:
    def test_self_eval_is_perfect(self, scenario, cwm_fit, tmp_path):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        cfg = write_yaml(tmp_path / "p.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(cwm_fit / "model.json"), "months": [6]},
            "output_dir": str(pred_dir),
        })
        assert main(["predict", "--config", str(cfg)]) == 0
        out = tmp_path / "eval"
        cfg = write_yaml(tmp_path / "e.yaml", {
            "eval": {"predictions": str(pred_dir / "predictions.csv"),
                     "truth": str(pred_dir / "predictions.csv"),
                     "truth_field": "mean"},
            "output_dir": str(out),
        })
        assert main(["eval", "--config", str(cfg)]) == 0
        summary = read_csv(out / "eval-summary.csv")[0]
        assert int(summary["n"]) == 64
        assert float(summary["mse"]) == 0.0
        assert float(summary["correlation"]) == pytest.approx(1.0, abs=1e-12)
        assert summary["unmatched_predictions"] == "0"
        assert summary["unmatched_truth"] == "0"

    def test_disjoint_tables_exit_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("lon,lat,t,mean\n1.0,2.0,0,0.5\n")
        b.write_text("lon,lat,t,latent\n9.0,9.0,3,0.1\n")
        cfg = write_yaml(tmp_path / "e.yaml", {
            "eval": {"predictions": str(a), "truth": str(b)},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["eval", "--config", str(cfg)]) == 3
        assert "share no" in capsys.readouterr().err

    def test_missing_field_exit_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("lon,lat,t,mean\n1.0,2.0,0,0.5\n")
        cfg = write_yaml(tmp_path / "e.yaml", {
            "eval": {"predictions": str(a), "truth": str(a),
                     "truth_field": "latent"},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["eval", "--config", str(cfg)]) == 3
        assert "latent" in capsys.readouterr().err

    def test_duplicate_key_exits_3_naming_both_lines(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("lon,lat,t,mean\n30.0,-1.0,6,0.0\n30.0,-1.0,6,5.0\n30.05,-1.0,6,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("lon,lat,t,latent\n30.0,-1.0,6,2.5\n30.05,-1.0,6,1.0\n")
        out = tmp_path / "out"
        cfg = write_yaml(tmp_path / "e.yaml", {
            "eval": {"predictions": str(pred), "truth": str(truth)},
            "output_dir": str(out),
        })
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{pred}:3: duplicate key" in err
        assert "first seen on line 2" in err
        assert not (out / "eval-summary.csv").exists()

    @pytest.mark.parametrize("rows, line, named", [
        ("30.0,-1.0,6,abc\n30.05,-1.0,6,1.0\n", 2, "column 'mean'"),   # once category=internal
        ("30.0,-1.0,6,0.5\n30.05,-1.0,6,nan\n", 3, "column 'mean'"),   # once scored as mse=nan
        ("30.0,-1.0,6,0.5\n30.05,-1.0,6,-inf\n", 3, "column 'mean'"),
        ("nan,-1.0,6,0.5\n30.05,-1.0,6,1.0\n", 2, "bad key fields"),
    ], ids=["text", "nan", "inf", "nan-key"])
    def test_non_finite_value_exits_3_naming_its_line(self, tmp_path, capsys, rows, line, named):
        pred = tmp_path / "pred.csv"
        pred.write_text("lon,lat,t,mean\n" + rows)
        truth = tmp_path / "truth.csv"
        truth.write_text("lon,lat,t,latent\n30.0,-1.0,6,2.5\n30.05,-1.0,6,1.0\n")
        out = tmp_path / "out"
        cfg = write_yaml(tmp_path / "e.yaml", {
            "eval": {"predictions": str(pred), "truth": str(truth)},
            "output_dir": str(out),
        })
        assert main(["eval", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"category=data: {pred}:{line}: {named}" in err
        assert not (out / "eval-summary.csv").exists()

    def test_repeated_predict_month_exits_2_before_predicting(self, scenario, cwm_fit, tmp_path,
                                                              capsys):
        out = tmp_path / "pred"
        cfg = write_yaml(tmp_path / "p.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(cwm_fit / "model.json"), "months": [6, 7, 6]},
            "output_dir": str(out),
        })
        assert main(["predict", "--config", str(cfg)]) == 2
        assert "predict.months must be a non-empty list of distinct" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()
