import csv
import json

import numpy as np
import pytest
import yaml

from stackgp.cli import COMMANDS, main
from stackgp.config import KEYS
from stackgp.model_io import load_model


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
    body = {"design": 1, "level1": "cwm", "v": 3, "learners": [
        {"kind": "enet", "params": {"lambda1": 0.1, "lambda2": 0.1}},
        {"kind": "gbt", "params": {"n_rounds": 5}},
    ]}
    body.update(stacking)
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

    def test_bad_design_exits_2(self, scenario, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "fit.yaml",
                         fit_config(scenario, tmp_path / "out", design=9))
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "design" in capsys.readouterr().err

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

    def test_bad_month_rejected(self, scenario, cwm_fit, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "predict.yaml", {
            "data": {"stack": str(scenario / "stack.yaml")},
            "predict": {"model": str(cwm_fit / "model.json"), "months": [-1]},
            "output_dir": str(tmp_path),
        })
        assert main(["predict", "--config", str(cfg)]) == 2
        assert "months" in capsys.readouterr().err


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
