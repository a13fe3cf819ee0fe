import json

import numpy as np
import pytest

from stackgp.errors import SchemaError
from stackgp.gp import fit_plain_gp, plain_gp_predict
from stackgp.learners import LearnerSpec
from stackgp.model_io import FORMAT_VERSION, load_model, save_model
from stackgp.stacking import (fit_design1, fit_design2, fit_design3,
                              make_folds, predict_stack)

FAST_GP = {"restarts": 1, "max_iter": 40}


def make_problem(seed=0, n=20):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X @ [1.0, -0.5, 0.2] + rng.normal(size=n) * 0.15
    locations = np.column_stack([
        rng.uniform(30.0, 31.0, size=n),
        rng.uniform(-2.0, -1.0, size=n),
        rng.integers(0, 5, size=n).astype(float),
    ])
    return X, y, locations


def lin(seed=3):
    return LearnerSpec(kind="enet", params={"lambda1": 0.0, "lambda2": 0.0}, seed=seed)


def new_inputs(seed=99, n=6, width=1):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, width))
    pts = np.column_stack([rng.uniform(30, 31, n), rng.uniform(-2, -1, n),
                           rng.integers(0, 5, n).astype(float)])
    return P, pts


class TestRoundTrips:
    def test_design1_cwm_stack(self, tmp_path):
        X, y, loc = make_problem(seed=1)
        state = fit_design1(X, y, loc, [lin(1), lin(2)], "cwm", make_folds(20, 4, seed=1))
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        P, _ = new_inputs(width=2)
        np.testing.assert_array_equal(predict_stack(state, P), predict_stack(clone, P))
        np.testing.assert_array_equal(state.H, clone.H)
        np.testing.assert_array_equal(state.plan.assignment, clone.plan.assignment)

    def test_design1_gp_stack(self, tmp_path):
        X, y, loc = make_problem(seed=2)
        state = fit_design1(X, y, loc, [lin(1)], "gp", make_folds(20, 4, seed=2),
                            gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        P, pts = new_inputs(width=1)
        np.testing.assert_array_equal(predict_stack(state, P, pts),
                                      predict_stack(clone, P, pts))

    def test_design2_two_level_stack(self, tmp_path):
        X, y, loc = make_problem(seed=3)
        state = fit_design2(X, y, loc, [lin(1), lin(2)], make_folds(20, 4, seed=3),
                            gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        P, pts = new_inputs(width=2)
        np.testing.assert_array_equal(predict_stack(state, P, pts),
                                      predict_stack(clone, P, pts))
        assert clone.level1.member_columns == [0, 1]

    def test_design3_variant_stack(self, tmp_path):
        X, y, loc = make_problem(seed=4)
        state = fit_design3(X, y, loc, lin(1), [{"phi": 0.0}, {}],
                            make_folds(20, 4, seed=4), gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        P, pts = new_inputs(width=1)
        np.testing.assert_array_equal(predict_stack(state, P, pts),
                                      predict_stack(clone, P, pts))
        assert clone.level1.members[0].params.phi == 0.0

    def test_plain_gp(self, tmp_path):
        X, y, loc = make_problem(seed=5)
        model = fit_plain_gp(y, X, loc, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                               "sigma_e2": 0.5, "phi": 0.0})
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        rng = np.random.default_rng(7)
        X_new = rng.normal(size=(5, 3))
        _, pts = new_inputs(n=5)
        np.testing.assert_array_equal(plain_gp_predict(model, X_new, pts).mu_star,
                                      plain_gp_predict(clone, X_new, pts).mu_star)

    def test_every_learner_kind_survives_the_stack_round_trip(self, tmp_path):
        X, y, loc = make_problem(seed=6, n=30)
        specs = [
            LearnerSpec(kind="gbt", params={"n_rounds": 10}, seed=1),
            LearnerSpec(kind="rf", params={"n_trees": 5}, seed=2),
            LearnerSpec(kind="enet", params={"lambda1": 0.1, "lambda2": 0.1}, seed=3),
            LearnerSpec(kind="gam", params={"n_splines": 5}, seed=4),
            LearnerSpec(kind="mars", params={"max_terms": 6}, seed=5),
        ]
        state = fit_design1(X, y, loc, specs, "cwm", make_folds(30, 3, seed=5))
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        rng = np.random.default_rng(8)
        X_new = rng.normal(size=(4, 3))
        for orig, copy in zip(state.level0, clone.level0):
            np.testing.assert_array_equal(orig.predict(X_new), copy.predict(X_new))


class TestFloatExactness:
    def test_awkward_floats_survive(self, tmp_path):
        X, y, loc = make_problem(seed=7)
        y = y * 1e-7 + 1e3   # exercise exponents and long mantissas
        state = fit_design1(X, y, loc, [lin(1)], "cwm", make_folds(20, 4, seed=6))
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        np.testing.assert_array_equal(state.P, clone.P)
        np.testing.assert_array_equal(state.level1.beta, clone.level1.beta)


class TestSchemaGuards:
    def fitted(self, tmp_path):
        X, y, loc = make_problem(seed=8)
        state = fit_design1(X, y, loc, [lin(1)], "cwm", make_folds(20, 4, seed=7))
        path = tmp_path / "m.json"
        save_model(state, path)
        return path

    def test_newer_format_version_refused(self, tmp_path):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        d["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="newer"):
            load_model(path)

    def test_missing_format_version_refused(self, tmp_path):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        del d["format_version"]
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="format_version"):
            load_model(path)

    def test_unknown_kind_refused(self, tmp_path):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        d["kind"] = "mystery"
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="kind"):
            load_model(path)

    @pytest.mark.parametrize("key,value,message", [
        ("kind", "mystery", "unknown model kind 'mystery'"),
        ("level1_kind", "gp+x", "unknown level-1 kind 'gp+x' in model file"),
    ], ids=["kind", "level1-kind"])
    def test_unknown_kind_names_the_file(self, tmp_path, key, value, message):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        d[key] = value
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"

    def test_invalid_json_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="JSON"):
            load_model(path)

    def test_non_object_payload_refused(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError, match="object"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda d: d["level0"][0]["spec"].update(kind="foo"),
        lambda d: d["level0"][0]["spec"]["params"].update(lambda1=-1),
        lambda d: d.update(level1={"params": {"log_kappa": 0.0, "log_tau": 0.0,
                                              "sigma_e2": 1.0, "phi": 3.0, "beta": [1.0]},
                                   "train_points": [], "P_train": [], "y": [], "ref_lat": 0.0},
                           level1_kind="gp"),
    ], ids=["learner-kind", "learner-param", "gp-phi"])
    def test_invalid_value_names_the_file(self, tmp_path, edit):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        edit(d)
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="malformed model file") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_truncated_payload_reports_malformed(self, tmp_path):
        path = self.fitted(tmp_path)
        d = json.loads(path.read_text())
        del d["level0"]
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="malformed"):
            load_model(path)
