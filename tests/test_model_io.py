import json

import numpy as np
import pytest

from stackgp.cli import _mean_sd
from stackgp.dataset import ColumnInfo, CovariateMatrix
from stackgp.errors import SchemaError
from stackgp.gp import fit_gp_linear_mean
from stackgp.learners import LearnerSpec
from stackgp.model_io import FORMAT_VERSION, load_model, save_model
from stackgp.stacking import fit_stack, make_folds

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


def new_inputs(seed=99, n=6):
    """A design of make_problem's 3 columns and its points, as `stackgp predict` passes them."""
    rng = np.random.default_rng(seed)
    X = CovariateMatrix(rng.normal(size=(n, 3)),
                        [ColumnInfo(f"x{j}", 0, "static") for j in range(3)])
    pts = np.column_stack([rng.uniform(30, 31, n), rng.uniform(-2, -1, n),
                           rng.integers(0, 5, n).astype(float)])
    return X, pts


def assert_same_predictions(model, clone, X, pts):
    """Mean and sd of the saved and the reloaded model agree bit for bit."""
    for got, want in zip(_mean_sd(clone, X, pts), _mean_sd(model, X, pts)):
        np.testing.assert_array_equal(got, want)


class TestRoundTrips:
    def test_design1_cwm_stack(self, tmp_path):
        X, y, loc = make_problem(seed=1)
        state = fit_stack(1, X, y, loc, [lin(1), lin(2)], make_folds(20, 4, seed=1), level1="cwm")
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        assert_same_predictions(state, clone, *new_inputs())
        np.testing.assert_array_equal(state.H, clone.H)
        np.testing.assert_array_equal(state.plan.assignment, clone.plan.assignment)

    def test_design1_gp_stack(self, tmp_path):
        X, y, loc = make_problem(seed=2)
        state = fit_stack(1, X, y, loc, [lin(1)], make_folds(20, 4, seed=2), level1="gp",
                          gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        assert_same_predictions(state, clone, *new_inputs())

    def test_design2_two_level_stack(self, tmp_path):
        X, y, loc = make_problem(seed=3)
        state = fit_stack(2, X, y, loc, [lin(1), lin(2)], make_folds(20, 4, seed=3),
                          gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        assert_same_predictions(state, clone, *new_inputs())
        assert clone.level1.member_columns == [0, 1]

    def test_design3_variant_stack(self, tmp_path):
        X, y, loc = make_problem(seed=4)
        state = fit_stack(3, X, y, loc, [lin(1)], make_folds(20, 4, seed=4),
                          gp_variants=[{"phi": 0.0}, {}], gp_options=FAST_GP)
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        assert_same_predictions(state, clone, *new_inputs())
        assert clone.level1.members[0].params.phi == 0.0

    def test_plain_gp(self, tmp_path):
        X, y, loc = make_problem(seed=5)
        model = fit_gp_linear_mean(y, X, loc, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                     "sigma_e2": 0.5, "phi": 0.0})
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        assert_same_predictions(model, clone, *new_inputs(n=5))

    def test_every_learner_kind_survives_the_stack_round_trip(self, tmp_path):
        X, y, loc = make_problem(seed=6, n=30)
        specs = [
            LearnerSpec(kind="gbt", params={"n_rounds": 10}, seed=1),
            LearnerSpec(kind="rf", params={"n_trees": 5}, seed=2),
            LearnerSpec(kind="enet", params={"lambda1": 0.1, "lambda2": 0.1}, seed=3),
            LearnerSpec(kind="gam", params={"n_splines": 5}, seed=4),
            LearnerSpec(kind="mars", params={"max_terms": 6}, seed=5),
        ]
        state = fit_stack(1, X, y, loc, specs, make_folds(30, 3, seed=5), level1="cwm")
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
        state = fit_stack(1, X, y, loc, [lin(1)], make_folds(20, 4, seed=6), level1="cwm")
        path = tmp_path / "m.json"
        save_model(state, path)
        clone = load_model(path)
        np.testing.assert_array_equal(state.P, clone.P)
        np.testing.assert_array_equal(state.level1.beta, clone.level1.beta)


class TestSchemaGuards:
    def fitted(self, tmp_path):
        X, y, loc = make_problem(seed=8)
        state = fit_stack(1, X, y, loc, [lin(1)], make_folds(20, 4, seed=7), level1="cwm")
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
        lambda d: d["level0"][0]["spec"].update(kind="linear-mean"),
        lambda d: d["level0"][0]["spec"]["params"].update(lambda1=-1),
        lambda d: d.update(level1={"params": {"log_kappa": 0.0, "log_tau": 0.0,
                                              "sigma_e2": 1.0, "phi": 3.0, "beta": [1.0]},
                                   "train_points": [], "P_train": [], "y": [], "ref_lat": 0.0},
                           level1_kind="gp"),
    ], ids=["learner-kind", "learner-kind-linear-mean", "learner-param", "gp-phi"])
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


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """model.json paths of every model kind: design-1 CWM and GP, designs 2 and 3, plain GP."""
    X, y, loc = make_problem(seed=9)
    plan = make_folds(20, 4, seed=8)
    models = {
        "cwm": fit_stack(1, X, y, loc, [lin(1), lin(2)], plan, level1="cwm"),
        "gp": fit_stack(1, X, y, loc, [lin(1), lin(2)], plan, level1="gp", gp_options=FAST_GP),
        "design2": fit_stack(2, X, y, loc, [lin(1), lin(2), lin(3)], plan, gp_options=FAST_GP),
        "design3": fit_stack(3, X, y, loc, [lin(1)], plan, gp_variants=[{"phi": 0.0}, {}],
                             gp_options=FAST_GP),
        "plain": fit_gp_linear_mean(y, X, loc, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                      "sigma_e2": 0.5, "phi": 0.0}),
    }
    out = {}
    for name, model in models.items():
        out[name] = tmp_path_factory.mktemp(name) / "model.json"
        save_model(model, out[name])
    return out


@pytest.mark.parametrize("model", ["cwm", "gp", "design2", "design3", "plain"])
def test_loaded_model_saves_back_to_the_same_bytes(model_files, tmp_path, model):
    path = tmp_path / "again.json"
    save_model(load_model(model_files[model]), path)
    assert path.read_bytes() == model_files[model].read_bytes()


def narrow_gp(d):
    """Cut the design-1 GP to its first column, consistently within the level-1."""
    d["level1"]["params"]["beta"] = [1.0]
    d["level1"]["P_train"] = [row[:1] for row in d["level1"]["P_train"]]


def nudge_p_train(gp):
    """Move one entry of a GP level-1's P_train off the stack's P."""
    gp["P_train"][0][0] += 1.0


class TestLevel1Shapes:
    @pytest.mark.parametrize("model, edit", [
        ("gp", lambda d: [row.append(0.0) for row in d["level1"]["P_train"]]),
        ("gp", lambda d: d["level1"]["y"].pop()),
        ("plain", lambda d: d["mean_state"]["coef"].pop()),
        ("design2", lambda d: d["level1"].update(member_columns=[0, 1, 7])),
        ("design2", lambda d: d["level1"]["weights"].update(beta=[0.5, 0.5])),
        ("cwm", lambda d: d["level0"].pop()),
        ("cwm", lambda d: d["level1"].update(beta=[1.0])),     # still on the simplex
        ("gp", narrow_gp),
        ("cwm", lambda d: d.update(design=7)),
        ("cwm", lambda d: d.update(design=2)),
        ("design2", lambda d: d.update(design=1)),
        ("design2", lambda d: d.update(design=3)),
        ("gp", lambda d: nudge_p_train(d["level1"])),
        ("design2", lambda d: nudge_p_train(d["level1"]["members"][1])),
    ], ids=["P_train-extra-column", "y-short", "plain-coef-short", "member-column-outside-P",
            "level2-weights-short", "level0-entry-dropped", "cwm-beta-short",
            "gp-narrower-than-P", "design-outside-1-to-3", "cwm-labelled-design-2",
            "level2-labelled-design-1", "three-columns-labelled-design-3",
            "gp-P_train-off-P", "member-P_train-off-its-column"])
    def test_inconsistent_shapes_name_the_file(self, model_files, tmp_path, model, edit):
        d = json.loads(model_files[model].read_text())
        edit(d)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="malformed model file") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        assert info.value.exit_code == 3
