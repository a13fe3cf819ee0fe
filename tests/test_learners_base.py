import numpy as np
import pytest

from stackgp.dataset import ColumnInfo, CovariateMatrix
from stackgp.errors import ConfigError, DataError, SchemaError
from stackgp.learners import LearnerModel, LearnerSpec, fit_learner
from stackgp.learners.base import KINDS


def make_matrix(values, names=None):
    names = names or [f"c{j}" for j in range(values.shape[1])]
    cols = tuple(ColumnInfo(n, 0, "static") for n in names)
    return CovariateMatrix(values=values, columns=cols)


class TestSpecValidation:
    def test_unknown_kind(self):
        for kind in ("xgboost", "linear-mean"):
            with pytest.raises(ConfigError, match="unknown learner kind"):
                LearnerSpec(kind=kind)

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['depth'\]"):
            LearnerSpec(kind="gbt", params={"depth": 3})

    def test_out_of_range_param(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            LearnerSpec(kind="gbt", params={"learning_rate": 0.0})
        with pytest.raises(ConfigError, match="subsample_rows"):
            LearnerSpec(kind="gbt", params={"subsample_rows": 1.5})
        with pytest.raises(ConfigError, match="n_splines"):
            LearnerSpec(kind="gam", params={"n_splines": 3})
        with pytest.raises(ConfigError, match="max_terms"):
            LearnerSpec(kind="mars", params={"max_terms": 1})
        with pytest.raises(ConfigError, match="lambda1"):
            LearnerSpec(kind="enet", params={"lambda1": -1.0})

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            LearnerSpec(kind="rf", seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            LearnerSpec(kind="rf", seed=True)

    @pytest.mark.parametrize("entry, key", [
        ({"kind": "enet", "seed": "abc"}, "seed"),
        ({"kind": "enet", "seed": 2.0}, "seed"),
        ({"kind": "enet", "params": 5}, "params"),
        ({"kind": "enet", "params": [1, 2]}, "params"),
        ({"kind": "enet", "name": 5}, "name"),
        ({"kind": "enet", "parms": {"lambda1": 0.1}}, "parms"),
        ({"kind": "enet", 1: 2, "parms": {}}, r"unknown key\(s\) \['1', 'parms'\]"),
        ({"name": "e"}, "kind"),
        ({"kind": ["enet"]}, "kind"),
    ], ids=["string-seed", "float-seed", "int-params", "list-params", "int-name",
            "unknown-key", "int-key", "no-kind", "list-kind"])
    def test_bad_entry_from_dict_is_config_error(self, entry, key):
        with pytest.raises(ConfigError, match=key):
            LearnerSpec.from_dict(entry)

    def test_defaults_filled_and_name_defaults_to_kind(self):
        spec = LearnerSpec(kind="rf")
        assert spec.params["n_trees"] == 60
        assert spec.params["bootstrap"] is True
        assert spec.name == "rf"
        named = LearnerSpec(kind="rf", name="forest-a")
        assert named.name == "forest-a"

    def test_spec_round_trip(self):
        spec = LearnerSpec(kind="enet", params={"lambda1": 0.2}, seed=9, name="e1")
        clone = LearnerSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_all_kinds_constructible(self):
        for kind in KINDS:
            LearnerSpec(kind=kind)


class TestFitContract:
    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            fit_learner(LearnerSpec(kind="enet"), np.ones((5, 2)), np.ones(4))

    def test_zero_rows(self):
        with pytest.raises(SchemaError):
            fit_learner(LearnerSpec(kind="enet"), np.ones((0, 2)), np.ones(0))

    def test_non_finite_response(self):
        y = np.ones(5)
        y[2] = np.nan
        with pytest.raises(DataError):
            fit_learner(LearnerSpec(kind="rf"), np.ones((5, 2)), y)

    def test_predict_single_row(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        for kind in KINDS:
            params = {"n_rounds": 3} if kind == "gbt" else \
                     {"n_trees": 3} if kind == "rf" else {}
            model = fit_learner(LearnerSpec(kind=kind, params=params), X, y)
            out = model.predict(X[:1])
            assert out.shape == (1,)

    def test_layout_enforced_with_covariate_matrix(self):
        rng = np.random.default_rng(1)
        X = make_matrix(rng.normal(size=(20, 2)), ["a", "b"])
        y = rng.normal(size=20)
        model = fit_learner(LearnerSpec(kind="enet"), X, y)
        good = make_matrix(rng.normal(size=(5, 2)), ["a", "b"])
        assert model.predict(good).shape == (5,)
        renamed = make_matrix(rng.normal(size=(5, 2)), ["a", "c"])
        with pytest.raises(SchemaError, match="missing.*extra|extra.*missing"):
            model.predict(renamed)
        with pytest.raises(SchemaError):
            model.predict(np.ones((5, 3)))

    def test_plain_ndarray_fit_checks_width_only(self):
        rng = np.random.default_rng(2)
        model = fit_learner(LearnerSpec(kind="enet"),
                            rng.normal(size=(20, 2)), rng.normal(size=20))
        assert model.columns is None
        assert model.predict(np.ones((3, 2))).shape == (3,)

    def test_rng_argument_forms(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        spec = LearnerSpec(kind="rf", params={"n_trees": 4}, seed=5)
        by_spec_seed = fit_learner(spec, X, y).predict(X)
        by_int = fit_learner(spec, X, y, rng=5).predict(X)
        by_gen = fit_learner(spec, X, y, rng=np.random.default_rng(5)).predict(X)
        np.testing.assert_array_equal(by_spec_seed, by_int)
        np.testing.assert_array_equal(by_spec_seed, by_gen)
        other = fit_learner(spec, X, y, rng=6).predict(X)
        assert not np.array_equal(by_spec_seed, other)


class TestModelRoundTrips:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_round_trip_exact_predictions(self, kind):
        rng = np.random.default_rng(4)
        X = make_matrix(rng.normal(size=(40, 3)))
        y = np.sin(X.values[:, 0]) + rng.normal(size=40) * 0.2
        params = {"n_rounds": 5} if kind == "gbt" else \
                 {"n_trees": 4} if kind == "rf" else {}
        model = fit_learner(LearnerSpec(kind=kind, params=params, seed=2), X, y)
        clone = LearnerModel.from_dict(model.to_dict())
        Xnew = make_matrix(rng.normal(size=(12, 3)))
        np.testing.assert_array_equal(model.predict(Xnew), clone.predict(Xnew))
        assert clone.spec == model.spec
        assert clone.columns == model.columns
