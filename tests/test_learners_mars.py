import json

import numpy as np
import pytest

from stackgp.errors import DataError
from stackgp.learners import LearnerModel, LearnerSpec, fit_learner
from stackgp.learners.mars import (COL_EPS, REDUCTION_EPS, BasisFunction, HingeFactor,
                                   MarsModel, _candidate_knots, fit_mars)
from stackgp.stacking import make_folds, repeat_cv_evaluate
from stackgp.synth import ScenarioConfig, generate

BENCH_SCENARIO = {"m_covariates": 6, "n_hinge": 10, "n_smooth": 10, "n_interactions": 10,
                  "n_tested_range": (100, 400)}


def reference_pair_reductions(parent_col, x, knots, Q, resid):
    """The per-(parent, variable) candidate scoring that fit_mars batches."""
    pos = parent_col[:, None] * np.maximum(x[:, None] - knots[None, :], 0.0)
    neg = parent_col[:, None] * np.maximum(knots[None, :] - x[:, None], 0.0)
    raw_pos = np.einsum("ij,ij->j", pos, pos)
    raw_neg = np.einsum("ij,ij->j", neg, neg)
    pos -= Q @ (Q.T @ pos)
    neg -= Q @ (Q.T @ neg)
    a = np.einsum("ij,ij->j", pos, pos)
    b = np.einsum("ij,ij->j", neg, neg)
    c = np.einsum("ij,ij->j", pos, neg)
    gu = pos.T @ resid
    gv = neg.T @ resid
    pos_live = a > COL_EPS * np.maximum(raw_pos, 1e-300)
    neg_live = b > COL_EPS * np.maximum(raw_neg, 1e-300)
    det = a * b - c * c
    both = pos_live & neg_live & (det > 1e-12 * np.maximum(a * b, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        red_pair = (b * gu**2 - 2.0 * c * gu * gv + a * gv**2) / det
        red_pos = np.where(pos_live, gu**2 / a, 0.0)
        red_neg = np.where(neg_live, gv**2 / b, 0.0)
    reductions = np.where(both, red_pair, np.maximum(red_pos, red_neg))
    return np.nan_to_num(reductions, nan=0.0, posinf=0.0, neginf=0.0), pos_live, neg_live


def reference_fit_mars(X, y, params):
    """fit_mars with its forward search rebuilt per (parent, variable, step)."""
    n, m = X.shape
    max_terms, max_degree = params["max_terms"], params["max_degree"]
    max_knots, penalty = params["max_knots"], params["gcv_penalty"]
    functions = [BasisFunction(())]
    B = np.ones((n, 1))
    y_ss = float(y @ y)
    knot_count = 0
    while B.shape[1] + 1 <= max_terms:
        Q, _ = np.linalg.qr(B, mode="reduced")
        resid = y - Q @ (Q.T @ y)
        sse = float(resid @ resid)
        if sse <= 1e-12 * max(y_ss, 1.0):
            break
        best = None
        for p_idx, parent in enumerate(functions):
            if parent.degree >= max_degree:
                continue
            pcol = B[:, p_idx]
            active = pcol > 0
            if not active.any():
                continue
            for v in range(m):
                if parent.involves(v):
                    continue
                knots = _candidate_knots(X[active, v], max_knots)
                if knots.size == 0:
                    continue
                reds, pos_live, neg_live = reference_pair_reductions(pcol, X[:, v], knots,
                                                                     Q, resid)
                k = int(np.argmax(reds))
                if best is None or reds[k] > best[0]:
                    best = (float(reds[k]), p_idx, v, float(knots[k]),
                            bool(pos_live[k]), bool(neg_live[k]))
        if best is None or best[0] <= REDUCTION_EPS * max(sse, 1e-300):
            break
        _, p_idx, v, knot, pos_live, neg_live = best
        new_cols = []
        for sign, live in ((1, pos_live), (-1, neg_live)):
            if live:
                func = BasisFunction(functions[p_idx].factors + (HingeFactor(v, sign, knot),),
                                     knot_id=knot_count)
                functions.append(func)
                new_cols.append(func.evaluate(X))
        if not new_cols:
            break
        knot_count += 1
        B = np.column_stack([B] + new_cols)

    def gcv(subset):
        cols = B[:, subset]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        r = y - cols @ coef
        knots_used = {functions[i].knot_id for i in subset if functions[i].knot_id >= 0}
        c_eff = len(subset) + penalty * len(knots_used)
        return (np.inf if c_eff >= n else (float(r @ r) / n) / (1.0 - c_eff / n) ** 2), coef

    subset = list(range(len(functions)))
    best_gcv, best_coef = gcv(subset)
    best_subset = list(subset)
    while len(subset) > 1:
        trial_sse, trial_idx = np.inf, None
        for i in subset[1:]:
            cols = B[:, [j for j in subset if j != i]]
            coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
            r = y - cols @ coef
            if float(r @ r) < trial_sse:
                trial_sse, trial_idx = float(r @ r), i
        subset = [j for j in subset if j != trial_idx]
        g, coef = gcv(subset)
        if g < best_gcv:
            best_gcv, best_coef, best_subset = g, coef, list(subset)
    return MarsModel(functions=[functions[i] for i in best_subset],
                     coef=np.asarray(best_coef, dtype=float),
                     x_min=X.min(axis=0), x_max=X.max(axis=0))


def covariate_heavy(seed=101, n=200):
    bundle = generate(ScenarioConfig(regime="covariate-heavy", seed=seed, n_surveys=n,
                                     **BENCH_SCENARIO))
    return bundle.design.values, np.array([r.y for r in bundle.records])


class TestHinges:
    def test_hinge_evaluation(self):
        up = BasisFunction((HingeFactor(var=0, sign=1, knot=2.0),))
        down = BasisFunction((HingeFactor(var=0, sign=-1, knot=3.0),))
        X = np.array([[3.0], [2.0], [1.0]])
        np.testing.assert_array_equal(up.evaluate(X), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(down.evaluate(X), [0.0, 1.0, 2.0])

    def test_product_basis(self):
        f = BasisFunction((HingeFactor(0, 1, 0.0), HingeFactor(1, 1, 0.0)))
        X = np.array([[2.0, 3.0], [2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(f.evaluate(X), [6.0, 0.0, 0.0])

    def test_intercept_is_ones(self):
        f = BasisFunction(())
        np.testing.assert_array_equal(f.evaluate(np.zeros((4, 2))), np.ones(4))


class TestKnotRecovery:
    def test_planted_hinge_recovered(self):
        x = np.linspace(0, 1, 101)
        y = np.maximum(0.0, x - 0.5)
        model = fit_mars(x[:, None], y, LearnerSpec(kind="mars", params={
            "max_knots": 200}).params)
        spacing = x[1] - x[0]
        knots = [f.knot for func in model.functions for f in func.factors]
        assert knots, "no hinge was added"
        assert min(abs(k - 0.5) for k in knots) <= spacing + 1e-12
        mse = float(((model.predict(x[:, None]) - y) ** 2).mean())
        assert mse < 1e-8

    def test_two_additive_hinges(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(150, 2))
        y = np.maximum(0, X[:, 0] - 0.2) + 2.0 * np.maximum(0, -0.3 - X[:, 1])
        model = fit_mars(X, y, LearnerSpec(kind="mars", params={
            "max_knots": 100}).params)
        mse = float(((model.predict(X) - y) ** 2).mean())
        assert mse < 1e-6


class TestDegreeConstraint:
    def test_degree_one_has_no_products(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(120, 2))
        y = np.maximum(0, X[:, 0]) * np.maximum(0, X[:, 1]) + 0.3 * X[:, 0]
        model = fit_mars(X, y, LearnerSpec(kind="mars", params={
            "max_degree": 1}).params)
        assert all(func.degree <= 1 for func in model.functions)

    def test_degree_two_can_capture_interaction(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = np.maximum(0, X[:, 0] - 0.1) * np.maximum(0, X[:, 1] + 0.2)
        model = fit_mars(X, y, LearnerSpec(kind="mars", params={
            "max_degree": 2, "max_knots": 60, "max_terms": 21}).params)
        assert any(func.degree == 2 for func in model.functions)
        mse = float(((model.predict(X) - y) ** 2).mean())
        assert mse < 1e-3 * float((y ** 2).mean())


class TestGcvBookkeeping:
    def test_meta_gcv_matches_recomputation(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(90, 2))
        y = np.maximum(0, X[:, 0]) + rng.normal(size=90) * 0.2
        params = LearnerSpec(kind="mars", params={"gcv_penalty": 3.0}).params
        model = fit_mars(X, y, params)
        n = len(y)
        B = np.column_stack([f.evaluate(X) for f in model.functions])
        coef, *_ = np.linalg.lstsq(B, y, rcond=None)
        sse = float(((B @ coef - y) ** 2).sum())
        n_terms = len(model.functions)
        n_knots = len({f.knot_id for f in model.functions if f.knot_id >= 0})
        cost = n_terms + params["gcv_penalty"] * n_knots
        gcv = (sse / n) / (1.0 - cost / n) ** 2
        assert model.meta["gcv"] == pytest.approx(gcv, rel=1e-8)
        assert model.meta["sse"] == pytest.approx(sse, abs=1e-6 * max(1.0, sse))

    def test_max_terms_respected(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(150, 3))
        y = np.sin(3 * X[:, 0]) + np.cos(2 * X[:, 1]) + X[:, 2] ** 2
        for cap in (3, 7, 11):
            model = fit_mars(X, y, LearnerSpec(kind="mars", params={
                "max_terms": cap}).params)
            assert len(model.functions) <= cap

    def test_pruning_never_worse_than_intercept_only(self):
        # the backward pass always visits the intercept-only subset, so the
        # returned GCV can never exceed that baseline
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(100, 2))
        y = np.maximum(0, X[:, 0]) + rng.normal(size=100) * 0.5
        model = fit_mars(X, y, LearnerSpec(kind="mars").params)
        n = len(y)
        sse0 = float(((y - y.mean()) ** 2).sum())
        gcv0 = (sse0 / n) / (1.0 - 1.0 / n) ** 2
        assert model.meta["gcv"] <= gcv0 + 1e-12
        assert model.meta["n_forward"] >= len(model.functions)


class TestContract:
    def test_constant_response(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        model = fit_mars(X, np.full(40, 1.5), LearnerSpec(kind="mars").params)
        np.testing.assert_allclose(model.predict(X), 1.5, atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = np.maximum(0, X[:, 0]) - np.maximum(0, X[:, 1] - 0.3)
        model = fit_mars(X, y, LearnerSpec(kind="mars").params)
        clone = MarsModel.from_state(model.state_dict())
        Xnew = rng.uniform(-1, 1, size=(25, 2))
        np.testing.assert_array_equal(model.predict(Xnew), clone.predict(Xnew))

    def test_deterministic_via_contract(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(70, 2))
        y = rng.normal(size=70)
        spec = LearnerSpec(kind="mars")
        p1 = fit_learner(spec, X, y).predict(X)
        p2 = fit_learner(spec, X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)


def _random_case(seed, n=120, m=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m))
    y = np.maximum(0, X[:, 0] - 0.2) * (1 + X[:, 1]) + np.sin(3 * X[:, -1]) \
        + rng.normal(size=n) * 0.2
    return X, y


def _constant_column(seed):
    X, y = _random_case(seed)
    X[:, 1] = 0.7
    return X, y


def _tied_values(seed):
    X, y = _random_case(seed)
    return np.round(X * 4) / 4, y


def _duplicated_column(seed):
    # every candidate of column 0 ties exactly with its copy in column 2:
    # the first variable must win
    X, y = _random_case(seed)
    X[:, 2] = X[:, 0]
    return X, y


class TestForwardSearchOracle:
    """The batched, cached search picks exactly what the per-variable one did."""

    @staticmethod
    def assert_same_fit(X, y, params):
        params = LearnerSpec(kind="mars", params=params).params
        ours, ref = fit_mars(X, y, params), reference_fit_mars(X, y, params)
        assert json.dumps(ours.state_dict()) == json.dumps(ref.state_dict())

    @pytest.mark.parametrize("fold", range(6))
    def test_covariate_heavy_folds(self, fold):
        X, y = covariate_heavy()
        keep = make_folds(len(y), 5, seed=101).assignment != fold   # fold 5: all rows
        self.assert_same_fit(X[keep], y[keep], {"max_terms": 15, "max_knots": 15})

    @pytest.mark.parametrize("degree", [1, 3])
    def test_covariate_heavy_degrees(self, degree):
        X, y = covariate_heavy(seed=1101)
        self.assert_same_fit(X, y, {"max_degree": degree, "max_terms": 13})

    @pytest.mark.parametrize("make, params", [
        (_random_case, {"max_knots": 1}),
        (_random_case, {"max_knots": 1, "max_degree": 3, "max_terms": 21}),
        (_constant_column, {}),
        (_constant_column, {"max_degree": 3}),
        (_tied_values, {"max_knots": 40}),
        (_tied_values, {"max_degree": 1}),
        (_duplicated_column, {}),
        (_duplicated_column, {"max_knots": 1, "max_degree": 1}),
        (_random_case, {"max_terms": 3}),
        (_random_case, {"max_terms": 2}),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_cases(self, make, params, seed):
        X, y = make(seed)
        self.assert_same_fit(X, y, params)


class TestRangeClamp:
    def test_predictions_are_clamped_to_the_training_box(self):
        x = np.linspace(0, 1, 101)
        model = fit_mars(x[:, None], np.maximum(0.0, x - 0.5), LearnerSpec(kind="mars").params)
        assert (model.x_min.tolist(), model.x_max.tolist()) == ([0.0], [1.0])
        edge = model.predict(np.array([[1.0]]))[0]
        np.testing.assert_array_equal(model.predict(np.array([[1.5], [1e6]])), [edge, edge])

    def test_clamp_leaves_the_training_box_unchanged(self):
        # c05's planted hinge lies inside the box, so its fit predicts as before
        rng = np.random.default_rng(20260805)
        x = np.sort(rng.uniform(-2.0, 2.0, size=200))
        y = 2.0 * np.maximum(x - 0.5, 0.0)
        model = fit_learner(LearnerSpec(kind="mars", params={
            "max_terms": 8, "max_degree": 1, "max_knots": 200}, seed=2), x[:, None], y).model
        unclamped = MarsModel(model.functions, model.coef)
        inside = np.linspace(x.min(), x.max(), 301)[:, None]
        np.testing.assert_array_equal(model.predict(inside), unclamped.predict(inside))

    def test_model_json_round_trip_keeps_the_ranges(self):
        X, y = _random_case(3)
        model = fit_learner(LearnerSpec(kind="mars"), X, y)
        clone = LearnerModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(clone.model.x_min, X.min(axis=0))
        np.testing.assert_array_equal(clone.model.x_max, X.max(axis=0))
        wide = np.random.default_rng(4).uniform(-3, 3, size=(50, X.shape[1]))
        np.testing.assert_array_equal(clone.predict(wide), model.predict(wide))

    def test_file_without_ranges_predicts_unclamped(self):
        X, y = _random_case(5)
        model = fit_mars(X, y, LearnerSpec(kind="mars").params)
        state = model.state_dict()
        del state["x_min"], state["x_max"]
        old = MarsModel.from_state(json.loads(json.dumps(state)))
        assert old.x_min is None and old.x_max is None
        wide = np.random.default_rng(6).uniform(-3, 3, size=(50, X.shape[1]))
        expected = sum(c * f.evaluate(wide) for f, c in zip(model.functions, model.coef))
        np.testing.assert_array_equal(old.predict(wide), expected)
        np.testing.assert_array_equal(old.predict(X), model.predict(X))

    @pytest.mark.parametrize("edit, error, message", [
        (lambda s: s.pop("x_max"), ValueError, "only one of x_min and x_max"),
        (lambda s: s.update(x_min=s["x_min"][:1]), DataError, "does not predict"),
    ])
    def test_malformed_ranges_refused_at_load(self, edit, error, message):
        X, y = _random_case(7)
        d = fit_learner(LearnerSpec(kind="mars"), X, y).to_dict()
        d["columns"] = [[f"c{j}", 0, "static"] for j in range(X.shape[1])]
        edit(d["state"])
        with pytest.raises(error, match=message):
            LearnerModel.from_dict(d)

    def test_wild_held_out_column_is_tamed(self):
        # Without the clamp, one held-out MARS prediction on this seed is
        # about 4e5 and the column's out-of-fold MSE is 1.35e9 (var(y) ~ 1).
        bundle = generate(ScenarioConfig(regime="covariance-heavy", seed=5102, n_surveys=200,
                                         **BENCH_SCENARIO))
        y = np.array([r.y for r in bundle.records])
        points = np.array([[r.lon, r.lat, r.t] for r in bundle.records])
        spec = LearnerSpec(kind="mars", name="mars", seed=5,
                           params={"max_terms": 15, "max_knots": 15})
        res = repeat_cv_evaluate(bundle.design.values, y, points, [spec], v=5, repeats=1,
                                 seed=5102, methods=("level0",))
        (row,) = res.summary
        assert row["mse"] <= 1.5 * np.var(y), row
