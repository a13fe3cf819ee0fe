import numpy as np
import pytest

from stackgp.learners import LearnerSpec, fit_learner
from stackgp.learners.gam import (
    RIDGE_REL,
    GamModel,
    _curvature_penalty,
    fit_gam,
)
from stackgp.metrics import pearson_flagged


class TestExactRecovery:
    def test_linear_response_reproduced(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=80)
        y = 3.0 - 1.7 * x
        model = fit_gam(x[:, None], y, LearnerSpec(kind="gam").params)
        mse = float(((model.predict(x[:, None]) - y) ** 2).mean())
        assert mse < 1e-6

    def test_sine_on_dense_grid(self):
        x = np.linspace(0, 2 * np.pi, 200)
        y = np.sin(x)
        model = fit_gam(x[:, None], y, LearnerSpec(kind="gam", params={
            "n_splines": 10}).params)
        r, degenerate = pearson_flagged(model.predict(x[:, None]), y)
        assert r > 0.99 and not degenerate

    def test_huge_lambda_degenerates_to_linear_trend(self):
        # the curvature penalty's nullspace is the affine functions, so a very
        # large weight pushes the smooth toward the least-squares line
        rng = np.random.default_rng(1)
        x = np.linspace(-1, 1, 120)
        y = np.sin(3 * x) + rng.normal(size=120) * 0.05
        model = fit_gam(x[:, None], y, LearnerSpec(kind="gam", params={
            "lambda_grid": [1e10]}).params)
        A = np.column_stack([np.ones_like(x), x])
        line = A @ np.linalg.lstsq(A, y, rcond=None)[0]
        gap = float(np.abs(model.predict(x[:, None]) - line).max())
        spread = float(np.abs(y - line).max())
        assert gap < 0.05 * max(spread, 1.0)


class TestCurvaturePenalty:
    def test_affine_functions_are_penalty_free(self):
        # coefficients that represent constants or lines must carry zero cost
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(-2, 3, size=90))
        from stackgp.learners.gam import SPLINE_DEGREE, _spline_knots
        knots = _spline_knots(x, 9)
        P = _curvature_penalty(knots)
        p = len(knots) - SPLINE_DEGREE - 1
        ones = np.ones(p)
        greville = np.array([knots[i + 1:i + 1 + SPLINE_DEGREE].mean() for i in range(p)])
        scale = np.abs(P).max()
        assert float(ones @ P @ ones) <= 1e-10 * scale
        assert float(greville @ P @ greville) <= 1e-8 * scale * greville.max() ** 2

    def test_curved_coefficients_are_penalised(self):
        x = np.linspace(0, 1, 50)
        from stackgp.learners.gam import SPLINE_DEGREE, _spline_knots
        knots = _spline_knots(x, 8)
        P = _curvature_penalty(knots)
        p = len(knots) - SPLINE_DEGREE - 1
        bump = np.zeros(p)
        bump[p // 2] = 1.0
        assert float(bump @ P @ bump) > 0.0

    def test_matches_dense_quadrature_oracle(self):
        # brute-force Riemann integration of the squared second derivative
        from scipy.interpolate import BSpline
        from stackgp.learners.gam import SPLINE_DEGREE, _spline_knots
        x = np.linspace(0, 2, 40)
        knots = _spline_knots(x, 7)
        P = _curvature_penalty(knots)
        p = len(knots) - SPLINE_DEGREE - 1
        xs = np.linspace(knots[0], knots[-1], 200001)
        D2 = BSpline(knots, np.eye(p), SPLINE_DEGREE).derivative(2)(xs)
        dx = xs[1] - xs[0]
        P_brute = (D2.T @ D2) * dx
        np.testing.assert_allclose(P, P_brute, atol=1e-3 * max(1.0, np.abs(P).max()))


class TestStructure:
    def test_terms_centred_and_intercept_is_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = X[:, 0] ** 2 + np.sin(X[:, 1]) + rng.normal(size=100) * 0.1
        model = fit_gam(X, y, LearnerSpec(kind="gam").params)
        assert model.intercept == pytest.approx(y.mean(), abs=1e-10)
        for j, term in enumerate(model.terms):
            vals = term.value(X[:, j])
            assert abs(vals.mean()) < 1e-6 * max(1.0, np.abs(vals).max())

    def test_backfitting_objective_non_increasing(self):
        # refit with growing sweep budgets and recompute the frozen penalised
        # objective each time: block coordinate descent must not increase it
        rng = np.random.default_rng(3)
        X = rng.normal(size=(70, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(size=70) * 0.1
        objectives = []
        for sweeps in (1, 2, 3, 5, 8):
            model = fit_gam(X, y, LearnerSpec(kind="gam", params={
                "max_backfit": sweeps, "tol": 1e-300}).params)
            resid = y - model.predict(X)
            obj = float(resid @ resid)
            for j, term in enumerate(model.terms):
                B = term.basis(X[:, j])
                P = _curvature_penalty(term.knots)
                G = B.T @ B
                ridge = RIDGE_REL * max(np.trace(G) / max(len(G), 1), 1.0)
                obj += term.lam * float(term.coef @ P @ term.coef)
                obj += ridge * float(term.coef @ term.coef)
            objectives.append(obj)
        assert all(b <= a + 1e-9 * max(1.0, a)
                   for a, b in zip(objectives, objectives[1:]))

    def test_extrapolation_is_clamped(self):
        x = np.linspace(0, 1, 60)
        y = x ** 2
        model = fit_gam(x[:, None], y, LearnerSpec(kind="gam").params)
        inside = model.predict(np.array([[1.0]]))
        beyond = model.predict(np.array([[5.0], [50.0]]))
        np.testing.assert_allclose(beyond, inside[0], atol=1e-12)


class TestReducedBases:
    def test_constant_column_warns_and_drops(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=50), np.full(50, 2.0)])
        y = X[:, 0] + rng.normal(size=50) * 0.1
        with pytest.warns(UserWarning, match="constant"):
            model = fit_gam(X, y, LearnerSpec(kind="gam").params)
        assert model.terms[1].kind == "zero"
        assert np.all(model.terms[1].value(X[:, 1]) == 0.0)

    def test_few_unique_values_warns_linear(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=60),
                             rng.choice([0.0, 1.0, 2.0], size=60)])
        y = X[:, 0] + X[:, 1] + rng.normal(size=60) * 0.1
        with pytest.warns(UserWarning, match="linear term"):
            model = fit_gam(X, y, LearnerSpec(kind="gam").params)
        assert model.terms[1].kind == "linear"

    def test_moderate_unique_values_warns_reduced_basis(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=80),
                             rng.choice(np.linspace(0, 1, 5), size=80)])
        y = X[:, 0] + rng.normal(size=80) * 0.1
        with pytest.warns(UserWarning, match="basis reduced"):
            fit_gam(X, y, LearnerSpec(kind="gam").params)


class TestContract:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=60) * 0.1
        model = fit_gam(X, y, LearnerSpec(kind="gam").params)
        clone = GamModel.from_state(model.state_dict())
        Xnew = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(model.predict(Xnew), clone.predict(Xnew))

    def test_deterministic_via_contract(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        spec = LearnerSpec(kind="gam")
        p1 = fit_learner(spec, X, y).predict(X)
        p2 = fit_learner(spec, X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)
