import json
import warnings

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.linalg import block_diag, cho_factor, cho_solve, solve_triangular

from stackgp.errors import ConfigError
from stackgp.learners import LearnerModel, LearnerSpec, fit_learner
from stackgp.learners.gam import (
    RIDGE_REL,
    SPLINE_DEGREE,
    GamModel,
    _bspline_design,
    _curvature_penalty,
    _gcv_scores,
    _penalty_root,
    _ridge,
    _second_derivative,
    _spline_knots,
    _term_scaffold,
    fit_gam,
)
from stackgp.metrics import pearson_flagged
from stackgp.model_io import load_model, save_model
from stackgp.stacking import fit_stack, make_folds

GRID = np.logspace(-4.0, 4.0, 13)


def term_ridge(B):
    G = B.T @ B
    return RIDGE_REL * max(np.trace(G) / max(len(G), 1), 1.0)


def reference_gcv_scores(B, P, resid, grid):
    """Single-term GCV by one Cholesky factorisation per lambda."""
    n = len(resid)
    scores = []
    for lam in grid:
        factor = cho_factor(B.T @ B + lam * P + term_ridge(B) * np.eye(B.shape[1]), lower=True)
        coef = cho_solve(factor, B.T @ resid)
        rss = float(np.sum((resid - B @ coef) ** 2))
        df = float(np.sum(B * cho_solve(factor, B.T).T)) + 1.0
        scores.append(np.inf if df >= n else n * rss / (n - df) ** 2)
    return np.array(scores)


def reference_penalty(knots):
    """The curvature Gram matrix from scipy's spline derivative, span by span."""
    p = len(knots) - SPLINE_DEGREE - 1
    d2 = BSpline(knots, np.eye(p), SPLINE_DEGREE).derivative(2)
    nodes = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
    weights = np.array([5.0, 8.0, 5.0]) / 9.0
    P = np.zeros((p, p))
    spans = np.unique(knots)
    for a, b in zip(spans[:-1], spans[1:]):
        half = 0.5 * (b - a)
        D2 = d2(0.5 * (a + b) + half * nodes)
        P += (D2 * (half * weights)[:, None]).T @ D2
    return 0.5 * (P + P.T)


def scipy_fit(X, y, n_splines):
    """fit_gam's per-term lambdas and joint coefficients, with every triangular
    solve by scipy.linalg.solve_triangular and the penalty roots joined by
    scipy.linalg.block_diag."""
    resid0 = y - y.mean()
    lams, bases, roots = [], [], []
    for j in range(X.shape[1]):
        term, B = _term_scaffold(X[:, j], n_splines, f"#{j}")
        lam = 0.0
        if term.kind != "zero":
            B = B - term.col_means
            p = B.shape[1]
            root = np.zeros((0, p))
            if term.kind == "spline":
                root = _penalty_root(_curvature_penalty(term.knots))
                R = np.linalg.qr(np.vstack([B, np.sqrt(_ridge(B)) * np.eye(p)]), mode="r")
                U, sv, _ = np.linalg.svd(solve_triangular(R, root.T, trans="T"))
                F = B @ solve_triangular(R, U)
                shrink = 1.0 / (1.0 + np.outer(sv**2, GRID))
                rss = np.sum((resid0[:, None] - F @ (shrink * (F.T @ resid0)[:, None])) ** 2,
                             axis=0)
                df = np.sum(F * F, axis=0) @ shrink + 1.0
                with np.errstate(divide="ignore"):
                    lam = float(GRID[np.argmin(np.where(df < len(y),
                                                        len(y) * rss / (len(y) - df) ** 2,
                                                        np.inf))])
            bases.append(B)
            roots.append(np.vstack([np.sqrt(lam) * root, np.sqrt(_ridge(B)) * np.eye(p)]))
        lams.append(lam)
    A = np.vstack([np.hstack(bases), block_diag(*roots)])
    Q, R = np.linalg.qr(A)
    return lams, solve_triangular(R, Q.T @ np.concatenate([resid0, np.zeros(len(A) - len(y))]))


def penalised_objective(model, X, y):
    """||y - fit||^2 + sum_j c_j' (lam_j P_j + ridge_j I) c_j, and its gradient."""
    resid = y - model.predict(X)
    obj, grad = float(resid @ resid), []
    for j, term in enumerate(model.terms):
        if term.kind == "zero":
            continue
        B = term.basis(X[:, j])
        P = _curvature_penalty(term.knots) if term.kind == "spline" else np.zeros((1, 1))
        H = term.lam * P + term_ridge(B) * np.eye(B.shape[1])
        obj += float(term.coef @ H @ term.coef)
        grad.append(2.0 * (H @ term.coef - B.T @ resid))
    return obj, np.concatenate(grad)


def backfit(X, y, model, sweeps):
    """Block Gauss-Seidel on the penalised objective with the model's lambdas."""
    n = len(y)
    blocks = []
    for j, term in enumerate(model.terms):
        if term.kind == "zero":
            continue
        B = term.basis(X[:, j])
        P = _curvature_penalty(term.knots) if term.kind == "spline" else np.zeros((1, 1))
        factor = cho_factor(B.T @ B + term.lam * P + term_ridge(B) * np.eye(B.shape[1]),
                            lower=True)
        blocks.append((term, B, factor))
    fitted = [np.zeros(n) for _ in blocks]
    total = np.zeros(n)
    for _ in range(sweeps):
        for k, (term, B, factor) in enumerate(blocks):
            coef = cho_solve(factor, B.T @ (y - model.intercept - (total - fitted[k])))
            new = B @ coef
            total += new - fitted[k]
            fitted[k] = new
            term.coef = coef
    return model


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
        knots = _spline_knots(x, 8)
        P = _curvature_penalty(knots)
        p = len(knots) - SPLINE_DEGREE - 1
        bump = np.zeros(p)
        bump[p // 2] = 1.0
        assert float(bump @ P @ bump) > 0.0

    def test_matches_dense_quadrature_oracle(self):
        # brute-force Riemann integration of the squared second derivative
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


def _knot_sets(count=200):
    rng = np.random.default_rng(17)
    for _ in range(count):
        x = rng.normal(size=int(rng.integers(8, 120))) * rng.uniform(0.01, 100.0)
        if rng.uniform() < 0.3:
            x = np.round(x, 1)
        if np.unique(x).size >= 4:
            yield x, _spline_knots(x, int(rng.integers(4, 14)))


class TestNumpyBasis:
    def test_design_matches_scipy(self):
        rng = np.random.default_rng(18)
        for x, knots in _knot_sets():
            xs = np.concatenate([rng.uniform(knots[0], knots[-1], 40), knots])
            ref = BSpline.design_matrix(xs, knots, SPLINE_DEGREE).toarray()
            np.testing.assert_allclose(_bspline_design(xs, knots, SPLINE_DEGREE), ref,
                                       rtol=0, atol=1e-13)

    def test_second_derivative_and_penalty_match_scipy(self):
        rng = np.random.default_rng(19)
        for x, knots in _knot_sets():
            p = len(knots) - SPLINE_DEGREE - 1
            xs = rng.uniform(knots[0], knots[-1], 40)
            ref = BSpline(knots, np.eye(p), SPLINE_DEGREE).derivative(2)(xs)
            np.testing.assert_allclose(_second_derivative(xs, knots), ref,
                                       rtol=0, atol=1e-13 * np.abs(ref).max())
            P, P_ref = _curvature_penalty(knots), reference_penalty(knots)
            np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-13 * np.abs(P_ref).max())

    def test_penalty_root_reproduces_the_penalty(self):
        for x, knots in list(_knot_sets(40)):
            P = _curvature_penalty(knots)
            R = _penalty_root(P)
            np.testing.assert_allclose(R.T @ R, P, rtol=0, atol=1e-12 * np.abs(P).max())


class TestGcv:
    def test_scores_match_per_lambda_cholesky(self):
        rng = np.random.default_rng(20)
        for case in range(30):
            n = int(rng.integers(30, 250))
            x = rng.normal(size=n) * rng.uniform(0.01, 100.0)
            resid = np.sin(2.0 * x / x.std()) + rng.normal(size=n) * 0.3
            resid -= resid.mean()
            term, raw = _term_scaffold(x, int(rng.integers(4, 12)), "x")
            B = term.basis(x)
            np.testing.assert_array_equal(raw - term.col_means, B)
            P = _curvature_penalty(term.knots)
            ours = _gcv_scores(B, _penalty_root(P), resid, GRID)
            ref = reference_gcv_scores(B, P, resid, GRID)
            np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=0)
            assert np.argmin(ours) == np.argmin(ref)

    def test_fit_picks_the_oracle_lambda(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(90, 3))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2 + rng.normal(size=90) * 0.2
        model = fit_gam(X, y, LearnerSpec(kind="gam").params)
        for j, term in enumerate(model.terms):
            B = term.basis(X[:, j])
            ref = reference_gcv_scores(B, _curvature_penalty(term.knots), y - y.mean(), GRID)
            assert term.lam == GRID[np.argmin(ref)]


class TestJointSolve:
    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_vanishes_at_the_solution(self, seed):
        rng = np.random.default_rng(30 + seed)
        X = rng.normal(size=(120, 4)) * [1.0, 10.0, 0.1, 1.0]
        X[:, 3] = X[:, 0] + rng.normal(size=120) * 1e-3    # nearly collinear
        y = np.sin(X[:, 0]) + 0.05 * X[:, 1] ** 2 + rng.normal(size=120) * 0.2
        model = fit_gam(X, y, LearnerSpec(kind="gam", params={"n_splines": 10}).params)
        _, grad = penalised_objective(model, X, y)
        at_zero = np.concatenate([2.0 * term.basis(X[:, j]).T @ (y - y.mean())
                                  for j, term in enumerate(model.terms)])
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(at_zero)
        assert 0.0 <= model.meta["residual"] <= 1e-8
        assert set(model.meta) == {"residual"}

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_not_above_a_long_backfit(self, seed):
        rng = np.random.default_rng(40 + seed)
        X = rng.normal(size=(100, 3))
        X[:, 2] = 0.8 * X[:, 0] + 0.6 * rng.normal(size=100)
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(size=100) * 0.1
        params = LearnerSpec(kind="gam").params
        ours, _ = penalised_objective(fit_gam(X, y, params), X, y)
        swept, _ = penalised_objective(backfit(X, y, fit_gam(X, y, params), 200), X, y)
        assert ours <= swept * (1.0 + 1e-12)


class TestScipyOracle:
    """The numpy-only solves agree with scipy's triangular solves."""

    @pytest.mark.parametrize("seed", range(12))
    def test_lambdas_equal_and_coefficients_within_1e10(self, seed):
        rng = np.random.default_rng(60 + seed)
        n, m = int(rng.integers(30, 250)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, m)) * rng.uniform(0.01, 100.0, size=m)
        if seed % 3 == 0:       # a linear term and a reduced basis ride along
            X[:, 0] = rng.integers(0, 3, size=n)
            X[:, -1] = np.round(X[:, -1] / X[:, -1].std() * 2.0)
        if seed % 3 == 1 and m > 1:     # and a constant column's dropped term
            X[:, 0] = 1.5
        y = np.sin(X[:, -1] / X[:, -1].std()) + rng.normal(size=n) * rng.uniform(0.05, 1.0)
        n_splines = int(rng.integers(4, 14))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            model = fit_gam(X, y, LearnerSpec(kind="gam", params={"n_splines": n_splines}).params)
            lams, coef = scipy_fit(X, y, n_splines)
        assert [term.lam for term in model.terms] == lams
        np.testing.assert_allclose(np.concatenate([t.coef for t in model.terms]), coef,
                                   rtol=1e-10, atol=0)
        assert 0.0 <= model.meta["residual"] <= 1e-8


class TestParams:
    @pytest.mark.parametrize("key, value", [("max_backfit", 30), ("tol", 1e-8)])
    def test_backfitting_params_are_unknown(self, key, value):
        with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\]"):
            LearnerSpec(kind="gam", params={key: value})

    def test_empty_lambda_grid_is_a_config_error(self):
        # it used to pass validation and crash the fit with an IndexError
        with pytest.raises(ConfigError, match="lambda_grid"):
            LearnerSpec(kind="gam", params={"lambda_grid": []})

    def test_old_model_file_with_backfitting_params_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(40, 2))
        y = np.sin(X[:, 0]) + rng.normal(size=40) * 0.1
        loc = np.column_stack([rng.uniform(30, 31, 40), rng.uniform(-2, -1, 40),
                               rng.integers(0, 5, 40).astype(float)])
        state = fit_stack(1, X, y, loc, [LearnerSpec(kind="gam", seed=4)],
                          make_folds(40, 4, seed=1), level1="cwm")
        path = tmp_path / "model.json"
        save_model(state, path)
        payload = json.loads(path.read_text())
        payload["level0"][0]["spec"]["params"].update(max_backfit=30, tol=1e-8)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        clone = load_model(old)
        assert "max_backfit" not in clone.level0[0].spec.params
        X_new = rng.normal(size=(7, 2)) * 3.0
        np.testing.assert_array_equal(clone.level0[0].predict(X_new),
                                      state.level0[0].predict(X_new))
        assert LearnerModel.from_dict(payload["level0"][0]).spec == state.level0[0].spec
