import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackgp import cwm, qp
from stackgp.cwm import KKT_TOL, SimplexWeights, cwm_predict, fit_cwm, project_simplex
from stackgp.errors import DataError, NumericalError
from stackgp.gp import GpHyperParams
from stackgp.metrics import ambiguity_decomposition


def simplex_grid(L, step):
    """All simplex points with coordinates on a grid of the given step."""
    k = int(round(1.0 / step))
    pts = []
    for combo in itertools.product(range(k + 1), repeat=L - 1):
        if sum(combo) <= k:
            pts.append([c / k for c in combo] + [(k - sum(combo)) / k])
    return np.array(pts)


class TestProjectSimplex:
    def test_symmetric_overshoot(self):
        w = project_simplex(np.array([0.6, 0.6]))
        np.testing.assert_allclose(w.beta, [0.5, 0.5], atol=1e-12)

    def test_vertex_fixed_point(self):
        w = project_simplex(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(w.beta, [1.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_from_symmetric_negative(self):
        w = project_simplex(np.array([-5.0, -5.0, -5.0]))
        np.testing.assert_allclose(w.beta, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=int(rng.integers(1, 8))) * 3
            once = project_simplex(v).beta
            twice = project_simplex(once).beta
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L = int(rng.integers(1, 8))
            a, b = rng.normal(size=L) * 4, rng.normal(size=L) * 4
            pa, pb = project_simplex(a).beta, project_simplex(b).beta
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_matches_grid_search_oracle(self):
        # nearest point on a fine simplex grid agrees to the grid resolution
        rng = np.random.default_rng(2)
        grid = simplex_grid(3, 1e-3 * 10)   # step 0.01 keeps the grid tractable
        for _ in range(100):
            v = rng.normal(size=3) * 2
            w = project_simplex(v).beta
            d = np.linalg.norm(grid - v, axis=1)
            best = grid[np.argmin(d)]
            assert np.linalg.norm(w - v) <= np.linalg.norm(best - v) + 1e-12
            assert np.max(np.abs(w - best)) <= 0.01 + 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_always_feasible(self, vals):
        w = project_simplex(np.array(vals))
        assert np.all(w.beta >= 0)
        assert abs(w.beta.sum() - 1.0) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            project_simplex(np.array([np.nan, 0.5]))


class TestSimplexWeights:
    def test_validation(self):
        with pytest.raises(DataError):
            SimplexWeights(beta=np.array([0.5, 0.6]), degenerate=False)
        with pytest.raises(DataError):
            SimplexWeights(beta=np.array([-0.1, 1.1]), degenerate=False)
        w = SimplexWeights(beta=np.array([0.25, 0.75]), degenerate=False)
        assert not w.degenerate

    @pytest.mark.parametrize("beta", [[np.nan], [np.inf, 0.0], [], [[1.0]], [0.5, 0.5 + 2e-9],
                                      [-1e-9, 1.0 + 1e-9]])
    def test_one_simplex_check_for_every_beta(self, beta):
        # three copies had drifted: two let a NaN through, one summed to 1e-12
        def gp(b):
            return GpHyperParams(log_kappa=0.0, log_tau=0.0, sigma_e2=1.0, phi=0.0, beta=b)

        def decompose(b):
            return ambiguity_decomposition(np.zeros((2, np.size(b))), b, np.zeros(2))

        for build in (SimplexWeights, gp, decompose):
            with pytest.raises(DataError, match="^beta must lie on the probability simplex$"):
                build(np.array(beta))
        for build in (SimplexWeights, gp, decompose):
            build(np.array([0.5, 0.5 + 0.5 * cwm.SIMPLEX_TOL]))


class TestFitCwm:
    def test_single_column_weight_one(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(20, 1))
        w = fit_cwm(H, rng.normal(size=20))
        np.testing.assert_allclose(w.beta, [1.0], atol=1e-12)

    def test_exact_column_takes_all_weight(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=200)
        noise = rng.normal(size=(200, 2)) * 5
        noise -= noise.mean(axis=0)
        H = np.column_stack([y, y + noise[:, 0], y + noise[:, 1]])
        w = fit_cwm(H, y)
        assert w.beta[0] >= 1.0 - 1e-6
        grid = simplex_grid(3, 1e-3)
        objs = ((H @ grid.T - y[:, None]) ** 2).mean(axis=0)
        fitted_obj = ((H @ w.beta - y) ** 2).mean()
        assert fitted_obj <= objs.min() + 1e-9

    def test_twin_columns_prediction_symmetric(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=50)
        col = y + rng.normal(size=50)
        other = y + rng.normal(size=50) * 2
        H1 = np.column_stack([col, col, other])
        w = fit_cwm(H1, y)
        single = fit_cwm(np.column_stack([col, other]), y)
        obj_twin = ((H1 @ w.beta - y) ** 2).mean()
        obj_single = ((np.column_stack([col, other]) @ single.beta - y) ** 2).mean()
        assert obj_twin == pytest.approx(obj_single, abs=1e-9)

    def test_never_worse_than_best_vertex(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n, L = int(rng.integers(5, 40)), int(rng.integers(1, 6))
            H = rng.normal(size=(n, L)) * rng.uniform(0.2, 5)
            y = rng.normal(size=n)
            w = fit_cwm(H, y)
            obj = ((H @ w.beta - y) ** 2).sum()
            for j in range(L):
                vertex = ((H[:, j] - y) ** 2).sum()
                assert obj <= vertex + 1e-8 * max(1.0, vertex)

    def test_degenerate_flag_when_underdetermined(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(2, 5))
        w = fit_cwm(H, rng.normal(size=2))
        assert w.degenerate
        assert np.all(w.beta >= 0) and abs(w.beta.sum() - 1) <= 1e-12

    def test_rejects_non_finite(self):
        H = np.ones((4, 2))
        H[1, 0] = np.inf
        with pytest.raises(DataError):
            fit_cwm(H, np.ones(4))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            fit_cwm(np.ones((4, 2)), np.ones(5))


def certificate_case(case):
    rng = np.random.default_rng(11)
    n, L = (3, 6) if case == "n<L" else (60, 4)
    y = rng.normal(size=n)
    H = y[:, None] + rng.normal(size=(n, L)) * rng.uniform(0.5, 3.0, size=L)
    if case == "exact-column":
        H[:, 2] = y
    if case == "twin-columns":
        H[:, 1] = H[:, 0]
    if case == "large-scale":
        H, y = H * 1e5, y * 1e5
    return H, y


class TestActiveSetCertificate:
    @pytest.mark.parametrize("case", ["plain", "exact-column", "twin-columns", "n<L", "large-scale"])
    def test_kkt_conditions_hold_at_the_returned_weights(self, case):
        H, y = certificate_case(case)
        w = fit_cwm(H, y)
        assert w.degenerate == (case == "n<L")
        assert w.meta["iterations"] >= 1
        assert w.meta["kkt_residual"] <= KKT_TOL
        # recomputed from beta alone: equal gradients on the support, no
        # lower gradient off it
        Q, b = 2.0 * H.T @ H, 2.0 * H.T @ y
        g = Q @ w.beta - b
        g -= g @ w.beta
        tol = KKT_TOL * max(1.0, np.abs(Q).max(), np.abs(b).max())
        on = w.beta > 0
        assert np.all(np.abs(g[on]) <= tol)
        assert np.all(g[~on] >= -tol)
        if case == "exact-column":
            np.testing.assert_allclose(w.beta, [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_step_cap_raises_naming_the_cwm(self, monkeypatch):
        H, y = certificate_case("plain")
        monkeypatch.setattr(qp, "MAX_STEPS_PER_VARIABLE", 0)
        with pytest.raises(NumericalError, match="CWM: active-set solve did not finish"):
            fit_cwm(H, y)

    def test_residual_above_threshold_raises_naming_the_cwm(self, monkeypatch):
        H, y = certificate_case("plain")
        monkeypatch.setattr(cwm, "KKT_TOL", -1.0)
        with pytest.raises(NumericalError, match="CWM: .*KKT residual"):
            fit_cwm(H, y)


class TestCwmPredict:
    def test_uniform_two_columns(self):
        w = SimplexWeights(beta=np.array([0.5, 0.5]), degenerate=False)
        out = cwm_predict(w, np.array([[1.0, 3.0]]))
        assert out[0] == pytest.approx(2.0, abs=1e-15)

    def test_vertex_weight_selects_column(self):
        rng = np.random.default_rng(8)
        P = rng.normal(size=(10, 3))
        w = SimplexWeights(beta=np.array([1.0, 0.0, 0.0]), degenerate=False)
        np.testing.assert_array_equal(cwm_predict(w, P), P[:, 0])

    def test_dimension_mismatch(self):
        w = SimplexWeights(beta=np.array([0.5, 0.5]), degenerate=False)
        with pytest.raises(DataError):
            cwm_predict(w, np.ones((3, 3)))

    @settings(max_examples=150)
    @given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_row_envelope_property(self, L, n, seed):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(n, L)) * rng.uniform(0.1, 10)
        b = rng.exponential(size=L)
        w = project_simplex(b / b.sum())
        out = cwm_predict(w, P)
        assert np.all(out >= P.min(axis=1) - 1e-10)
        assert np.all(out <= P.max(axis=1) + 1e-10)
