import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
import scipy.special
import yaml
from scipy.optimize import OptimizeResult

import stackgp.gp as gp
from stackgp.dataset import GridGeometry
from stackgp.errors import ConfigError, DataError, NumericalError, SchemaError
from stackgp.gmrf import (
    SparsePrecision,
    ar1_precision,
    gp_condition_precision,
    lattice_gmrf_precision,
)
from stackgp.gp import (
    FIXABLE,
    GpHyperParams,
    PlainGpModel,
    StackedGpModel,
    _chol_with_jitter,
    _ar1_dphi,
    _matern1_dlog_kappa,
    _RawCodec,
    _softmax_pinned,
    _train_kernel,
    cov_block,
    default_init,
    fit_gp_linear_mean,
    fit_hyperparams,
    gp_condition_dense,
    gp_stacked_predict,
    log_marginal_likelihood,
    matern1_matrix,
    pairwise_planar_dist,
    plain_gp_predict,
)
from stackgp.stacking import fold_oof_gp, make_folds

from conftest import build_joint_cov, matern1_cov

# independently tabulated high-precision values (not recomputed here)
BESSEL_K1_AT_1 = 0.6019072301972346
HALF_LOG_2PI = 0.9189385332046727


def params_of(kappa=1.0, tau=1.0, sigma_e2=0.1, phi=0.5, beta=(1.0,)):
    return GpHyperParams(log_kappa=math.log(kappa), log_tau=math.log(tau),
                         sigma_e2=sigma_e2, phi=phi,
                         beta=np.asarray(beta, dtype=float))


def random_points(rng, n, n_months=6, extent=1.0):
    return np.column_stack([
        rng.uniform(30.0, 30.0 + extent, size=n),
        rng.uniform(-1.0 - extent, -1.0, size=n),
        rng.integers(0, n_months, size=n).astype(float),
    ])


class TestMaternKernel:
    def test_zero_distance_is_inverse_tau(self):
        for tau in (0.5, 1.0, 4.0):
            assert matern1_matrix(np.zeros(1), 2.0, tau)[0] == pytest.approx(1.0 / tau, abs=1e-15)

    def test_unit_distance_frozen_bessel_value(self):
        assert matern1_matrix(np.ones(1), 1.0, 1.0)[0] == pytest.approx(BESSEL_K1_AT_1, abs=1e-13)

    def test_monotone_decrease(self):
        c = matern1_matrix(np.array([0.5, 1.0, 2.0]), 1.0, 1.0)
        assert c[0] > c[1] > c[2] > 0

    def test_continuity_at_origin(self):
        assert matern1_matrix(np.array([1e-9]), 3.0, 2.0)[0] == pytest.approx(0.5, rel=1e-6)

    def test_matrix_matches_scalar(self):
        D = np.array([[0.0, 0.7], [0.7, 0.0]])
        K = matern1_matrix(D, 1.3, 0.8)
        assert K[0, 0] == pytest.approx(1 / 0.8, abs=1e-15)
        assert K[0, 1] == pytest.approx(matern1_cov(0.7, 1.3, 0.8), abs=1e-15)


class TestBesselK1:
    """gp._k1, the numpy K1 behind matern1_matrix, against scipy's."""

    def test_within_5e_15_relative_of_scipy_on_a_log_grid(self):
        x = np.geomspace(1e-10, 700.0, 20001)
        want = scipy.special.k1(x)
        rel = np.abs(gp._k1(x) - want) / want
        assert rel.max() <= 5e-15, f"worst at x = {x[np.argmax(rel)]!r}: {rel.max():.2e}"

    def test_entries_do_not_depend_on_the_array_around_them(self):
        rng = np.random.default_rng(71)
        # two and a bit of _k1's passes
        x = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), size=2 * gp._K_CHUNK + 3))
        whole = gp._k1(x)
        assert gp._k1(x[::-1])[::-1].tobytes() == whole.tobytes()
        assert gp._k1(x[1::3]).tobytes() == whole[1::3].tobytes()
        assert gp._k1(x.reshape(-1, 1)).reshape(-1).tobytes() == whole.tobytes()
        for lo in [*range(0, 64, 5), gp._K_CHUNK - 7, 2 * gp._K_CHUNK - 1]:
            piece = slice(lo, lo + int(rng.integers(1, 20)))
            assert gp._k1(x[piece]).tobytes() == whole[piece].tobytes(), piece
        assert all(gp._k1(np.array([v]))[0] == w for v, w in zip(x[:50], whole[:50]))

    def test_finite_positive_and_continuous_across_the_series_seam(self):
        seam = np.array([np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])
        x = np.concatenate([seam, 2.0 + np.linspace(-1e-6, 1e-6, 21)])
        vals = gp._k1(x)
        assert np.isfinite(vals).all() and (vals > 0).all()
        np.testing.assert_allclose(vals, scipy.special.k1(x), rtol=5e-15, atol=0)
        # the two sides of the seam meet to within their accuracy
        assert abs(vals[2] - vals[1]) <= 5e-15 * vals[1]


class TestBesselK0:
    """gp._k0, the numpy K0 behind the fits' kappa gradient, against scipy's."""

    def test_within_5e_15_relative_of_scipy_on_a_log_grid(self):
        x = np.geomspace(1e-10, 700.0, 20001)
        want = scipy.special.k0(x)
        rel = np.abs(gp._k0(x) - want) / want
        assert rel.max() <= 5e-15, f"worst at x = {x[np.argmax(rel)]!r}: {rel.max():.2e}"

    def test_entries_do_not_depend_on_the_array_around_them(self):
        rng = np.random.default_rng(72)
        x = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), size=2 * gp._K_CHUNK + 3))
        whole = gp._k0(x)
        assert gp._k0(x[::-1])[::-1].tobytes() == whole.tobytes()
        assert gp._k0(x[1::3]).tobytes() == whole[1::3].tobytes()
        assert gp._k0(x.reshape(-1, 1)).reshape(-1).tobytes() == whole.tobytes()
        for lo in [*range(0, 64, 5), gp._K_CHUNK - 7, 2 * gp._K_CHUNK - 1]:
            piece = slice(lo, lo + int(rng.integers(1, 20)))
            assert gp._k0(x[piece]).tobytes() == whole[piece].tobytes(), piece
        assert all(gp._k0(np.array([v]))[0] == w for v, w in zip(x[:50], whole[:50]))

    def test_finite_positive_and_continuous_across_the_series_seam(self):
        seam = np.array([np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])
        x = np.concatenate([seam, 2.0 + np.linspace(-1e-6, 1e-6, 21)])
        vals = gp._k0(x)
        assert np.isfinite(vals).all() and (vals > 0).all()
        np.testing.assert_allclose(vals, scipy.special.k0(x), rtol=5e-15, atol=0)
        assert abs(vals[2] - vals[1]) <= 5e-15 * vals[1]

    def test_the_fits_call_it_by_the_module_name_k0(self, monkeypatch):
        # test_fits_call_module_kernel_and_optimizer_once_per_distinct_distance
        # wraps gp._k0 to count the fits' K0 entries
        seen, real_k0 = [], gp._k0
        monkeypatch.setattr(gp, "_k0", lambda x: seen.append(np.size(x)) or real_k0(x))
        gp._matern1_dlog_kappa(np.array([0.0, 0.3, 2.5]), 1.7, 0.8)
        assert seen == [3]


class TestPlanarDistance:
    def test_longitude_scaled_by_cos_reference_latitude(self):
        a = np.array([[30.0, 0.0]])
        b = np.array([[31.0, 0.0]])
        d_eq = pairwise_planar_dist(a, b, ref_lat=0.0)[0, 0]
        d_60 = pairwise_planar_dist(a, b, ref_lat=60.0)[0, 0]
        assert d_eq == pytest.approx(1.0, abs=1e-12)
        assert d_60 == pytest.approx(0.5, abs=1e-12)

    def test_latitude_unscaled(self):
        a = np.array([[30.0, -1.0]])
        b = np.array([[30.0, -2.0]])
        assert pairwise_planar_dist(a, b, ref_lat=60.0)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(6, 2))
        D = pairwise_planar_dist(pts, pts, ref_lat=-1.0)
        np.testing.assert_allclose(D, D.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-15)


class TestCovBlock:
    def test_entrywise_product_form(self):
        rng = np.random.default_rng(1)
        pts = random_points(rng, 5)
        for phi in (0.5, -0.7):
            p = params_of(kappa=1.8, tau=1.4, phi=phi)
            K = cov_block(pts, pts, p, ref_lat=-1.5)
            D = pairwise_planar_dist(pts[:, :2], pts[:, :2], -1.5)
            for i in range(5):
                for j in range(5):
                    dt = abs(int(pts[i, 2]) - int(pts[j, 2]))
                    want = matern1_cov(float(D[i, j]), p.kappa, p.tau) * phi ** dt
                    assert K[i, j] == pytest.approx(want, abs=1e-12)

    def test_zero_phi_decouples_months(self):
        pts = np.array([[30.0, -1.0, 0.0], [30.0, -1.0, 3.0]])
        K = cov_block(pts, pts, params_of(phi=0.0), ref_lat=-1.0)
        assert K[0, 1] == 0.0
        assert K[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_negative_phi_alternates_sign(self):
        pts = np.array([[30.0, -1.0, 0.0], [30.0, -1.0, 1.0], [30.0, -1.0, 2.0]])
        K = cov_block(pts, pts, params_of(phi=-0.5), ref_lat=-1.0)
        assert K[0, 1] < 0 < K[0, 2]

    def test_identical_points_constant_block(self):
        pts = np.tile([31.0, -1.5, 2.0], (4, 1))
        K = cov_block(pts, pts, params_of(tau=2.0), ref_lat=-1.5)
        np.testing.assert_allclose(K, 0.5, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused_naming_row(self, bad):
        pts = np.array([[30.0, -1.0, 0.0], [30.5, -1.2, 1.0], [30.2, -1.1, 2.0]])
        pts[1, 1] = bad
        with pytest.raises(DataError, match=r"points row 0 is not finite"):
            cov_block(pts[1:2], pts[1:2], params_of(tau=1.0), ref_lat=-1.0)
        with pytest.raises(DataError, match=r"points row 1 is not finite"):
            cov_block(pts[:1], pts, params_of(), ref_lat=-1.0)


def sited_points(rng, n, n_sites, n_months):
    """n surveys at n_sites repeated sites (zero off-diagonal distances)."""
    sites = np.column_stack([rng.uniform(30.0, 31.0, size=n_sites),
                             rng.uniform(-2.0, -1.0, size=n_sites)])
    return np.column_stack([sites[rng.integers(0, n_sites, size=n)],
                            rng.integers(0, n_months, size=n).astype(float)])


def full_matrix_train_kernel(points):
    """Reference for _train_kernel: the Matern, phi^lag and their derivative
    blocks over all n x n entries."""
    pts = np.asarray(points, dtype=float)
    D = pairwise_planar_dist(pts[:, :2], pts[:, :2], float(pts[:, 1].mean()))
    t = np.rint(pts[:, 2]).astype(int)
    dT = np.abs(t[:, None] - t[None, :])

    def kernel(p):
        K = matern1_matrix(D, p.kappa, p.tau) * np.power(p.phi, dT)
        blocks = {
            "log_kappa": lambda: _matern1_dlog_kappa(D, p.kappa, p.tau) * np.power(p.phi, dT),
            "log_tau": lambda: -K,
            "sigma_e2": lambda: np.eye(len(K)),
            "phi": lambda: matern1_matrix(D, p.kappa, p.tau) * _ar1_dphi(p.phi, dT),
        }
        return K, lambda key: blocks[key]()
    return kernel


class TestTrainKernel:
    def test_bytes_equal_cov_block_over_seeded_draws(self):
        rng = np.random.default_rng(41)
        shapes = [(5, 5, 6), (5, 1, 1), (30, 30, 1), (40, 8, 12), (60, 60, 13), (25, 3, 4)]
        for n, n_sites, n_months in shapes:
            pts = sited_points(rng, n, n_sites, n_months)
            kernel = _train_kernel(pts)
            for phi in (-0.999999, -0.3, -0.0, 0.0, 1e-300, 0.5, 0.999999):
                for log_kappa in (-12.0, -3.0, 0.0, 4.0, 12.0,
                                  float(rng.uniform(-12.0, 12.0))):
                    for log_tau in (-700.0, -20.0, 0.0, 30.0, 700.0):
                        p = GpHyperParams(log_kappa=log_kappa, log_tau=log_tau, sigma_e2=0.1,
                                          phi=phi, beta=np.ones(1))
                        want = cov_block(pts, pts, p, float(pts[:, 1].mean()))
                        assert kernel(p)[0].tobytes() == want.tobytes(), \
                            (n, n_sites, n_months, phi, log_kappa, log_tau)

    def fit_problem(self, seed=42, n=24):
        rng = np.random.default_rng(seed)
        pts = sited_points(rng, n, 9, 5)
        basis = rng.normal(size=(n, 2))
        y = basis @ [0.7, 0.3] + rng.normal(size=n) * 0.3
        return y, basis, pts

    def test_fits_byte_identical_to_full_matrix_kernel(self, monkeypatch):
        y, basis, pts = self.fit_problem()

        def fit_bytes():
            stack = fit_hyperparams(y, basis, pts, restarts=2, max_iter=60, seed=3)
            plain = fit_gp_linear_mean(y, basis, pts, restarts=2, max_iter=60, seed=3)
            return [np.array([p.log_kappa, p.log_tau, p.sigma_e2, p.phi]).tobytes()
                    + p.beta.tobytes() for p in (stack, plain.params)] \
                + [plain.mean_state["coef"].tobytes()]

        fast = fit_bytes()
        monkeypatch.setattr(gp, "_train_kernel", full_matrix_train_kernel)
        assert fit_bytes() == fast

    def test_fits_call_module_kernel_and_optimizer_once_per_distinct_distance(
            self, monkeypatch):
        rng = np.random.default_rng(43)
        pts = sited_points(rng, 40, 8, 6)
        y = rng.normal(size=40)
        basis = rng.normal(size=(40, 2))
        n_distinct = np.unique(pairwise_planar_dist(pts[:, :2], pts[:, :2],
                                                    float(pts[:, 1].mean()))).size
        assert n_distinct <= 29          # 8 sites: 28 site pairs and zero
        entries, k0_entries, optimizer_calls = [], [], []
        real_minimize, real_k0 = gp.minimize, gp._k0

        def counting_matern(D, kappa, tau):
            entries.append(np.size(D))
            return matern1_matrix(D, kappa, tau)

        def counting_k0(x):
            k0_entries.append(np.size(x))
            return real_k0(x)

        def counting_minimize(*args, **kwargs):
            optimizer_calls.append(1)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(gp, "matern1_matrix", counting_matern)
        monkeypatch.setattr(gp, "_k0", counting_k0)
        monkeypatch.setattr(gp, "minimize", counting_minimize)
        for fit in (fit_hyperparams, fit_gp_linear_mean):
            entries.clear()
            k0_entries.clear()
            optimizer_calls.clear()
            fit(y, basis, pts, restarts=1, max_iter=20)
            assert optimizer_calls and entries and k0_entries, fit.__name__
            assert max(entries) <= n_distinct, fit.__name__
            assert max(k0_entries) <= n_distinct, fit.__name__


class TestBuildJointCov:
    """cov_block's joint covariance, and the conftest oracle c10 draws its fields from."""

    def test_kronecker_separability_exhaustive(self):
        rng = np.random.default_rng(2)
        pts = random_points(rng, 12)
        p = params_of(kappa=2.0, tau=1.2, phi=0.6)
        ref = float(pts[:, 1].mean())
        K = cov_block(pts, pts, p, ref)
        S = matern1_matrix(pairwise_planar_dist(pts[:, :2], pts[:, :2], ref), p.kappa, p.tau)
        for i in range(12):
            for j in range(12):
                dt = abs(int(pts[i, 2]) - int(pts[j, 2]))
                assert K[i, j] == pytest.approx(S[i, j] * p.phi ** dt, abs=1e-12)

    def test_result_is_positive_definite(self):
        rng = np.random.default_rng(3)
        pts = random_points(rng, 15)
        K = build_joint_cov(pts, params_of(phi=0.8))
        np.linalg.cholesky(K)

    def test_duplicated_points_get_jitter_not_failure(self):
        pts = np.tile([30.5, -1.2, 1.0], (5, 1))
        K = build_joint_cov(pts, params_of())
        np.linalg.cholesky(K)
        assert K[0, 0] >= 1.0


class TestCholeskyJitterLadder:
    def test_clean_matrix_no_jitter(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        L, jitter = _chol_with_jitter(A, "test")
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, A, atol=1e-12)

    def test_semidefinite_matrix_escalates(self):
        v = np.array([1.0, 1.0, 1.0])
        A = np.outer(v, v)   # rank 1, needs jitter
        L, jitter = _chol_with_jitter(A, "test")
        assert jitter > 0.0

    def test_indefinite_matrix_reports_condition(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3, -1
        with pytest.raises(NumericalError, match="condition estimate"):
            _chol_with_jitter(A, "test")

    def test_non_finite_diagonal_rejected(self):
        with pytest.raises(NumericalError):
            _chol_with_jitter(np.array([[np.nan, 0.0], [0.0, 1.0]]), "test")


class TestAr1Precision:
    def test_zero_phi_identity(self):
        Q = ar1_precision(5, 0.0).toarray()
        np.testing.assert_allclose(Q, np.eye(5), atol=1e-15)

    def test_single_month(self):
        assert ar1_precision(1, 0.7).toarray().tolist() == [[1.0]]

    @pytest.mark.parametrize("phi", [-0.9, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("T", [2, 4, 8])
    def test_inverse_is_ar1_correlation(self, T, phi):
        Q = ar1_precision(T, phi).toarray()
        C = np.linalg.inv(Q)
        i, j = np.indices((T, T))
        np.testing.assert_allclose(C, np.power(float(phi), np.abs(i - j)), atol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DataError):
            ar1_precision(0, 0.5)
        with pytest.raises(DataError):
            ar1_precision(3, 1.0)


class TestLatticeGmrf:
    def geometry(self, n=5):
        return GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.1,
                            n_lon=n, n_lat=n)

    def test_interior_row_has_13_nonzeros(self):
        spre = lattice_gmrf_precision(self.geometry(5), params_of(kappa=2.0))
        Q = spre.Q.toarray()
        interior = 2 * 5 + 2   # site (2, 2)
        assert np.count_nonzero(Q[interior]) == 13
        corner = 0
        assert np.count_nonzero(Q[corner]) < 13

    def test_precision_is_spd(self):
        spre = lattice_gmrf_precision(self.geometry(4), params_of(kappa=3.0))
        np.linalg.cholesky(spre.Q.toarray())

    def test_large_kappa_kills_neighbour_correlation(self):
        def adjacency_corr(kappa):
            spre = lattice_gmrf_precision(self.geometry(4), params_of(kappa=kappa))
            C = np.linalg.inv(spre.Q.toarray())
            sd = np.sqrt(np.diag(C))
            return abs(C[0, 1]) / (sd[0] * sd[1])
        assert adjacency_corr(200.0) < 0.01
        assert adjacency_corr(200.0) < adjacency_corr(2.0)

    def test_correlation_decays_monotonically_on_3x3(self):
        spre = lattice_gmrf_precision(self.geometry(3), params_of(kappa=2.0))
        C = np.linalg.inv(spre.Q.toarray())
        sd = np.sqrt(np.diag(C))
        R = C / np.outer(sd, sd)
        # along the middle row: self > 1 step > 2 steps
        assert R[3, 3] > R[3, 4] > R[3, 5]

    def test_too_small_lattice_rejected(self):
        geo = GridGeometry(lon0=0.0, lat0=0.0, d_lon=0.1, d_lat=0.1, n_lon=2, n_lat=4)
        with pytest.raises(DataError, match="3x3"):
            lattice_gmrf_precision(geo, params_of())

    def test_time_kronecker_structure(self):
        geo = self.geometry(3)
        p = params_of(kappa=2.0, phi=0.5)
        solo = lattice_gmrf_precision(geo, p, n_months=1).Q.toarray()
        multi = lattice_gmrf_precision(geo, p, n_months=3).Q.toarray()
        Q_time = ar1_precision(3, 0.5).toarray()
        np.testing.assert_allclose(multi, np.kron(Q_time, solo), atol=1e-12)


class TestObservationMatrix:
    """SparsePrecision's observation matrix A maps latent sites to points by convex rows."""

    def test_sparse_precision_validates_rows(self):
        Q = sp.identity(4, format="csc")
        bad = sp.csr_matrix(np.array([[0.5, 0.2, 0.0, 0.0]]))
        with pytest.raises(DataError, match="sum to 1"):
            SparsePrecision(Q=Q, A=bad)
        negative = sp.csr_matrix(np.array([[1.5, -0.5, 0.0, 0.0]]))
        with pytest.raises(DataError, match="negative"):
            SparsePrecision(Q=Q, A=negative)


def brute_force_condition(y, mu_t, mu_p, K_t, K_c, K_p, sigma_e2):
    """Joint-Gaussian block conditioning with explicit inverses."""
    S_inv = np.linalg.inv(K_t + sigma_e2 * np.eye(len(y)))
    mu_star = mu_p + K_c.T @ S_inv @ (y - mu_t)
    sigma_star = K_p - K_c.T @ S_inv @ K_c
    return mu_star, sigma_star


def blocks_of_shape(shape):
    """K_cross as a function whose block for columns lo:hi is zeros of shape(hi - lo).

    It is a partial, which has no __name__, so pytest names a case by its index.
    """
    return partial(lambda lo, hi: np.zeros(shape(hi - lo)))


class TestDenseConditioning:
    def random_problem(self, rng, n, p):
        pts = random_points(rng, n + p)
        prm = params_of(kappa=rng.uniform(1, 4), tau=rng.uniform(0.5, 2),
                        sigma_e2=rng.uniform(0.05, 0.5), phi=rng.uniform(-0.8, 0.8))
        ref = float(pts[:, 1].mean())
        K = cov_block(pts, pts, prm, ref)
        K_t, K_c, K_p = K[:n, :n], K[:n, n:], K[n:, n:]
        mu = rng.normal(size=n + p)
        y = rng.normal(size=n)
        return y, mu[:n], mu[n:], K_t, K_c, K_p, prm.sigma_e2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, p = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            y, mu_t, mu_p, K_t, K_c, K_p, s2 = self.random_problem(rng, n, p)
            post = gp_condition_dense(y, mu_t, mu_p, K_t, K_c, K_p, s2, full_cov=True)
            mu_star, sigma_star = brute_force_condition(y, mu_t, mu_p, K_t, K_c, K_p, s2)
            np.testing.assert_allclose(post.mu_star, mu_star, atol=1e-8)
            np.testing.assert_allclose(post.sigma_star, sigma_star, atol=1e-8)

    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(6)
        pts = random_points(rng, 6)
        prm = params_of(sigma_e2=1e-12)
        ref = float(pts[:, 1].mean())
        K = cov_block(pts, pts, prm, ref)
        y = rng.normal(size=6)
        post = gp_condition_dense(y, np.zeros(6), np.zeros(6), K, K, K, 1e-12)
        np.testing.assert_allclose(post.mu_star, y, atol=1e-5)
        assert np.all(post.sigma_star < 1e-5)

    def test_prior_reversion_with_zero_cross_covariance(self):
        rng = np.random.default_rng(7)
        n, p = 5, 3
        K_t = np.eye(n) * 2.0
        K_p = np.eye(p) * 1.5
        mu_p = rng.normal(size=p)
        post = gp_condition_dense(rng.normal(size=n), np.zeros(n), mu_p,
                                  K_t, np.zeros((n, p)), K_p, 0.3, full_cov=True)
        np.testing.assert_allclose(post.mu_star, mu_p, atol=1e-12)
        np.testing.assert_allclose(post.sigma_star, K_p, atol=1e-12)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, p = int(rng.integers(3, 9)), int(rng.integers(1, 6))
            y, mu_t, mu_p, K_t, K_c, K_p, s2 = self.random_problem(rng, n, p)
            post = gp_condition_dense(y, mu_t, mu_p, K_t, K_c, K_p, s2)
            assert np.all(post.sigma_star <= np.diag(K_p) + 1e-8)

    def test_diag_only_matches_full(self):
        rng = np.random.default_rng(9)
        y, mu_t, mu_p, K_t, K_c, K_p, s2 = self.random_problem(rng, 5, 4)
        full = gp_condition_dense(y, mu_t, mu_p, K_t, K_c, K_p, s2, full_cov=True)
        diag = gp_condition_dense(y, mu_t, mu_p, K_t, K_c, K_p, s2)
        assert diag.sigma_star.shape == (4,) and full.sigma_star.shape == (4, 4)
        np.testing.assert_allclose(diag.sigma_star, np.diag(full.sigma_star), atol=1e-12)
        np.testing.assert_allclose(diag.sd, np.sqrt(np.maximum(np.diag(full.sigma_star), 0)),
                                   atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(DataError):
            gp_condition_dense(np.ones(3), np.ones(4), np.ones(2),
                               np.eye(3), np.zeros((3, 2)), np.eye(2), 0.1)
        with pytest.raises(DataError, match="full covariance"):
            gp_condition_dense(np.ones(3), np.ones(3), np.ones(2),
                               np.eye(3), np.zeros((3, 2)), np.ones(2), 0.1,
                               full_cov=True)

    CONFORMAL = {"y": np.ones(3), "mean_train": np.zeros(3), "mean_pred": np.zeros(4),
                 "K_train": np.eye(3), "K_cross": np.zeros((3, 4)), "K_pred": np.ones(4)}

    @pytest.mark.parametrize("key, value", [
        ("K_train", np.ones((3, 4))),
        ("K_cross", np.zeros(3)),                                   # 1-D
        ("K_cross", blocks_of_shape(lambda w: 3)),                  # a 1-D block
        ("K_cross", blocks_of_shape(lambda w: (2, w))),             # a block without n rows
        ("K_cross", blocks_of_shape(lambda w: (3, w - 1))),         # narrower than asked
        ("K_cross", blocks_of_shape(lambda w: (3, w + 1))),         # wider than asked
        ("K_pred", np.ones(1)),                 # would broadcast to every point
        ("K_pred", np.ones(5)),
        ("K_pred", np.ones((4, 3))),
    ])
    def test_non_conformal_shapes_are_data_errors(self, key, value):
        args = {**self.CONFORMAL, key: value}
        with pytest.raises(DataError, match="non-conformal shapes"):
            gp_condition_dense(**args, sigma_e2=0.1)

    @pytest.mark.parametrize("width", [
        2 * gp.SLAB + 1,                    # one array with an extra column
    ])
    def test_blocks_off_the_slab_cut_are_data_errors(self, width):
        # 2 SLAB points; every SLAB-wide view of the array is conformal, so only
        # the up-front check of the whole array can refuse it
        p = 2 * gp.SLAB
        args = {**self.CONFORMAL, "mean_pred": np.zeros(p), "K_cross": np.zeros((3, width)),
                "K_pred": np.ones(p)}
        with pytest.raises(DataError, match="non-conformal shapes"):
            gp_condition_dense(**args, sigma_e2=0.1)

    def test_blocks_concatenate_to_one_array(self):
        rng = np.random.default_rng(10)
        p = 2 * gp.SLAB + 9
        y, mu_t, mu_p, K_t, K_c, K_p, s2 = self.random_problem(rng, 6, p)
        whole = gp_condition_dense(y, mu_t, mu_p, K_t, K_c, np.diag(K_p), s2)
        blocks = gp_condition_dense(y, mu_t, mu_p, K_t, lambda lo, hi: K_c[:, lo:hi].copy(),
                                    np.diag(K_p), s2)
        np.testing.assert_allclose(blocks.mu_star, whole.mu_star, rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocks.sigma_star, whole.sigma_star, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma_e2", [1e-2, 1e-4, 1e-6])
    def test_matches_scipys_cholesky_solves(self, sigma_e2):
        # nuggets down to 1e-6, near the sigma_e2 -> 0 boundary a GP member can fit
        rng = np.random.default_rng(int(-math.log10(sigma_e2)))
        n, p = 150, 260
        for _ in range(3):
            train, pred = random_points(rng, n), random_points(rng, p)
            prm = params_of(kappa=float(rng.uniform(1.0, 6.0)), tau=float(rng.uniform(0.3, 3.0)),
                            sigma_e2=sigma_e2, phi=float(rng.uniform(-0.9, 0.9)))
            ref = float(train[:, 1].mean())
            y, mean_pred = rng.normal(size=n), rng.normal(size=p)
            K, K_cross = cov_block(train, train, prm, ref), cov_block(train, pred, prm, ref)
            prior = np.full(p, 1.0 / prm.tau)
            post = gp_condition_dense(y, 0.3 * y, mean_pred, K, K_cross, prior, sigma_e2)
            S = K + (sigma_e2 + post.train["jitter"]) * np.eye(n)
            factor = scipy.linalg.cho_factor(S, lower=True)
            mu = mean_pred + K_cross.T @ scipy.linalg.cho_solve(factor, 0.7 * y)
            V = scipy.linalg.solve_triangular(np.tril(factor[0]), K_cross, lower=True)
            var = prior - np.sum(V * V, axis=0)
            assert np.max(np.abs(post.mu_star - mu)) <= 1e-11 * np.max(np.abs(mu))
            assert np.max(np.abs(post.sigma_star - var)) <= 1e-13 / prm.tau

    def test_full_cov_refuses_blocks(self):
        args = {**self.CONFORMAL, "K_cross": lambda lo, hi: np.zeros((3, hi - lo)),
                "K_pred": np.eye(4)}
        with pytest.raises(DataError, match="full_cov needs K_cross as one array"):
            gp_condition_dense(**args, sigma_e2=0.1, full_cov=True)

    def test_the_conditioning_asks_for_slab_blocks_in_point_order(self):
        rng = np.random.default_rng(11)
        p = 137
        y, mu_t, mu_p, K_t, K_c, K_p, s2 = self.random_problem(rng, 6, p)
        asked = []

        def cross(lo, hi):
            asked.append((lo, hi))
            return K_c[:, lo:hi]
        gp_condition_dense(y, mu_t, mu_p, K_t, cross, np.diag(K_p), s2)
        assert asked == [(0, 64), (64, 128), (128, 137)]


class TestPrecisionConditioning:
    def setup_problem(self, n_months=2, sigma_e2=0.2, seed=10):
        geo = GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.1,
                           n_lon=4, n_lat=4)
        prm = params_of(kappa=3.0, tau=1.0, phi=0.5)
        spre0 = lattice_gmrf_precision(geo, prm, n_months=n_months)
        rng = np.random.default_rng(seed)
        n_latent = spre0.Q.shape[0]
        obs_sites = rng.choice(n_latent, size=10, replace=False)
        A = sp.csr_matrix((np.ones(10), (np.arange(10), obs_sites)),
                          shape=(10, n_latent))
        spre = SparsePrecision(Q=spre0.Q, A=A)
        mu = rng.normal(size=n_latent) * 0.3
        y = rng.normal(size=10)
        return spre, mu, y, obs_sites, sigma_e2

    def test_matches_dense_conditioning_through_selection(self):
        spre, mu, y, obs, s2 = self.setup_problem()
        post = gp_condition_precision(spre, y, mu, s2)
        C = np.linalg.inv(spre.Q.toarray())
        mu_star, sigma_star = brute_force_condition(
            y, mu[obs], mu, C[np.ix_(obs, obs)], C[obs, :], C, s2)
        np.testing.assert_allclose(post.mu_star, mu_star, atol=1e-6)
        np.testing.assert_allclose(post.sigma_star, np.diag(sigma_star), atol=1e-6)

    def test_zero_residual_returns_prior_mean(self):
        spre, mu, _, obs, s2 = self.setup_problem()
        y = mu[obs]
        post = gp_condition_precision(spre, y, mu, s2)
        np.testing.assert_allclose(post.mu_star, mu, atol=1e-10)

    def test_tiny_noise_near_interpolates(self):
        spre, mu, _, obs, _ = self.setup_problem()
        y = mu[obs] + 0.7
        post = gp_condition_precision(spre, y, mu, 1e-10)
        np.testing.assert_allclose(post.mu_star[obs], y, atol=1e-4)

    def test_shape_errors(self):
        spre, mu, y, _, s2 = self.setup_problem()
        with pytest.raises(DataError):
            gp_condition_precision(spre, y[:-1], mu, s2)
        with pytest.raises(DataError):
            gp_condition_precision(spre, y, mu, -1.0)


class TestLogMarginalLikelihood:
    def test_standard_normal_at_mean(self):
        val = log_marginal_likelihood(np.array([0.0]), np.array([0.0]),
                                      np.array([[0.0]]), 1.0)
        assert val == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_doubling_residual_decreases(self):
        rng = np.random.default_rng(11)
        pts = random_points(rng, 5)
        K = build_joint_cov(pts, params_of())
        r = rng.normal(size=5)
        a = log_marginal_likelihood(r, np.zeros(5), K, 0.3)
        b = log_marginal_likelihood(2 * r, np.zeros(5), K, 0.3)
        assert b < a

    def test_matches_hand_rolled_density(self):
        # independent oracle: explicit inverse and slogdet, no Cholesky
        rng = np.random.default_rng(12)
        for n in (2, 3, 6):
            pts = random_points(rng, n)
            prm = params_of(kappa=2.0, tau=1.5, phi=0.4, sigma_e2=0.2)
            K = cov_block(pts, pts, prm, float(pts[:, 1].mean()))
            y = rng.normal(size=n)
            mu = rng.normal(size=n)
            S = K + prm.sigma_e2 * np.eye(n)
            r = y - mu
            direct = -0.5 * r @ np.linalg.inv(S) @ r \
                     - 0.5 * np.linalg.slogdet(S)[1] - 0.5 * n * math.log(2 * math.pi)
            assert log_marginal_likelihood(y, mu, K, prm.sigma_e2) == \
                pytest.approx(direct, abs=1e-10)


class TestRawCodec:
    def test_softmax_pinned_basics(self):
        np.testing.assert_allclose(_softmax_pinned(np.array([])), [1.0])
        np.testing.assert_allclose(_softmax_pinned(np.array([0.0])), [0.5, 0.5])
        w = _softmax_pinned(np.array([1.0, -2.0]))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)

    def test_round_trip_free_params(self):
        codec = _RawCodec(3, None)
        p = params_of(kappa=2.5, tau=0.7, sigma_e2=0.3, phi=-0.4,
                      beta=(0.2, 0.5, 0.3))
        q = codec.unpack(codec.pack(p))
        assert q.log_kappa == pytest.approx(p.log_kappa, abs=1e-12)
        assert q.log_tau == pytest.approx(p.log_tau, abs=1e-12)
        assert q.sigma_e2 == pytest.approx(p.sigma_e2, rel=1e-12)
        assert q.phi == pytest.approx(p.phi, abs=1e-12)
        np.testing.assert_allclose(q.beta, p.beta, atol=1e-10)

    def test_fixed_values_survive(self):
        codec = _RawCodec(2, {"phi": 0.0, "sigma_e2": 0.25})
        p = params_of(beta=(0.5, 0.5), phi=0.0, sigma_e2=0.25)
        raw = codec.pack(p)
        assert raw.size == 2 + 1   # log_kappa, log_tau, one beta logit
        q = codec.unpack(raw + 0.3)
        assert q.phi == 0.0
        assert q.sigma_e2 == 0.25

    def test_single_column_beta_pinned(self):
        codec = _RawCodec(1, None)
        q = codec.unpack(codec.pack(params_of()))
        np.testing.assert_array_equal(q.beta, [1.0])

    def test_unknown_fixed_key_rejected(self):
        with pytest.raises(ConfigError, match=r"gp.fixed: unknown key\(s\) \['range'\]"):
            _RawCodec(1, {"range": 2.0})

    def test_integer_gp_option_key_named_beside_a_text_key(self):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['1', 'restart'\]"):
            gp.check_gp_options({1: 2, "restart": 1}, 1)

    def test_fixable_tuple_stable(self):
        assert FIXABLE == ("log_kappa", "log_tau", "sigma_e2", "phi", "beta")

    @pytest.mark.parametrize("key", ["log_kappa", "log_tau"])
    def test_log_scales_bounded_at_700(self, key):
        # the range check is the only bound on a raw log scale: unpack maps it
        # exactly, and kappa and tau stay finite in every model that passes
        codec = _RawCodec(1, None)
        raw = codec.pack(params_of())
        for sign in (1.0, -1.0):
            raw[codec.free.index(key)] = sign * 700.0
            params = codec.unpack(raw)
            assert getattr(params, key) == sign * 700.0
            assert np.isfinite([params.kappa, params.tau]).all()
            raw[codec.free.index(key)] = sign * 1e6
            with pytest.raises(DataError, match=rf"{key} must be a finite real in \[-700, 700\]"):
                codec.unpack(raw)
            with pytest.raises(DataError, match=rf"{key} must be a finite real in \[-700, 700\]"):
                replace(params, **{key: sign * 700.5})
        with pytest.raises(ConfigError, match=f"gp.fixed.{key}"):
            _RawCodec(1, {key: 1e308})


class TestDefaultInit:
    def test_sensible_starting_point(self):
        rng = np.random.default_rng(13)
        pts = random_points(rng, 30, extent=0.9)
        basis = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        init = default_init(y, basis @ [0.5, 0.5], pts, 2)
        assert 0 < init.sigma_e2
        assert abs(init.phi) < 1
        assert math.sqrt(2.0) / init.kappa == pytest.approx(0.3, rel=0.5)   # the range rho

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_variance_suggests_rescaling(self):
        pts = random_points(np.random.default_rng(14), 6)
        y = np.full(6, 1e200)
        with pytest.raises(NumericalError, match="rescale"):
            default_init(y, np.full(6, -1e200), pts, 1)


class TestFitHyperparams:
    def make_data(self, seed=15, n=40):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, n)
        basis = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
        y = basis @ [0.6, 0.4] + rng.normal(size=n) * 0.3
        return y, basis, pts

    def test_preconditions(self):
        y, basis, pts = self.make_data()
        with pytest.raises(DataError, match="at least 5"):
            fit_hyperparams(y[:4], basis[:4], pts[:4])
        with pytest.raises(DataError, match="n x L"):
            fit_hyperparams(y, basis[:, 0], pts)
        with pytest.raises(DataError, match="n x L"):
            fit_hyperparams(y, basis[:, :0], pts)

    def test_single_column_pins_beta(self):
        y, basis, pts = self.make_data()
        params = fit_hyperparams(y, basis[:, :1], pts, restarts=1, max_iter=60)
        np.testing.assert_array_equal(params.beta, [1.0])

    def test_fixed_values_pinned_exactly(self):
        y, basis, pts = self.make_data()
        params = fit_hyperparams(y, basis, pts, restarts=1, max_iter=40,
                                 fixed={"phi": 0.0, "log_kappa": 1.5})
        assert params.phi == 0.0
        assert params.log_kappa == 1.5

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    def test_fixed_everything_skips_optimiser(self, monkeypatch, fit):
        y, basis, pts = self.make_data()

        def no_minimize(*args, **kwargs):
            raise AssertionError("gp.minimize called")
        monkeypatch.setattr(gp, "minimize", no_minimize)
        fitted = fit(y, basis[:, :1], pts, fixed={
            "log_kappa": 0.5, "log_tau": 0.1, "sigma_e2": 0.2, "phi": 0.3})
        params = fitted if fit is fit_hyperparams else fitted.params
        assert (params.log_kappa, params.log_tau) == (0.5, 0.1)
        assert (params.sigma_e2, params.phi) == (0.2, 0.3)
        # kappa d / tau overflows at this pinned point, so it cannot be evaluated
        with pytest.raises(NumericalError, match=rf"^{fit.__name__}: objective non-finite"):
            fit(y, basis[:, :1], pts, fixed={
                "log_kappa": 700.0, "log_tau": -20.0, "sigma_e2": 0.2, "phi": 0.3})

    @pytest.mark.parametrize("fit, fixed, key", [
        (fit_hyperparams, {"phi": 2.0}, "phi"),
        (fit_hyperparams, {"sigma_e2": -1.0}, "sigma_e2"),
        (fit_hyperparams, {"log_kappa": float("nan")}, "log_kappa"),
        (fit_hyperparams, {"beta": [0.2, 0.3, 0.5]}, "beta"),   # two mean columns
        (fit_hyperparams, {"phi": "abc"}, "phi"),
        (fit_hyperparams, {"beta": [0, 0]}, "beta"),
        (fit_hyperparams, {"beta": [-1, 2]}, "beta"),
        (fit_gp_linear_mean, {"beta": [1, 2]}, "beta"),           # one GLS mean
        (fit_gp_linear_mean, {"phi": 2.0}, "phi"),
    ])
    def test_bad_pinned_value_is_config_error_naming_key(self, fit, fixed, key):
        y, basis, pts = self.make_data()
        with pytest.raises(ConfigError, match=rf"gp\.fixed\.{key} must be"):
            fit(y, basis, pts, fixed=fixed, restarts=1, max_iter=20)

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    def test_empty_non_mapping_pins_refused(self, fit):
        # an empty list once fitted as if no pins were given
        y, basis, pts = self.make_data()
        with pytest.raises(ConfigError, match=r"^gp\.fixed must be a mapping, got \[\]$"):
            fit(y, basis, pts, fixed=[], restarts=1, max_iter=20)

    def test_beta_lands_on_simplex(self):
        y, basis, pts = self.make_data()
        params = fit_hyperparams(y, basis, pts, restarts=1, max_iter=80)
        assert np.all(params.beta >= 0)
        assert params.beta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_improves_on_init(self):
        y, basis, pts = self.make_data()
        init = default_init(y, basis @ [0.5, 0.5], pts, 2)
        fitted = fit_hyperparams(y, basis, pts, restarts=1, max_iter=150)

        def ll(p):
            K = cov_block(pts, pts, p, float(pts[:, 1].mean()))
            return log_marginal_likelihood(y, basis @ p.beta, K, p.sigma_e2)

        assert ll(fitted) >= ll(init) - 1e-9

    def test_twin_columns_leave_predictions_invariant(self):
        rng = np.random.default_rng(16)
        pts = random_points(rng, 25)
        col = rng.normal(size=25)
        basis = np.column_stack([col, col])
        y = col + rng.normal(size=25) * 0.2
        params = fit_hyperparams(y, basis, pts, restarts=1, max_iter=60)
        flipped = GpHyperParams(log_kappa=params.log_kappa, log_tau=params.log_tau,
                                sigma_e2=params.sigma_e2, phi=params.phi,
                                beta=params.beta[::-1].copy())
        np.testing.assert_allclose(basis @ params.beta, basis @ flipped.beta,
                                   atol=1e-12)


PINNED = {"log_kappa": 1.0, "log_tau": 0.0, "sigma_e2": 0.2, "phi": 0.3,
          "beta": [0.2, 0.3, 0.5]}


class TestLmlGradient:
    """Both fits hand the optimizer the exact gradient of their objective."""

    def problem(self, L=3, n=30, seed=45):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, n)
        basis = rng.normal(size=(n, L))
        y = basis @ np.full(L, 1.0 / L) + rng.normal(size=n) * 0.4
        return y, basis, pts, rng

    def handed_to_optimizer(self, monkeypatch, fit, y, basis, pts, fixed):
        """(fun, jac, x0) of the fit's one optimizer run, which is skipped."""
        seen = []

        def capture(fun, x0, jac=None, **kwargs):
            seen.append((fun, jac, np.array(x0)))
            return OptimizeResult(x=x0, fun=fun(x0))
        monkeypatch.setattr(gp, "minimize", capture)
        fit(y, basis, pts, fixed=fixed, restarts=1)
        (run,) = seen
        return run

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    @pytest.mark.parametrize("L, pinned", [
        (3, ()), (3, ("phi",)), (3, ("beta",)), (1, ()),
        (3, ("log_tau", "sigma_e2", "phi", "beta")),
        (3, ("log_kappa", "sigma_e2", "phi", "beta")),
        (3, ("log_kappa", "log_tau", "phi", "beta")),
        (3, ("log_kappa", "log_tau", "sigma_e2", "beta")),
    ])
    def test_matches_central_differences(self, monkeypatch, fit, L, pinned):
        y, basis, pts, rng = self.problem(L=L)
        # the plain GP's mean is a GLS fit, so it has no beta to pin
        fixed = {key: PINNED[key] for key in pinned
                 if key != "beta" or fit is fit_hyperparams}
        fun, jac, x0 = self.handed_to_optimizer(monkeypatch, fit, y, basis, pts, fixed)
        assert x0.size >= 1
        h = 1e-5
        for x in [x0] + [x0 + rng.normal(scale=0.3, size=x0.size) for _ in range(3)]:
            assert fun(x) < gp.PENALTY
            fd = np.array([(fun(x + h * e) - fun(x - h * e)) / (2 * h)
                           for e in np.eye(x.size)])
            assert np.linalg.norm(jac(x) - fd) <= 1e-5 * np.linalg.norm(fd), (x, jac(x), fd)

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    @pytest.mark.parametrize("at", [
        {3: 40.0},                   # atanh phi: tanh rounds to phi = 1, off the range
        {0: 700.0, 1: -20.0},        # kappa d / tau overflows: inf * K1 = inf * 0 off the diagonal
        {0: 700.5},                  # log kappa off its range
        {1: -700.5},                 # log tau off its range
        {2: 710.0},                  # exp(log sigma_e2) overflows
    ])
    def test_failed_evaluation_is_penalty_with_zero_gradient(self, monkeypatch, fit, at):
        y, basis, pts, _ = self.problem()
        fun, jac, x0 = self.handed_to_optimizer(monkeypatch, fit, y, basis, pts, {})
        x = x0.copy()
        x[list(at)] = list(at.values())
        assert fun(x) == gp.PENALTY
        np.testing.assert_array_equal(jac(x), np.zeros(x.size))

    def test_both_fits_converge_within_150_iterations(self, monkeypatch):
        y, basis, pts, _ = self.problem(n=40, seed=15)
        runs = []
        real_minimize = gp.minimize

        def recording(*args, **kwargs):
            runs.append(real_minimize(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(gp, "minimize", recording)
        for fit in (fit_hyperparams, fit_gp_linear_mean):
            runs.clear()
            fit(y, basis, pts, restarts=2, max_iter=150, seed=0)
            assert len(runs) == 2, fit.__name__
            assert all(run.success for run in runs), [run.message for run in runs]

    @pytest.mark.parametrize("seed", range(6))
    def test_fits_reach_scipys_lbfgsb_optimum(self, monkeypatch, seed):
        # scipy is the oracle here only; the fits run gp.minimize (lbfgs.minimize)
        y, basis, pts, _ = self.problem(n=40, seed=seed)

        def scipy_lbfgsb(fun, x0, jac, max_iter):
            return scipy.optimize.minimize(fun, x0, jac=jac, method="L-BFGS-B",
                                           options={"maxiter": max_iter})

        def best_neg_lml(fit, minimize):
            runs = []

            def recording(*args, **kwargs):
                runs.append(minimize(*args, **kwargs))
                return runs[-1]
            monkeypatch.setattr(gp, "minimize", recording)
            fit(y, basis, pts)
            assert all(run.success for run in runs), fit.__name__
            return min(run.fun for run in runs)

        ours = gp.minimize
        for fit in (fit_hyperparams, fit_gp_linear_mean):
            theirs = best_neg_lml(fit, scipy_lbfgsb)
            assert best_neg_lml(fit, ours) <= theirs + 1e-6, fit.__name__


class TestLinearMeanGp:
    def test_recovers_linear_trend_exactly_with_fixed_kernel(self):
        rng = np.random.default_rng(17)
        n = 30
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = 2.0 + 3.0 * X[:, 0] - 1.0 * X[:, 1]
        model = fit_gp_linear_mean(
            y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                              "sigma_e2": 1.0, "phi": 0.0})
        np.testing.assert_allclose(model.mean_train, y, atol=1e-8)

    def test_beta_always_single_one(self):
        rng = np.random.default_rng(18)
        pts = random_points(rng, 20)
        X = rng.normal(size=(20, 2))
        y = X[:, 0] + rng.normal(size=20) * 0.1
        model = fit_gp_linear_mean(y, X, pts, restarts=1, max_iter=40)
        np.testing.assert_array_equal(model.params.beta, [1.0])


class TestFitInputs:
    """Both fits check their inputs once, before any geometry is built."""

    def make_data(self, n=12):
        rng = np.random.default_rng(44)
        return rng.normal(size=n), rng.normal(size=(n, 2)), random_points(rng, n)

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    def test_points_row_count_must_match_y(self, fit):
        y, X, pts = self.make_data()
        with pytest.raises(DataError, match=rf"{fit.__name__}: points must have one row "
                                            r"per observation \(n = 12\), got 11"):
            fit(y, X, pts[:-1])

    def test_plain_gp_covariate_row_count_must_match_y(self):
        y, X, pts = self.make_data()
        with pytest.raises(DataError, match=r"fit_gp_linear_mean: X \(n x p\) must have one row"):
            fit_gp_linear_mean(y, X[:-1], pts)

    def test_plain_gp_needs_five_observations(self):
        y, X, pts = self.make_data()
        with pytest.raises(DataError, match="fit_gp_linear_mean needs at least 5 observations"):
            fit_gp_linear_mean(y[:4], X[:4], pts[:4])

    @pytest.mark.parametrize("fit", [fit_hyperparams, fit_gp_linear_mean])
    def test_non_finite_point_refused_naming_fit_and_row(self, fit):
        y, X, pts = self.make_data()
        pts[3, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no RuntimeWarning before the refusal
            with pytest.raises(DataError, match=rf"{fit.__name__}: points row 3 is not finite"):
                fit(y, X, pts)


class TestStackedGpModel:
    def make_model(self, seed=19, n=20, L=2, sigma_e2=0.2):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, n)
        P = rng.normal(size=(n, L))
        beta = np.full(L, 1.0 / L)
        y = P @ beta + rng.normal(size=n) * 0.3
        prm = params_of(kappa=2.0, tau=1.0, sigma_e2=sigma_e2, phi=0.4, beta=beta)
        return StackedGpModel(params=prm, train_points=pts, P_train=P, y=y), rng

    def test_round_trip(self):
        model, rng = self.make_model()
        clone = StackedGpModel.from_dict(model.to_dict())
        pts_new = random_points(rng, 7)
        P_new = rng.normal(size=(7, 2))
        a = gp_stacked_predict(model, P_new, pts_new)
        b = gp_stacked_predict(clone, P_new, pts_new)
        np.testing.assert_array_equal(a.mu_star, b.mu_star)
        np.testing.assert_array_equal(a.sigma_star, b.sigma_star)

    def test_ref_lat_is_the_training_points_mean_latitude_not_an_argument(self):
        model, _ = self.make_model()
        assert model.ref_lat == float(model.train_points[:, 1].mean())
        assert model.to_dict()["ref_lat"] == model.ref_lat
        with pytest.raises(TypeError, match="ref_lat"):
            StackedGpModel(params=model.params, train_points=model.train_points,
                           P_train=model.P_train, y=model.y, ref_lat=0.0)

    @pytest.mark.parametrize("stored", [lambda lat: None, lambda lat: "x", lambda lat: True,
                                        lambda lat: 0.0, lambda lat: lat + 1e-9])
    def test_stored_ref_lat_must_be_the_training_points_mean_latitude(self, stored):
        model, _ = self.make_model()
        d = model.to_dict()
        d["ref_lat"] = model.ref_lat * (1 + 1e-15)     # last-digit noise is tolerated
        assert StackedGpModel.from_dict(d).ref_lat == model.ref_lat
        d["ref_lat"] = stored(model.ref_lat)
        with pytest.raises(DataError, match="mean latitude"):
            StackedGpModel.from_dict(d)

    @pytest.mark.parametrize("field", ["y", "P_train", "train_points"])
    def test_non_finite_array_is_refused(self, field):
        model, _ = self.make_model()
        d = model.to_dict()
        d[field][3] = np.inf if field == "y" else [np.nan] * len(d[field][3])
        with pytest.raises(DataError, match=f"{field} holds a non-finite value"):
            StackedGpModel.from_dict(d)

    def test_column_count_schema_error(self):
        model, rng = self.make_model()
        with pytest.raises(SchemaError, match="columns"):
            gp_stacked_predict(model, np.ones((4, 3)), random_points(rng, 4))

    def test_row_mismatch(self):
        model, rng = self.make_model()
        with pytest.raises(DataError):
            gp_stacked_predict(model, np.ones((4, 2)), random_points(rng, 5))

    def test_non_finite_prediction_point_refused(self):
        model, rng = self.make_model()
        pts_new = random_points(rng, 4)
        pts_new[2, 0] = np.nan
        with pytest.raises(DataError, match="points row 2 is not finite"):
            gp_stacked_predict(model, rng.normal(size=(4, 2)), pts_new)

    def test_zero_residual_returns_stacked_mean(self):
        model, rng = self.make_model()
        model.y = model.P_train @ model.params.beta   # perfect mean
        pts_new = random_points(rng, 6)
        P_new = rng.normal(size=(6, 2))
        post = gp_stacked_predict(model, P_new, pts_new)
        np.testing.assert_allclose(post.mu_star, P_new @ model.params.beta,
                                   atol=1e-10)

    def test_identical_columns_mean_independent_of_beta(self):
        rng = np.random.default_rng(20)
        pts = random_points(rng, 15)
        col = rng.normal(size=15)
        P = np.column_stack([col, col])
        y = col + rng.normal(size=15) * 0.2
        outs = []
        for beta in ([0.5, 0.5], [0.9, 0.1]):
            prm = params_of(beta=beta)
            model = StackedGpModel(params=prm, train_points=pts, P_train=P, y=y)
            pts_new = random_points(np.random.default_rng(21), 5)
            P_new_col = np.random.default_rng(22).normal(size=5)
            P_new = np.column_stack([P_new_col, P_new_col])
            outs.append(gp_stacked_predict(model, P_new, pts_new).mu_star)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)

    def test_composition_matches_hand_assembled_conditioning(self):
        model, rng = self.make_model()
        # tau != 1 so that the constant prior variance 1/tau is not trivially 1
        model.params = replace(model.params, log_tau=math.log(0.7))
        pts_new = random_points(rng, 5)
        P_new = rng.normal(size=(5, 2))
        post = gp_stacked_predict(model, P_new, pts_new)
        prm = model.params
        K_t = cov_block(model.train_points, model.train_points, prm, model.ref_lat)
        K_c = cov_block(model.train_points, pts_new, prm, model.ref_lat)
        K_p = cov_block(pts_new, pts_new, prm, model.ref_lat)
        direct = gp_condition_dense(model.y, model.P_train @ prm.beta,
                                    P_new @ prm.beta, K_t, K_c, K_p, prm.sigma_e2)
        np.testing.assert_array_equal(post.mu_star, direct.mu_star)
        np.testing.assert_array_equal(post.sigma_star, direct.sigma_star)


class TestPlainGpModel:
    def test_fit_predict_round_trip(self):
        rng = np.random.default_rng(23)
        n = 25
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = 1.0 + X[:, 0] + rng.normal(size=n) * 0.2
        model = fit_gp_linear_mean(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                     "sigma_e2": 0.5, "phi": 0.0})
        clone = PlainGpModel.from_dict(model.to_dict())
        X_new = rng.normal(size=(6, 2))
        pts_new = random_points(rng, 6)
        a = plain_gp_predict(model, X_new, pts_new)
        b = plain_gp_predict(clone, X_new, pts_new)
        np.testing.assert_array_equal(a.mu_star, b.mu_star)
        np.testing.assert_array_equal(a.sigma_star, b.sigma_star)

    def fitted(self):
        rng = np.random.default_rng(25)
        pts = random_points(rng, 20)
        X = rng.normal(size=(20, 2))
        return fit_gp_linear_mean(X[:, 0], X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                          "sigma_e2": 0.5, "phi": 0.0})

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d.update(mean_state=[1, 2]), "mean_state must be a mapping"),
        (lambda d: d["y"].__setitem__(0, np.nan), "y holds a non-finite"),
        (lambda d: d["X_train"][0].__setitem__(1, np.inf), "X_train holds a non-finite"),
        (lambda d: d["mean_state"]["coef"].__setitem__(0, np.nan), "coef holds a non-finite"),
        (lambda d: d["mean_state"]["x_sd"].__setitem__(0, 0.0), "mean_train holds a non-finite"),
        (lambda d: d["mean_state"]["coef"].__setitem__(2, 1e308), "mean_train holds a non-finite"),
        (lambda d: d.update(ref_lat=d["ref_lat"] + 0.5), "mean latitude"),
    ], ids=["mean_state-list", "y", "X_train", "coef", "x_sd-zero", "coef-overflow", "ref_lat"])
    def test_damaged_model_is_refused(self, edit, match):
        d = self.fitted().to_dict()
        PlainGpModel.from_dict(d)
        edit(d)
        with pytest.raises(DataError, match=match):
            PlainGpModel.from_dict(d)

    def test_prediction_schema_errors(self):
        rng = np.random.default_rng(24)
        pts = random_points(rng, 20)
        X = rng.normal(size=(20, 2))
        y = X[:, 0]
        model = fit_gp_linear_mean(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                     "sigma_e2": 0.5, "phi": 0.0})
        with pytest.raises(SchemaError):
            plain_gp_predict(model, np.ones((3, 5)), random_points(rng, 3))
        with pytest.raises(DataError):
            plain_gp_predict(model, np.ones((3, 2)), random_points(rng, 4))


class TestOneFactorOfS:
    """S = K + sigma_e2 I is formed and factored in one function, gp._factor_s."""

    def test_every_gp_path_factors_s_through_one_function(self, monkeypatch):
        rng = np.random.default_rng(48)
        n = 24
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = X @ [0.6, 0.4] + rng.normal(size=n) * 0.3
        stacked = StackedGpModel(params=params_of(beta=(0.5, 0.5)), train_points=pts,
                                 P_train=X, y=y)
        plain = fit_gp_linear_mean(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                     "sigma_e2": 0.5, "phi": 0.0})
        # every Cholesky of a GP path goes through the jitter ladder; each must come
        # from _factor_s
        calls = {"_factor_s": 0, "_chol_with_jitter": 0}
        for name in calls:
            def counting(*args, _real=getattr(gp, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(gp, name, counting)
        paths = {
            "fit_hyperparams": lambda: fit_hyperparams(y, X, pts, restarts=1, max_iter=3),
            "fit_gp_linear_mean": lambda: fit_gp_linear_mean(y, X, pts, restarts=1, max_iter=3),
            "fold_oof_gp": lambda: fold_oof_gp(stacked, X @ stacked.params.beta,
                                               make_folds(n, 4, seed=3)),
            "gp_stacked_predict": lambda: gp_stacked_predict(stacked, X[:5], pts[:5]),
            "plain_gp_predict": lambda: plain_gp_predict(plain, X[:5], pts[:5]),
        }
        for name, run in paths.items():
            calls.update(dict.fromkeys(calls, 0))
            run()
            assert calls["_factor_s"] > 0, name
            assert calls["_factor_s"] == calls["_chol_with_jitter"], (name, calls)

    @staticmethod
    def count_calls(monkeypatch, *names, n=None):
        """Calls of each gp function in names; _tri_inv counts only n x n inverses,
        not the halves it recurses into."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _real=getattr(gp, name), _name=name, **kwargs):
                if _name != "_tri_inv" or len(args[0]) == n:
                    calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(gp, name, counting)
        return calls

    def test_conditioning_factors_and_inverts_once_and_solves_nothing(self, monkeypatch):
        rng = np.random.default_rng(73)
        n, p = 90, 300      # five blocks of SLAB points
        train, pred = random_points(rng, n), random_points(rng, p)
        P = rng.normal(size=(n, 2))
        model = StackedGpModel(params=params_of(kappa=2.5, tau=0.8, sigma_e2=0.2, phi=0.6,
                                                beta=(0.4, 0.6)),
                               train_points=train, P_train=P, y=P[:, 0])

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        calls = self.count_calls(monkeypatch, "_factor_s", "_tri_inv", "gp_condition_dense", n=n)
        gp_stacked_predict(model, rng.normal(size=(p, 2)), pred)
        assert calls == {"_factor_s": 1, "_tri_inv": 1, "gp_condition_dense": 1}

    def test_plain_gp_factors_s_once_per_evaluation(self, monkeypatch):
        rng = np.random.default_rng(79)
        n = 40
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = X @ [0.6, 0.4] + rng.normal(size=n) * 0.3
        calls = self.count_calls(monkeypatch, "_factor_s", "log_marginal_likelihood")
        fit_gp_linear_mean(y, X, pts, restarts=1, max_iter=5)
        # one factor per evaluation, and one for the GLS mean at the optimum
        assert calls["log_marginal_likelihood"] > 1
        assert calls["_factor_s"] == calls["log_marginal_likelihood"] + 1

    def test_a_passed_factor_gives_the_likelihood_bytes(self):
        rng = np.random.default_rng(83)
        n = 50
        pts = random_points(rng, n)
        prm = params_of(kappa=2.0, tau=0.9, sigma_e2=0.3, phi=0.4)
        K, dS = _train_kernel(pts)(prm)
        y, mean = rng.normal(size=n), rng.normal(size=n)
        keys = ("log_kappa", "log_tau", "sigma_e2", "phi")
        own = log_marginal_likelihood(y, mean, K, prm.sigma_e2, map(dS, keys))
        passed = log_marginal_likelihood(y, mean, K, prm.sigma_e2, map(dS, keys),
                                         factor=gp._factor_s(K, prm.sigma_e2, "test"))
        assert own[0] == passed[0]
        assert own[1].tobytes() == passed[1].tobytes()
        assert own[2].tobytes() == passed[2].tobytes()


class TestOnePredictFunction:
    """The stacked and the plain GP predict through one function, gp._gp_predict."""

    def test_each_predict_reaches_the_shared_function_once_per_call(self, monkeypatch):
        rng = np.random.default_rng(49)
        n = 24
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = X @ [0.6, 0.4] + rng.normal(size=n) * 0.3
        stacked = StackedGpModel(params=params_of(beta=(0.5, 0.5)), train_points=pts,
                                 P_train=X, y=y)
        plain = fit_gp_linear_mean(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                                     "sigma_e2": 0.5, "phi": 0.0})
        calls = []

        def counting(model, *args, _real=gp._gp_predict):
            calls.append(model)
            return _real(model, *args)
        monkeypatch.setattr(gp, "_gp_predict", counting)
        for predict, model in ((gp_stacked_predict, stacked), (plain_gp_predict, plain)):
            calls.clear()
            post = predict(model, X[:5], pts[:5])
            assert calls == [model], predict.__name__
            assert post.mu_star.shape == (5,)
        # the mean at the training rows is the model's own, computed once on construction
        np.testing.assert_array_equal(stacked.mean_train, X @ stacked.params.beta)
        np.testing.assert_array_equal(plain.mean_train, plain.mean(X))


class TestPredictOverMonths:
    """One conditioning over a lattice at several months equals the hand-assembled one."""

    MONTHS = (5, 2, 4)      # unsorted on purpose

    def setup_case(self, rng, n_lon=5, n_lat=4, n_train=14, extent=0.4):
        geo = GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.1, n_lon=n_lon,
                           n_lat=n_lat)
        lons, lats = geo.cell_centers()
        train = random_points(rng, n_train, extent=extent)
        train[1:4, :2] = train[0, :2]       # four surveys at one site
        train[1:4, 2] = [0, 3, 5]
        pred = np.column_stack([np.tile(lons, len(self.MONTHS)), np.tile(lats, len(self.MONTHS)),
                                np.repeat(self.MONTHS, lons.size)])
        return train, pred[rng.permutation(len(pred))], lons.size

    def stacked(self, rng, train, pred):
        P = rng.normal(size=(len(train), 2))
        prm = params_of(kappa=3.0, tau=0.7, sigma_e2=0.2, phi=0.6, beta=(0.3, 0.7))
        model = StackedGpModel(params=prm, train_points=train, P_train=P,
                               y=P @ prm.beta + rng.normal(size=len(train)) * 0.3)
        P_pred = rng.normal(size=(len(pred), 2))
        return (gp_stacked_predict, model, P_pred,
                model.P_train @ prm.beta, P_pred @ prm.beta)

    def plain(self, rng, train, pred):
        X = rng.normal(size=(len(train), 2))
        state = {"x_mean": np.array([0.1, -0.2]), "x_sd": np.array([1.5, 0.8]),
                 "coef": np.array([0.3, 1.0, -0.5])}
        model = PlainGpModel(params=params_of(kappa=3.0, tau=0.7, sigma_e2=0.2, phi=-0.5),
                             mean_state=state, train_points=train, X_train=X,
                             y=X[:, 0] + rng.normal(size=len(train)) * 0.3)
        X_pred = rng.normal(size=(len(pred), 2))
        def linear(X):
            return state["coef"][0] + (X - state["x_mean"]) / state["x_sd"] @ state["coef"][1:]
        return plain_gp_predict, model, X_pred, linear(X), linear(X_pred)

    def predict_counted(self, predict, model, inputs, pred, monkeypatch):
        """predict(model, inputs, pred) and the Matern entries it evaluated."""
        entries = []

        def counted(D, kappa, tau):
            entries.append(np.size(D))
            return matern1_matrix(D, kappa, tau)
        with monkeypatch.context() as patch:
            patch.setattr(gp, "matern1_matrix", counted)
            post = predict(model, inputs, pred)
        return post, sum(entries)

    @pytest.mark.parametrize("build", ["stacked", "plain"])
    def test_equals_one_hand_assembled_conditioning(self, build, monkeypatch):
        rng = np.random.default_rng(53)
        train, pred, cells = self.setup_case(rng)
        predict, model, inputs, mean_train, mean_pred = getattr(self, build)(rng, train, pred)
        post, entries = self.predict_counted(predict, model, inputs, pred, monkeypatch)
        n = len(train)
        assert entries <= n * n + n * cells

        prm, ref = model.params, model.ref_lat
        direct = gp_condition_dense(model.y, mean_train, mean_pred,
                                    cov_block(train, train, prm, ref),
                                    cov_block(train, pred, prm, ref),
                                    cov_block(pred, pred, prm, ref), prm.sigma_e2)
        np.testing.assert_array_equal(post.mu_star, direct.mu_star)
        np.testing.assert_array_equal(post.sigma_star, direct.sigma_star)

    @pytest.mark.parametrize("build", ["stacked", "plain"])
    def test_many_blocks_equal_one_array(self, build, monkeypatch):
        # 23 x 19 cells at 3 months: 1311 points, a multiple of neither 4 nor
        # SLAB, so the last point block and the last site pass are both ragged
        rng = np.random.default_rng(59)
        train, pred, cells = self.setup_case(rng, n_lon=23, n_lat=19, n_train=200,
                                              extent=2.3)
        n, width = len(train), gp.SLAB
        assert len(pred) > 2 * width and cells > width
        assert len(pred) % 4 and len(pred) % width and cells % width
        predict, model, inputs, mean_train, mean_pred = getattr(self, build)(rng, train, pred)
        post, entries = self.predict_counted(predict, model, inputs, pred, monkeypatch)
        assert entries == n * n + n * cells

        prm, ref = model.params, model.ref_lat
        direct = gp_condition_dense(model.y, mean_train, mean_pred,
                                    cov_block(train, train, prm, ref),
                                    cov_block(train, pred, prm, ref),
                                    np.full(len(pred), 1.0 / prm.tau), prm.sigma_e2)
        np.testing.assert_array_equal(post.mu_star, direct.mu_star)
        np.testing.assert_array_equal(post.sigma_star, direct.sigma_star)


class TestBlockCuts:
    """The conditioning cuts K_cross once, into SLAB-wide blocks; each point has
    the same bytes whether it gets one array or a function of a column range."""

    @staticmethod
    def problem(rng, n: int, p: int) -> tuple:
        """gp_condition_dense's arguments for n training and p prediction points:
        K_cross as one array, K_pred as the prior variances."""
        train, pred = random_points(rng, n), random_points(rng, p)
        prm = params_of(kappa=2.5, tau=0.8, sigma_e2=0.2, phi=0.6)
        ref = float(train[:, 1].mean())
        y = rng.normal(size=n)
        return (y, 0.3 * y, rng.normal(size=p), cov_block(train, train, prm, ref),
                cov_block(train, pred, prm, ref), np.full(p, 1.0 / prm.tau), prm.sigma_e2)

    @pytest.mark.parametrize("n", [20, gp.SLAB + 26])
    @pytest.mark.parametrize("p", [37, 2 * gp.SLAB, 3 * gp.SLAB + 11])
    def test_slab_blocks_give_the_one_array_bytes(self, n, p):
        y, mean_train, mean_pred, K, K_cross, prior, s2 = self.problem(
            np.random.default_rng(67 + n + p), n, p)
        whole = gp_condition_dense(y, mean_train, mean_pred, K, K_cross, prior, s2)
        for cross in (lambda lo, hi: K_cross[:, lo:hi],
                      lambda lo, hi: np.ascontiguousarray(K_cross[:, lo:hi])):
            cut = gp_condition_dense(y, mean_train, mean_pred, K, cross, prior, s2)
            assert cut.mu_star.tobytes() == whole.mu_star.tobytes()
            assert cut.sigma_star.tobytes() == whole.sigma_star.tobytes()

    def test_a_point_has_the_same_bytes_however_many_points_follow_it(self):
        # the last block's product is zero-padded to SLAB columns, so no point's
        # product width depends on the number of points
        p = 3 * gp.SLAB
        y, mean_train, mean_pred, K, K_cross, prior, s2 = self.problem(
            np.random.default_rng(71), gp.SLAB + 26, p)
        whole = gp_condition_dense(y, mean_train, mean_pred, K, K_cross, prior, s2)
        for q in (3, gp.SLAB + 10, 2 * gp.SLAB + 17, p - 1):
            part = gp_condition_dense(y, mean_train, mean_pred[:q], K, K_cross[:, :q],
                                      prior[:q], s2)
            assert part.mu_star.tobytes() == whole.mu_star[:q].tobytes(), q
            assert part.sigma_star.tobytes() == whole.sigma_star[:q].tobytes(), q

    def test_prediction_blocks_are_slab_wide_and_concatenate_to_cov_block(self):
        rng = np.random.default_rng(69)
        train, pred = random_points(rng, 30), random_points(rng, 3 * gp.SLAB + 5)
        pred[gp.SLAB:, :2] = pred[:-gp.SLAB, :2]        # repeated sites
        P = rng.normal(size=(30, 2))
        model = StackedGpModel(params=params_of(kappa=2.5, tau=0.8, phi=0.6, beta=(0.4, 0.6)),
                               train_points=train, P_train=P, y=P[:, 0])
        cross = gp._cross_blocks(model, pred)
        whole = cov_block(train, pred, model.params, model.ref_lat)
        slabs = [cross(lo, min(lo + gp.SLAB, len(pred))) for lo in range(0, len(pred), gp.SLAB)]
        assert [b.shape[1] for b in slabs] == [gp.SLAB] * 3 + [5]
        assert np.concatenate(slabs, axis=1).tobytes() == whole.tobytes()
        for lo, hi in [(0, 1), (5, 70), (63, 197), (196, 197), (0, len(pred))]:     # ragged
            assert cross(lo, hi).tobytes() == np.ascontiguousarray(whole[:, lo:hi]).tobytes()


class TestPredictMemory:
    """Prediction memory grows linearly with the number of cells, not with its square,
    and by O(points), not O(n_train x points), with the number of months."""

    N_TRAIN = 30
    N_CELLS = 4000

    def stacked(self, rng):
        pts = random_points(rng, self.N_TRAIN)
        P = rng.normal(size=(self.N_TRAIN, 2))
        model = StackedGpModel(params=params_of(kappa=2.0, phi=0.4, beta=(0.5, 0.5)),
                               train_points=pts, P_train=P, y=P.mean(axis=1))
        return gp_stacked_predict, model, rng.normal(size=(self.N_CELLS, 2))

    def plain(self, rng):
        pts = random_points(rng, self.N_TRAIN)
        X = rng.normal(size=(self.N_TRAIN, 2))
        model = PlainGpModel(params=params_of(kappa=2.0, phi=0.4),
                             mean_state={"x_mean": np.zeros(2), "x_sd": np.ones(2),
                                         "coef": np.array([0.1, 1.0, -0.5])},
                             train_points=pts, X_train=X, y=X[:, 0])
        return plain_gp_predict, model, rng.normal(size=(self.N_CELLS, 2))

    @pytest.mark.parametrize("build", ["stacked", "plain"])
    def test_peak_memory_linear_in_cells(self, build):
        rng = np.random.default_rng(31)
        predict, model, inputs = getattr(self, build)(rng)
        pts_new = random_points(rng, self.N_CELLS)
        # a few n x p float64 blocks; a p x p block alone would be 128 MB
        bound = 16 * self.N_TRAIN * self.N_CELLS * 8
        tracemalloc.start()
        try:
            post = predict(model, inputs, pts_new)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.sd.shape == (self.N_CELLS,)
        assert peak < bound, f"peak {peak / 1e6:.1f} MB over the {bound / 1e6:.1f} MB bound"

    @pytest.mark.parametrize("build", ["stacked", "plain"])
    def test_peak_memory_flat_in_months(self, build):
        # the same cells at 1 and at 8 months: the Matern is evaluated once per
        # cell either way, and the cross-covariance is read in column blocks,
        # so the 7 added months cost O(points), not an n x (added points) block
        rng = np.random.default_rng(37)
        predict, model, _ = getattr(self, build)(rng)
        cells = random_points(rng, self.N_CELLS)[:, :2]
        peaks = []
        for months in (1, 8):
            pts = np.vstack([np.column_stack([cells, np.full(self.N_CELLS, float(t))])
                             for t in range(months)])
            inputs = rng.normal(size=(len(pts), 2))
            tracemalloc.start()
            try:
                post = predict(model, inputs, pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert post.sd.shape == (len(pts),)
        block = self.N_TRAIN * 7 * self.N_CELLS * 8
        growth = peaks[1] - peaks[0]
        assert growth < block / 2, (f"peak grew {growth / 1e6:.2f} MB from 1 to 8 months; "
                                    f"one n x (added points) block is {block / 1e6:.2f} MB")


def _fresh_python(code: str, *args: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.stdout.strip()


# Runs stackgp's CLI on the JSON argv in sys.argv[1], then prints its exit code
# and every scipy module then loaded.
_CLI_MODULES = """
import json, sys
from stackgp.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _cli_in_fresh_python(tmp_path, name: str, config: dict) -> set:
    """The scipy modules loaded by `stackgp <name>` on config, run in a fresh process."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    argv = json.dumps([name.split("-")[0], "--config", str(cfg), "--seed", "3"])
    code, modules = json.loads(_fresh_python(_CLI_MODULES, argv).splitlines()[-1])
    assert code == 0, name
    return set(modules)


class TestImportBoundary:
    """No stackgp command loads scipy, GP fits and GP cv included."""

    def test_cli_loads_no_scipy(self):
        code = ("import sys, stackgp.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert _fresh_python(code) == "[]"

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """Command -> the scipy modules the real CLI loads running it, each in a fresh process."""
        root = tmp_path_factory.mktemp("import-boundary")
        data = root / "data"
        synth = _cli_in_fresh_python(root, "synth", {
            "synth": {"n_surveys": 40, "n_lon": 6, "n_lat": 6, "n_months": 8,
                      "m_covariates": 2},
            "output_dir": str(data)})
        inputs = {"surveys": str(data / "surveys.csv"), "stack": str(data / "stack.yaml")}
        learners = [{"kind": "gbt", "params": {"n_rounds": 5}},
                    {"kind": "rf", "params": {"n_trees": 5}},
                    {"kind": "enet"}, {"kind": "gam"}, {"kind": "mars"}]
        gp_options = {"restarts": 1, "max_iter": 20}
        runs = {
            "fit-cwm": {"stacking": {"design": 1, "v": 3, "level1": "cwm",
                                     "learners": learners}},
            "predict-cwm": {"predict": {"model": str(root / "fit-cwm" / "model.json"),
                                        "months": [6]}},
            "decompose": {"decompose": {"model": str(root / "fit-cwm" / "model.json")}},
            "eval": {"eval": {"predictions": str(root / "predict-cwm" / "predictions.csv"),
                              "truth": str(data / "truth-grid.csv"),
                              "truth_field": "latent"}},
            "fit-gp": {"stacking": {"design": 1, "v": 3, "level1": "gp",
                                    "learners": [{"kind": "enet"}]}, "gp": gp_options},
            "fit-design2": {"stacking": {"design": 2, "v": 3,
                                         "learners": [{"kind": "enet"}, {"kind": "gam"}]},
                            "gp": gp_options},
            "fit-plain": {"stacking": {"design": "plain-gp"}, "gp": gp_options},
            "cv-gp": {"stacking": {"v": 3, "learners": [{"kind": "enet"}, {"kind": "mars"}]},
                      "cv": {"repeats": 1, "methods": ["gp-stack", "plain-gp"]},
                      "gp": gp_options},
        }
        for fit in ("gp", "design2", "plain"):
            runs[f"predict-{fit}"] = {"predict": {
                "model": str(root / f"fit-{fit}" / "model.json"), "months": [6]}}
        return {"synth": synth, **{name: _cli_in_fresh_python(root, name, {
                    "data": inputs, **config, "output_dir": str(root / name)})
                for name, config in runs.items()}}

    @pytest.mark.parametrize("command", ["fit-cwm", "predict-cwm", "decompose", "eval"])
    def test_commands_without_a_gp_load_no_scipy(self, loaded, command):
        assert loaded[command] == set()

    @pytest.mark.parametrize("command", ["predict-gp", "predict-design2", "predict-plain",
                                         "synth"])
    def test_gp_predicts_and_synth_load_no_scipy(self, loaded, command):
        assert loaded[command] == set()

    @pytest.mark.parametrize("command", ["fit-gp", "fit-design2", "fit-plain", "cv-gp"])
    def test_gp_fits_and_gp_cv_load_no_scipy(self, loaded, command):
        assert loaded[command] == set()

    def test_no_command_loads_interpolate(self, loaded):
        assert not any("scipy.interpolate" in modules for modules in loaded.values())

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gp.no_such_name
        assert not hasattr(gp, "no_such_name")

    def test_fit_goes_through_a_patched_minimize(self, monkeypatch):
        calls = []

        def fake(fun, x0, **kwargs):
            calls.append(kwargs["max_iter"])
            return OptimizeResult(x=np.asarray(x0), fun=fun(x0) - 1.0)

        monkeypatch.setattr(gp, "minimize", fake)
        rng = np.random.default_rng(47)
        pts = random_points(rng, 20)
        basis = rng.normal(size=(20, 2))
        gp.fit_hyperparams(basis @ [0.5, 0.5] + rng.normal(size=20) * 0.2, basis, pts,
                           restarts=2, max_iter=5)
        assert calls == [5, 5]
