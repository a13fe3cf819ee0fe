import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from stackgp.dataset import GridGeometry
from stackgp.errors import ConfigError, DataError, NumericalError, SchemaError
from stackgp.gp import (
    FIXABLE,
    GpHyperParams,
    PlainGpModel,
    SparsePrecision,
    StackedGpModel,
    _chol_with_jitter,
    _RawCodec,
    _softmax_pinned,
    ar1_precision,
    build_joint_cov,
    cov_block,
    default_init,
    fit_gp_linear_mean,
    fit_hyperparams,
    fit_plain_gp,
    gp_condition_dense,
    gp_condition_precision,
    gp_stacked_predict,
    lattice_gmrf_precision,
    linear_mean,
    log_marginal_likelihood,
    matern1_cov,
    matern1_matrix,
    observation_matrix,
    pairwise_planar_dist,
    plain_gp_predict,
)

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
            assert matern1_cov(0.0, 2.0, tau) == pytest.approx(1.0 / tau, abs=1e-15)

    def test_unit_distance_frozen_bessel_value(self):
        assert matern1_cov(1.0, 1.0, 1.0) == pytest.approx(BESSEL_K1_AT_1, abs=1e-13)

    def test_monotone_decrease(self):
        c = [matern1_cov(d, 1.0, 1.0) for d in (0.5, 1.0, 2.0)]
        assert c[0] > c[1] > c[2] > 0

    def test_continuity_at_origin(self):
        assert matern1_cov(1e-9, 3.0, 2.0) == pytest.approx(0.5, rel=1e-6)

    def test_matrix_matches_scalar(self):
        D = np.array([[0.0, 0.7], [0.7, 0.0]])
        K = matern1_matrix(D, 1.3, 0.8)
        assert K[0, 0] == pytest.approx(1 / 0.8, abs=1e-15)
        assert K[0, 1] == pytest.approx(matern1_cov(0.7, 1.3, 0.8), abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DataError):
            matern1_cov(-1.0, 1.0, 1.0)
        with pytest.raises(DataError):
            matern1_cov(1.0, 0.0, 1.0)
        with pytest.raises(DataError):
            matern1_cov(1.0, 1.0, -2.0)


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


class TestBuildJointCov:
    def test_kronecker_separability_exhaustive(self):
        rng = np.random.default_rng(2)
        pts = random_points(rng, 12)
        p = params_of(kappa=2.0, tau=1.2, phi=0.6)
        ref = float(pts[:, 1].mean())
        K = build_joint_cov(pts, p)
        D = pairwise_planar_dist(pts[:, :2], pts[:, :2], ref)
        for i in range(12):
            for j in range(12):
                if i == j:
                    continue
                dt = abs(int(pts[i, 2]) - int(pts[j, 2]))
                want = matern1_cov(float(D[i, j]), p.kappa, p.tau) * p.phi ** dt
                assert K[i, j] == pytest.approx(want, abs=1e-12)

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
    def geometry(self):
        return GridGeometry(lon0=30.0, lat0=-1.0, d_lon=0.1, d_lat=0.1,
                            n_lon=4, n_lat=3)

    def test_cell_centre_is_selection_row(self):
        geo = self.geometry()
        lon, lat = geo.cell_center(1, 2)
        A = observation_matrix(geo, [lon], [lat], [2], n_months=4)
        row = A.toarray()[0]
        site = 2 * (3 * 4) + 1 * 4 + 2
        assert row[site] == 1.0
        assert row.sum() == 1.0
        assert np.count_nonzero(row) == 1

    def test_midpoint_splits_weights(self):
        geo = self.geometry()
        lon = geo.lon0 + 0.5 * geo.d_lon
        lat = geo.lat0 - 0.5 * geo.d_lat
        A = observation_matrix(geo, [lon], [lat], [0], n_months=1)
        row = A.toarray()[0]
        nz = row[row > 0]
        assert len(nz) == 4
        np.testing.assert_allclose(nz, 0.25, atol=1e-12)

    def test_rows_are_convex(self):
        geo = self.geometry()
        rng = np.random.default_rng(4)
        lons = rng.uniform(geo.lon0, geo.lon0 + 0.3, size=10)
        lats = rng.uniform(geo.lat0 - 0.2, geo.lat0, size=10)
        A = observation_matrix(geo, lons, lats, [0] * 10, n_months=2)
        assert A.min() >= 0
        np.testing.assert_allclose(np.asarray(A.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_month_out_of_range(self):
        geo = self.geometry()
        with pytest.raises(DataError, match="month"):
            observation_matrix(geo, [30.0], [-1.0], [5], n_months=3)

    def test_point_outside_lattice(self):
        geo = self.geometry()
        with pytest.raises(DataError, match="outside"):
            observation_matrix(geo, [40.0], [-1.0], [0], n_months=1)

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
        assert diag.diag_only and not full.diag_only
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

    def test_prediction_through_a_pred(self):
        spre, mu, y, obs, s2 = self.setup_problem()
        A_pred = sp.csr_matrix((np.ones(3), (np.arange(3), [0, 5, 11])),
                               shape=(3, spre.Q.shape[0]))
        post_all = gp_condition_precision(spre, y, mu, s2)
        post_sel = gp_condition_precision(spre, y, mu, s2, A_pred=A_pred)
        np.testing.assert_allclose(post_sel.mu_star,
                                   post_all.mu_star[[0, 5, 11]], atol=1e-12)
        np.testing.assert_allclose(post_sel.sigma_star,
                                   post_all.sigma_star[[0, 5, 11]], atol=1e-12)

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
        with pytest.raises(ConfigError, match="cannot fix"):
            _RawCodec(1, {"range": 2.0})

    def test_fixable_tuple_stable(self):
        assert FIXABLE == ("log_kappa", "log_tau", "sigma_e2", "phi", "beta")


class TestDefaultInit:
    def test_sensible_starting_point(self):
        rng = np.random.default_rng(13)
        pts = random_points(rng, 30, extent=0.9)
        basis = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        init = default_init(y, basis, pts)
        assert 0 < init.sigma_e2
        assert abs(init.phi) < 1
        assert init.rho == pytest.approx(0.3, rel=0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_variance_suggests_rescaling(self):
        pts = random_points(np.random.default_rng(14), 6)
        y = np.full(6, 1e200)
        basis = np.ones((6, 1)) * -1e200
        with pytest.raises(NumericalError, match="rescale"):
            default_init(y, basis, pts)


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

    def test_fixed_everything_skips_optimiser(self):
        y, basis, pts = self.make_data()
        params = fit_hyperparams(y, basis[:, :1], pts, fixed={
            "log_kappa": 0.5, "log_tau": 0.1, "sigma_e2": 0.2, "phi": 0.3})
        assert (params.log_kappa, params.log_tau) == (0.5, 0.1)
        assert (params.sigma_e2, params.phi) == (0.2, 0.3)

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

    def test_beta_lands_on_simplex(self):
        y, basis, pts = self.make_data()
        params = fit_hyperparams(y, basis, pts, restarts=1, max_iter=80)
        assert np.all(params.beta >= 0)
        assert params.beta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_improves_on_init(self):
        y, basis, pts = self.make_data()
        init = default_init(y, basis, pts)
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


class TestLinearMeanGp:
    def test_recovers_linear_trend_exactly_with_fixed_kernel(self):
        rng = np.random.default_rng(17)
        n = 30
        pts = random_points(rng, n)
        X = rng.normal(size=(n, 2))
        y = 2.0 + 3.0 * X[:, 0] - 1.0 * X[:, 1]
        params, mean_state = fit_gp_linear_mean(
            y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                              "sigma_e2": 1.0, "phi": 0.0})
        fitted = linear_mean(mean_state, X)
        np.testing.assert_allclose(fitted, y, atol=1e-8)

    def test_beta_always_single_one(self):
        rng = np.random.default_rng(18)
        pts = random_points(rng, 20)
        X = rng.normal(size=(20, 2))
        y = X[:, 0] + rng.normal(size=20) * 0.1
        params, _ = fit_gp_linear_mean(y, X, pts, restarts=1, max_iter=40)
        np.testing.assert_array_equal(params.beta, [1.0])


class TestStackedGpModel:
    def make_model(self, seed=19, n=20, L=2, sigma_e2=0.2):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, n)
        P = rng.normal(size=(n, L))
        beta = np.full(L, 1.0 / L)
        y = P @ beta + rng.normal(size=n) * 0.3
        prm = params_of(kappa=2.0, tau=1.0, sigma_e2=sigma_e2, phi=0.4, beta=beta)
        return StackedGpModel(params=prm, train_points=pts, P_train=P, y=y,
                              ref_lat=float(pts[:, 1].mean())), rng

    def test_round_trip(self):
        model, rng = self.make_model()
        clone = StackedGpModel.from_dict(model.to_dict())
        pts_new = random_points(rng, 7)
        P_new = rng.normal(size=(7, 2))
        a = gp_stacked_predict(model, P_new, pts_new)
        b = gp_stacked_predict(clone, P_new, pts_new)
        np.testing.assert_array_equal(a.mu_star, b.mu_star)
        np.testing.assert_array_equal(a.sigma_star, b.sigma_star)

    def test_column_count_schema_error(self):
        model, rng = self.make_model()
        with pytest.raises(SchemaError, match="columns"):
            gp_stacked_predict(model, np.ones((4, 3)), random_points(rng, 4))

    def test_row_mismatch(self):
        model, rng = self.make_model()
        with pytest.raises(DataError):
            gp_stacked_predict(model, np.ones((4, 2)), random_points(rng, 5))

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
            model = StackedGpModel(params=prm, train_points=pts, P_train=P,
                                   y=y, ref_lat=float(pts[:, 1].mean()))
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
        model = fit_plain_gp(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                               "sigma_e2": 0.5, "phi": 0.0})
        clone = PlainGpModel.from_dict(model.to_dict())
        X_new = rng.normal(size=(6, 2))
        pts_new = random_points(rng, 6)
        a = plain_gp_predict(model, X_new, pts_new)
        b = plain_gp_predict(clone, X_new, pts_new)
        np.testing.assert_array_equal(a.mu_star, b.mu_star)
        np.testing.assert_array_equal(a.sigma_star, b.sigma_star)

    def test_prediction_schema_errors(self):
        rng = np.random.default_rng(24)
        pts = random_points(rng, 20)
        X = rng.normal(size=(20, 2))
        y = X[:, 0]
        model = fit_plain_gp(y, X, pts, fixed={"log_kappa": 0.0, "log_tau": 0.0,
                                               "sigma_e2": 0.5, "phi": 0.0})
        with pytest.raises(SchemaError):
            plain_gp_predict(model, np.ones((3, 5)), random_points(rng, 3))
        with pytest.raises(DataError):
            plain_gp_predict(model, np.ones((3, 2)), random_points(rng, 4))


class TestPredictMemory:
    """Prediction memory grows linearly with the number of cells, not with its square."""

    N_TRAIN = 30
    N_CELLS = 4000

    def stacked(self, rng):
        pts = random_points(rng, self.N_TRAIN)
        P = rng.normal(size=(self.N_TRAIN, 2))
        model = StackedGpModel(params=params_of(kappa=2.0, phi=0.4, beta=(0.5, 0.5)),
                               train_points=pts, P_train=P, y=P.mean(axis=1),
                               ref_lat=float(pts[:, 1].mean()))
        return gp_stacked_predict, model, rng.normal(size=(self.N_CELLS, 2))

    def plain(self, rng):
        pts = random_points(rng, self.N_TRAIN)
        X = rng.normal(size=(self.N_TRAIN, 2))
        model = PlainGpModel(params=params_of(kappa=2.0, phi=0.4),
                             mean_state={"x_mean": np.zeros(2), "x_sd": np.ones(2),
                                         "coef": np.array([0.1, 1.0, -0.5])},
                             train_points=pts, X_train=X, y=X[:, 0],
                             ref_lat=float(pts[:, 1].mean()))
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
