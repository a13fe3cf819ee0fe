import os

# BLAS reads its thread count when numpy is first imported, so pin it before
# that: the n x n products of the GP fits run faster single-threaded here than
# split over threads, and pinned runs time the same code the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from scipy.special import k1

from stackgp.dataset import Covariate, GridGeometry, SurveyRecord
from stackgp.gp import _chol_with_jitter, cov_block, matern1_matrix, pairwise_planar_dist


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_geometry(n_lon=6, n_lat=5, lon0=30.0, lat0=-1.0, d=0.1):
    return GridGeometry(lon0=lon0, lat0=lat0, d_lon=d, d_lat=d, n_lon=n_lon, n_lat=n_lat)


def make_stack(geometry=None, n_months=10, seed=5):
    """Two static surfaces plus one dynamic-monthly covariate."""
    geometry = geometry or make_geometry()
    rng = np.random.default_rng(seed)
    shape = (geometry.n_lat, geometry.n_lon)
    covs = [
        Covariate("elev", "static", geometry, rng.normal(size=(1, *shape))),
        Covariate("soil", "static", geometry, rng.normal(size=(1, *shape))),
        Covariate("rain", "dynamic-monthly", geometry, rng.normal(size=(n_months, *shape)),
                  t_start=0, t_end=n_months - 1),
    ]
    return covs


def make_surveys(n=20, geometry=None, n_months=10, seed=11, t_min=6):
    geometry = geometry or make_geometry()
    rng = np.random.default_rng(seed)
    lon_hi = geometry.lon0 + (geometry.n_lon - 1) * geometry.d_lon
    lat_lo = geometry.lat0 - (geometry.n_lat - 1) * geometry.d_lat
    records = []
    for _ in range(n):
        n_tested = int(rng.integers(10, 100))
        records.append(SurveyRecord.from_counts(
            lon=float(rng.uniform(geometry.lon0, lon_hi)),
            lat=float(rng.uniform(lat_lo, geometry.lat0)),
            t=int(rng.integers(t_min, n_months)),
            n_tested=n_tested,
            n_positive=int(rng.integers(0, n_tested + 1)),
        ))
    return records


def points_of(records):
    return np.array([[r.lon, r.lat, r.t] for r in records])


def matern1_cov(dist, kappa, tau):
    """Smoothness-1 Matern covariance at one distance: the scalar oracle of gp.matern1_matrix."""
    if dist == 0.0:
        return 1.0 / tau
    return (kappa / tau) * dist * float(k1(kappa * dist))


def lattice_cov(geometry, kappa, tau):
    """Matern covariance between every pair of cell centres, one distance per entry:
    the oracle of synth._spatial_cov."""
    lons, lats = geometry.cell_centers()
    lonlat = np.column_stack([lons, lats])
    return matern1_matrix(pairwise_planar_dist(lonlat, lonlat, float(lats.mean())), kappa, tau)


def build_joint_cov(points, params, ref_lat=None):
    """Dense joint covariance over (lon, lat, t) points, plus whatever jitter
    gp's Cholesky ladder needs to factor it (none for well-posed inputs)."""
    pts = np.asarray(points, dtype=float)
    if ref_lat is None:
        ref_lat = float(pts[:, 1].mean())
    K = cov_block(pts, pts, params, ref_lat)
    K = 0.5 * (K + K.T)
    _, jitter = _chol_with_jitter(K, "build_joint_cov")
    if jitter:
        K = K + jitter * np.eye(len(K))
    return K
