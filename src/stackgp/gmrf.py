"""Lattice GMRF precision route for the Matern x AR(1) field of gp.py.

The SPDE representation of Lindgren, Rue & Lindstrom (2011) with alpha = 2
in two dimensions, discretised on the regular covariate lattice by finite
differences with natural boundaries:

    Q_space = tau_s^2 h_lon h_lat (kappa^2 I - L)^T (kappa^2 I - L)

with L the 5-point graph Laplacian, spaced h_lat = d_lat degrees between
rows and h_lon = d_lon cos(ref_lat) between columns, as gp.py measures
distance. The SPDE field has the Matern covariance sigma^2 (kappa d)
K1(kappa d) with sigma^2 = 1 / (4 pi kappa^2 tau_s^2); tau_s^2 = tau /
(4 pi kappa^2) makes sigma^2 gp.py's 1/tau. Q = Q_time kron Q_space, ordered
time-major, with Q_time the AR(1) precision, so Q^-1 approximates gp.py's
covariance away from the lattice edges (natural boundaries inflate the
variance near them; see the tests for the interior tolerance).
Observations are mapped by a sparse convex-row matrix A, and solves are done
by sparse LU. No command runs this route; the acceptance suite checks its
conditioning against dense conditioning under the same Q^-1 (c03).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DataError, NumericalError
from .gp import GpHyperParams, GpPosterior


@dataclass(frozen=True)
class SparsePrecision:
    """Latent GMRF precision Q with a convex-row observation matrix A."""

    Q: sp.spmatrix
    A: sp.spmatrix

    def __post_init__(self):
        if self.Q.shape[0] != self.Q.shape[1]:
            raise DataError(f"Q must be square, got {self.Q.shape}")
        if self.A.shape[1] != self.Q.shape[0]:
            raise DataError(f"A maps {self.A.shape[1]} latent sites, Q has {self.Q.shape[0]}")
        A = self.A.tocsr()
        if A.nnz and A.data.min() < -1e-12:
            raise DataError("observation matrix A has negative entries")
        rows = np.asarray(A.sum(axis=1)).ravel()
        if A.shape[0] and np.max(np.abs(rows - 1.0)) > 1e-9:
            raise DataError("observation matrix A rows must sum to 1")


def ar1_precision(T: int, phi: float) -> sp.csc_matrix:
    """Tridiagonal precision of a unit-marginal-variance AR(1) over T months.

    Its inverse has entries phi^{|i-j|}; T = 1 degenerates to [[1]].
    """
    if T < 1:
        raise DataError(f"T must be >= 1, got {T}")
    if not abs(phi) < 1:
        raise DataError(f"phi must lie in (-1, 1), got {phi}")
    if T == 1:
        return sp.csc_matrix(np.array([[1.0]]))
    s = 1.0 / (1.0 - phi * phi)
    diag = np.full(T, (1.0 + phi * phi) * s)
    diag[0] = diag[-1] = s
    off = np.full(T - 1, -phi * s)
    return sp.diags([off, diag, off], offsets=(-1, 0, 1), format="csc")


def _lattice_laplacian(n_lat: int, n_lon: int, h_lat: float, h_lon: float) -> sp.csr_matrix:
    """5-point graph Laplacian on the lattice, row-major, natural boundaries.

    The Kronecker sum of the latitude and longitude path Laplacians,
    tridiag(1, -degree, 1) / h^2 with h the axis's spacing: h_lat between
    rows, h_lon between columns.
    """
    def path(n: int, h: float) -> sp.csr_matrix:
        inv_h2 = 1.0 / (h * h)
        degree = 2.0 - (np.arange(n) == 0) - (np.arange(n) == n - 1)
        off = np.full(n - 1, inv_h2)
        return sp.diags([off, -degree * inv_h2, off], offsets=(-1, 0, 1), format="csr")
    return (sp.kron(sp.identity(n_lat), path(n_lon, h_lon), format="csr")
            + sp.kron(path(n_lat, h_lat), sp.identity(n_lon), format="csr"))


def lattice_gmrf_precision(geometry, params: GpHyperParams, n_months: int = 1) -> SparsePrecision:
    """Spatio-temporal GMRF precision on a regular lattice.

    Q_space = tau / (4 pi kappa^2) h_lon h_lat (kappa^2 I - L)^T (kappa^2 I - L),
    L the Kronecker sum of the longitude and latitude path Laplacians with
    h_lon = d_lon cos(ref_lat) and h_lat = d_lat, ref_lat the lattice's mean
    cell latitude. Q = ar1_precision(n_months, phi) kron
    Q_space, latent index time-major (site = t * n_space + lattice row-major
    index). A defaults to the identity selection of every latent site.
    """
    if geometry.n_lat < 3 or geometry.n_lon < 3:
        raise DataError("lattice must be at least 3x3")
    ref_lat = float(np.mean(geometry.cell_centers()[1]))
    h_lat = geometry.d_lat
    h_lon = geometry.d_lon * math.cos(math.radians(ref_lat))
    L = _lattice_laplacian(geometry.n_lat, geometry.n_lon, h_lat, h_lon)
    kappa2 = params.kappa ** 2
    M = kappa2 * sp.identity(L.shape[0], format="csr") - L
    Q_space = (params.tau / (4.0 * math.pi * kappa2)) * (h_lon * h_lat) * (M.T @ M)
    Q_time = ar1_precision(n_months, params.phi)
    Q = sp.kron(Q_time, Q_space, format="csc") if n_months > 1 else Q_space.tocsc()
    return SparsePrecision(Q=Q, A=sp.identity(Q.shape[0], format="csr"))


def gp_condition_precision(spre: SparsePrecision, y, mean_latent, sigma_e2: float) -> GpPosterior:
    """Predictive conditioning in precision form via sparse LU.

    Posterior precision Q' = Q + A^T A / sigma_e2; mu_star is the latent
    posterior mean mu + Q'^{-1} A^T (y - A mu) / sigma_e2 at every latent
    site, and sigma_star holds its marginal variances.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mean_latent, dtype=float)
    A = spre.A.tocsr()
    if y.shape != (A.shape[0],) or mu.shape != (A.shape[1],):
        raise DataError("gp_condition_precision: non-conformal shapes")
    if sigma_e2 <= 0:
        raise DataError("sigma_e2 must be > 0")
    Qp = (spre.Q + (A.T @ A) / sigma_e2).tocsc()
    try:
        solver = splu(Qp)
    except RuntimeError as exc:
        raise NumericalError(f"gp_condition_precision: sparse factorisation failed: {exc}") from exc
    resid = y - A @ mu
    mu_star = mu + solver.solve(A.T @ resid / sigma_e2)
    sigma_star = np.diag(solver.solve(np.eye(len(mu)))).copy()
    return GpPosterior(mu_star=mu_star, sigma_star=sigma_star)
