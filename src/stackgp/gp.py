"""Gaussian-process machinery for spatio-temporal prevalence fields.

Covariance model: a separable product of a Matern smoothness-1 spatial kernel

    k(d) = (kappa / tau) * d * K1(kappa * d),   k(0) = 1 / tau

with kappa = sqrt(2) / rho, and an AR(1) temporal factor normalised to unit
marginal variance, phi^{|t_i - t_j|}, so tau is the sole scale parameter.
Distances are planar equirectangular: longitude differences are shrunk by
cos(reference latitude) and measured in degrees; the reference latitude must
be shared by every block of one model (callers pass it explicitly).

Two conditioning paths are provided. The dense path works on covariance
blocks via Cholesky solves with a multiplicative jitter ladder (1e-10 up to
1e-6 of the mean diagonal, then a hard numerical error). The precision path
works on a lattice GMRF: Q_space = tau^2 h^2 (kappa^2 I - L)^T (kappa^2 I - L)
with L the 5-point graph Laplacian (spacing h = d_lat degrees, natural
boundaries), Q = Q_time kron Q_space ordered time-major, observations mapped
by a sparse convex-row matrix A, and solves done by sparse LU.

Hyperparameters are fitted by Nelder-Mead on unconstrained raw coordinates
(log kappa, log tau, log sigma_e^2, atanh phi, and softmax logits for the
stacked-mean simplex weights, first logit pinned at zero). One table,
_HYPERPARAMS, holds each scalar's raw transforms and valid range; pinned
values are checked against it by check_fixed in every fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.sparse.linalg import splu
from scipy.special import k1

from .config import finite_real
from .errors import ConfigError, DataError, NumericalError, SchemaError

JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
LOG_2PI = math.log(2.0 * math.pi)
PENALTY = 1e30      # objective value of a failed likelihood evaluation


def _log_clamped(x: float) -> float:
    return min(max(x, -700.0), 700.0)


# Each scalar hyperparameter, in raw-coordinate order -> (natural -> raw,
# raw -> natural, range check, description). The raw -> natural maps clamp so
# that exp cannot overflow.
_HYPERPARAMS = {
    "log_kappa": (float, _log_clamped, finite_real, "a finite real"),
    "log_tau": (float, _log_clamped, finite_real, "a finite real"),
    "sigma_e2": (math.log, lambda x: math.exp(min(x, 700.0)),
                 lambda v: finite_real(v) and v > 0, "a finite real > 0"),
    "phi": (math.atanh, math.tanh,
            lambda v: finite_real(v) and abs(v) < 1, "a finite real in (-1, 1)"),
}
FIXABLE = (*_HYPERPARAMS, "beta")


def check_fixed(fixed, width: int, where: str = "gp.fixed") -> dict:
    """Checked copy of pinned hyperparameters, beta as a float array.

    width is the number of mean-basis columns a pinned beta weights; where
    names the mapping in error messages.
    """
    if not isinstance(fixed, dict):
        raise ConfigError(f"{where} must be a mapping of parameter overrides, got {fixed!r}")
    bad = sorted(set(fixed) - set(FIXABLE))
    if bad:
        raise ConfigError(f"{where}: cannot fix {bad}; allowed {list(FIXABLE)}")
    for key, value in fixed.items():
        if key == "beta":
            items = value.tolist() if isinstance(value, np.ndarray) else value
            ok = (isinstance(items, (list, tuple)) and len(items) == width
                  and all(finite_real(b) and b >= 0 for b in items) and sum(items) > 0)
            want = f"a list of {width} non-negative finite numbers with a positive sum"
        else:
            _, _, check, want = _HYPERPARAMS[key]
            ok = check(value)
        if not ok:
            raise ConfigError(f"{where}.{key} must be {want}, got {value!r}")
    out = dict(fixed)
    if "beta" in out:
        out["beta"] = np.asarray(out["beta"], dtype=float)
    return out


_GP_OPTIONS = ("fixed", "restarts", "max_iter", "seed")    # fit_hyperparams' keywords


def check_gp_options(gp_options, width: int) -> dict:
    """check_fixed of gp_options["fixed"], once gp_options holds only _GP_OPTIONS keys.

    Library fits call it before any level-0 fit, so that a misspelt option
    fails at once, not after every learner has been fitted.
    """
    options = {} if gp_options is None else gp_options
    if not isinstance(options, dict):
        raise ConfigError(f"gp_options must be a mapping, got {gp_options!r}")
    bad = sorted(map(str, set(options) - set(_GP_OPTIONS)))
    if bad:
        raise ConfigError(f"gp_options: unknown key(s) {bad}; valid keys are {list(_GP_OPTIONS)}")
    return check_fixed(options.get("fixed", {}), width)


@dataclass(frozen=True)
class GpHyperParams:
    """Kernel and noise parameters plus stacked-mean simplex weights."""

    log_kappa: float
    log_tau: float
    sigma_e2: float
    phi: float
    beta: np.ndarray

    def __post_init__(self):
        for key, (_, _, check, description) in _HYPERPARAMS.items():
            value = getattr(self, key)
            if not check(value):
                raise DataError(f"{key} must be {description}, got {value!r}")
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", b)
        if b.ndim != 1 or b.size < 1 or np.any(b < -1e-12) or abs(b.sum() - 1.0) > 1e-9:
            raise DataError("beta must lie on the probability simplex")

    @property
    def kappa(self) -> float:
        return math.exp(self.log_kappa)

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @property
    def rho(self) -> float:
        """Spatial range: kappa = sqrt(2) / rho for the smoothness-1 Matern."""
        return math.sqrt(2.0) / self.kappa

    def to_dict(self) -> dict:
        return {"log_kappa": self.log_kappa, "log_tau": self.log_tau,
                "sigma_e2": self.sigma_e2, "phi": self.phi, "beta": self.beta.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GpHyperParams":
        return cls(log_kappa=float(d["log_kappa"]), log_tau=float(d["log_tau"]),
                   sigma_e2=float(d["sigma_e2"]), phi=float(d["phi"]),
                   beta=np.asarray(d["beta"], dtype=float))


@dataclass
class GpPosterior:
    """Predictive mean and covariance (full matrix or just its diagonal)."""

    mu_star: np.ndarray
    sigma_star: np.ndarray
    diag_only: bool = True
    train: dict = field(repr=False, default_factory=dict)

    @property
    def sd(self) -> np.ndarray:
        var = self.sigma_star if self.diag_only else np.diag(self.sigma_star)
        return np.sqrt(np.maximum(var, 0.0))


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


def matern1_cov(dist: float, kappa: float, tau: float) -> float:
    """Smoothness-1 Matern covariance at a single distance."""
    if not (dist >= 0 and kappa > 0 and tau > 0):
        raise DataError(f"matern1_cov needs dist >= 0, kappa > 0, tau > 0; "
                        f"got ({dist}, {kappa}, {tau})")
    if dist == 0.0:
        return 1.0 / tau
    x = kappa * dist
    return (kappa / tau) * dist * float(k1(x))


def matern1_matrix(D: np.ndarray, kappa: float, tau: float) -> np.ndarray:
    """Vectorised matern1_cov over a distance matrix (zero-safe)."""
    D = np.asarray(D, dtype=float)
    x = kappa * D
    with np.errstate(invalid="ignore", over="ignore"):
        vals = (x / tau) * k1(np.where(x > 0, x, 1.0))
    return np.where(x > 0, vals, 1.0 / tau)


def pairwise_planar_dist(a: np.ndarray, b: np.ndarray, ref_lat: float) -> np.ndarray:
    """Equirectangular distances in degrees between (lon, lat) rows."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    scale = math.cos(math.radians(ref_lat))
    dlon = (a[:, 0, None] - b[None, :, 0]) * scale
    dlat = a[:, 1, None] - b[None, :, 1]
    return np.sqrt(dlon**2 + dlat**2)


def _split_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"points must be (n, 3) rows of (lon, lat, t), got {pts.shape}")
    return pts[:, :2], np.rint(pts[:, 2]).astype(int)


def _geometry(points_a, points_b, ref_lat: float) -> tuple[np.ndarray, np.ndarray]:
    """Planar distances and month lags |t_a - t_b| between two point sets."""
    sa, ta = _split_points(points_a)
    sb, tb = _split_points(points_b)
    return pairwise_planar_dist(sa, sb, ref_lat), np.abs(ta[:, None] - tb[None, :])


def _train_geometry(points) -> tuple[np.ndarray, np.ndarray]:
    """_geometry of the training points with themselves, at their mean latitude."""
    lonlat, _ = _split_points(points)
    return _geometry(points, points, float(lonlat[:, 1].mean()))


def _kernel(D: np.ndarray, dT: np.ndarray, params: GpHyperParams) -> np.ndarray:
    """Separable covariance: Matern over distances D times phi^dT over month lags."""
    return matern1_matrix(D, params.kappa, params.tau) * np.power(params.phi, dT)


def cov_block(points_a, points_b, params: GpHyperParams, ref_lat: float) -> np.ndarray:
    """Cross-covariance block between two point sets (shared reference latitude)."""
    return _kernel(*_geometry(points_a, points_b, ref_lat), params)


def _chol_with_jitter(S: np.ndarray, context: str):
    """Lower Cholesky with a multiplicative jitter ladder; returns (L, jitter)."""
    scale = float(np.mean(np.diag(S)))
    if not np.isfinite(scale):
        raise NumericalError(f"{context}: non-finite covariance diagonal")
    for level in JITTER_LADDER:
        jitter = level * max(scale, 1e-300)
        try:
            L = cholesky(S + jitter * np.eye(len(S)) if jitter else S, lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    eig = np.linalg.eigvalsh(S)
    cond = abs(eig[-1]) / max(abs(eig[0]), 1e-300)
    raise NumericalError(f"{context}: Cholesky failed after jitter ladder "
                         f"(condition estimate {cond:.3e}, min eig {eig[0]:.3e})")


def build_joint_cov(points, params: GpHyperParams, ref_lat: float | None = None) -> np.ndarray:
    """Dense joint covariance over (lon, lat, t) points, PSD-checked.

    The returned matrix includes whatever diagonal jitter the ladder needed
    (none for well-posed inputs).
    """
    pts = np.asarray(points, dtype=float)
    if ref_lat is None:
        ref_lat = float(pts[:, 1].mean())
    K = cov_block(pts, pts, params, ref_lat)
    K = 0.5 * (K + K.T)
    _, jitter = _chol_with_jitter(K, "build_joint_cov")
    if jitter:
        K = K + jitter * np.eye(len(K))
    return K


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


def _lattice_laplacian(n_lat: int, n_lon: int, h: float) -> sp.csr_matrix:
    """5-point graph Laplacian on the lattice, row-major, natural boundaries."""
    n = n_lat * n_lon
    rows, cols, vals = [], [], []
    inv_h2 = 1.0 / (h * h)
    for i in range(n_lat):
        for j in range(n_lon):
            site = i * n_lon + j
            neighbours = []
            if i > 0:
                neighbours.append(site - n_lon)
            if i < n_lat - 1:
                neighbours.append(site + n_lon)
            if j > 0:
                neighbours.append(site - 1)
            if j < n_lon - 1:
                neighbours.append(site + 1)
            rows.append(site)
            cols.append(site)
            vals.append(-len(neighbours) * inv_h2)
            for nb in neighbours:
                rows.append(site)
                cols.append(nb)
                vals.append(inv_h2)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def lattice_gmrf_precision(geometry, params: GpHyperParams, n_months: int = 1) -> SparsePrecision:
    """Spatio-temporal GMRF precision on a regular lattice.

    Q_space = tau^2 h^2 (kappa^2 I - L)^T (kappa^2 I - L), h = d_lat;
    Q = ar1_precision(n_months, phi) kron Q_space, latent index time-major
    (site = t * n_space + lattice row-major index). A defaults to the
    identity selection of every latent site.
    """
    if geometry.n_lat < 3 or geometry.n_lon < 3:
        raise DataError("lattice must be at least 3x3")
    h = geometry.d_lat
    L = _lattice_laplacian(geometry.n_lat, geometry.n_lon, h)
    kappa2 = params.kappa ** 2
    M = (kappa2 * sp.identity(L.shape[0], format="csr") - L)
    Q_space = (params.tau ** 2) * (h ** 2) * (M.T @ M)
    Q_time = ar1_precision(n_months, params.phi)
    Q = sp.kron(Q_time, Q_space, format="csc") if n_months > 1 else Q_space.tocsc()
    n = Q.shape[0]
    return SparsePrecision(Q=Q, A=sp.identity(n, format="csr"))


def observation_matrix(geometry, lons, lats, months, n_months: int) -> sp.csr_matrix:
    """Convex-row bilinear interpolation from latent lattice sites to points.

    A point exactly on a cell centre yields a single unit weight (selection).
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    months = np.asarray(months, dtype=int)
    n_space = geometry.n_lat * geometry.n_lon
    rows, cols, vals = [], [], []
    for i, (lon, lat, t) in enumerate(zip(lons, lats, months)):
        if not 0 <= t < n_months:
            raise DataError(f"point {i}: month {t} outside [0, {n_months})")
        x = (lon - geometry.lon0) / geometry.d_lon
        yy = (geometry.lat0 - lat) / geometry.d_lat
        if not (-1e-9 <= x <= geometry.n_lon - 1 + 1e-9 and
                -1e-9 <= yy <= geometry.n_lat - 1 + 1e-9):
            raise DataError(f"point {i}: ({lon}, {lat}) outside the latent lattice")
        x = min(max(x, 0.0), geometry.n_lon - 1.0)
        yy = min(max(yy, 0.0), geometry.n_lat - 1.0)
        # snap roundoff-level fractional parts so exact cell centres produce a
        # genuine selection row rather than a (1-eps, eps) pair
        if abs(x - round(x)) < 1e-9:
            x = float(round(x))
        if abs(yy - round(yy)) < 1e-9:
            yy = float(round(yy))
        ix = min(int(math.floor(x)), max(geometry.n_lon - 2, 0))
        iy = min(int(math.floor(yy)), max(geometry.n_lat - 2, 0))
        wx, wy = x - ix, yy - iy
        base = t * n_space
        for di, dj, w in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                          (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
            if w > 0.0:
                rows.append(i)
                cols.append(base + (iy + di) * geometry.n_lon + (ix + dj))
                vals.append(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(lons), n_months * n_space))


def gp_condition_dense(y, mean_train, mean_pred, K_train, K_cross, K_pred,
                       sigma_e2: float, *, full_cov: bool = False) -> GpPosterior:
    """Predictive conditioning from covariance blocks, all solves by Cholesky.

    K_cross is (n_train, n_pred). With full_cov False (default) sigma_star is
    the predictive variance vector; K_pred may then be a full matrix or just
    its diagonal.
    """
    y = np.asarray(y, dtype=float)
    mean_train = np.asarray(mean_train, dtype=float)
    mean_pred = np.asarray(mean_pred, dtype=float)
    K_train = np.asarray(K_train, dtype=float)
    K_cross = np.asarray(K_cross, dtype=float)
    K_pred = np.asarray(K_pred, dtype=float)
    n, p = K_cross.shape
    if y.shape != (n,) or mean_train.shape != (n,) or mean_pred.shape != (p,):
        raise DataError("gp_condition_dense: non-conformal shapes")
    if full_cov and K_pred.ndim != 2:
        raise DataError("full covariance requested but K_pred is not a matrix")

    S = K_train + sigma_e2 * np.eye(n)
    L, jitter = _chol_with_jitter(S, "gp_condition_dense")
    r = y - mean_train
    alpha = cho_solve((L, True), r)
    mu_star = mean_pred + K_cross.T @ alpha
    V = solve_triangular(L, K_cross, lower=True)
    if full_cov:
        sigma_star = K_pred - V.T @ V
        sigma_star = 0.5 * (sigma_star + sigma_star.T)
    else:
        prior_diag = np.diag(K_pred) if K_pred.ndim == 2 else K_pred
        sigma_star = prior_diag - np.einsum("ij,ij->j", V, V)
    return GpPosterior(mu_star=mu_star, sigma_star=sigma_star, diag_only=not full_cov,
                       train={"chol": L, "alpha": alpha, "jitter": jitter})


def gp_condition_precision(spre: SparsePrecision, y, mean_latent, sigma_e2: float,
                           A_pred: sp.spmatrix | None = None) -> GpPosterior:
    """Predictive conditioning in precision form via sparse LU.

    Posterior precision Q' = Q + A^T A / sigma_e2; the latent posterior mean
    is mu + Q'^{-1} A^T (y - A mu) / sigma_e2, then mapped through A_pred
    (default: every latent site); sigma_star holds the marginal variances.
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
    latent_mean = mu + solver.solve(A.T @ resid / sigma_e2)
    A_p = A_pred.tocsr() if A_pred is not None else sp.identity(len(mu), format="csr")
    mu_star = A_p @ latent_mean
    cov_cols = solver.solve(np.asarray(A_p.T.todense(), dtype=float))
    sigma_star = np.diag(np.asarray(A_p @ cov_cols)).copy()
    return GpPosterior(mu_star=np.asarray(mu_star).ravel(), sigma_star=sigma_star,
                       train={"latent_mean": latent_mean})


def log_marginal_likelihood(y, mean_train, K_train, sigma_e2: float) -> float:
    """Gaussian log marginal likelihood of y under K_train + sigma_e2 I."""
    y = np.asarray(y, dtype=float)
    r = y - np.asarray(mean_train, dtype=float)
    n = len(y)
    S = np.asarray(K_train, dtype=float) + sigma_e2 * np.eye(n)
    L, _ = _chol_with_jitter(S, "log_marginal_likelihood")
    alpha = cho_solve((L, True), r)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * (r @ alpha) - 0.5 * logdet - 0.5 * n * LOG_2PI)


def _softmax_pinned(logits: np.ndarray) -> np.ndarray:
    """Softmax over [0, logits...]; the pinned first entry fixes the gauge."""
    z = np.concatenate([[0.0], logits])
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


class _RawCodec:
    """Pack/unpack the free raw coordinates given fixed overrides."""

    def __init__(self, L: int, fixed: dict | None):
        self.fixed = check_fixed(fixed or {}, L)
        self.L = L
        self.free: list[str] = [k for k in _HYPERPARAMS if k not in self.fixed]
        self.free_beta = L > 1 and "beta" not in self.fixed

    def size(self) -> int:
        return len(self.free) + (self.L - 1 if self.free_beta else 0)

    def pack(self, params: GpHyperParams) -> np.ndarray:
        out = [_HYPERPARAMS[key][0](getattr(params, key)) for key in self.free]
        if self.free_beta:
            b = np.maximum(params.beta, 1e-12)
            logits = np.log(b[1:]) - math.log(b[0])
            out.extend(logits.tolist())
        return np.asarray(out, dtype=float)

    def unpack(self, raw: np.ndarray) -> GpHyperParams:
        vals = dict(self.fixed)
        for i, key in enumerate(self.free):
            vals[key] = _HYPERPARAMS[key][1](float(raw[i]))
        if self.free_beta:
            vals["beta"] = _softmax_pinned(np.asarray(raw[len(self.free):], dtype=float))
        elif "beta" not in vals:
            vals["beta"] = np.ones(self.L) / self.L if self.L > 1 else np.ones(1)
        beta = np.maximum(np.asarray(vals["beta"], dtype=float), 0.0)
        vals["beta"] = beta / beta.sum()
        return GpHyperParams(**vals)

    def objective(self, loglik):
        """Optimizer objective: -loglik(params) at a raw point, PENALTY where it fails."""
        def neg_loglik(raw: np.ndarray) -> float:
            try:
                ll = loglik(self.unpack(raw))
            except (NumericalError, DataError, FloatingPointError, OverflowError):
                return PENALTY
            return -ll if np.isfinite(ll) else PENALTY
        return neg_loglik


def default_init(y, mean_basis, points) -> GpHyperParams:
    """Data-driven starting point: range ~ a third of the extent, phi mild."""
    pts = np.asarray(points, dtype=float)
    basis = np.asarray(mean_basis, dtype=float)
    y = np.asarray(y, dtype=float)
    L = basis.shape[1]
    beta = np.ones(L) / L
    resid = y - basis @ beta
    var = float(resid.var())
    if not np.isfinite(var):
        raise NumericalError("response variance is not finite; rescale the response "
                             "or check the mean basis")
    var = max(var, 1e-6)
    extent = max(float(np.ptp(pts[:, 0]) + np.ptp(pts[:, 1])) / 2.0, 1e-3)
    rho = max(extent / 3.0, 1e-3)
    return GpHyperParams(log_kappa=math.log(math.sqrt(2.0) / rho),
                         log_tau=math.log(1.0 / var),
                         sigma_e2=0.5 * var, phi=0.3, beta=beta)


def _optimize(objective, x0: np.ndarray, context: str, *, restarts: int, max_iter: int,
              seed: int) -> np.ndarray:
    """Nelder-Mead from x0, then from restarts - 1 jittered starts; best raw point.

    The objective must be finite at x0; an empty x0 is returned unoptimised.
    """
    f0 = objective(x0)
    if not np.isfinite(f0) or f0 >= PENALTY:
        raise NumericalError(f"{context}: objective non-finite at the initial point; "
                             "rescale the response or check the mean")
    rng = np.random.default_rng(seed)
    best_raw, best_val = x0, f0
    for attempt in range(max(restarts, 1) if x0.size else 0):
        start = x0 if attempt == 0 else x0 + rng.normal(scale=0.5, size=x0.size)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-4, "fatol": 1e-6})
        if res.fun < best_val:
            best_raw, best_val = res.x, float(res.fun)
    return best_raw


def fit_hyperparams(y, mean_basis, points, *, fixed: dict | None = None, restarts: int = 2,
                    max_iter: int = 400, seed: int = 0) -> GpHyperParams:
    """Maximise the log marginal likelihood over the raw coordinates.

    mean_basis is the n x L matrix whose simplex-weighted combination is the
    GP mean (level-0 predictions for stacking; a single column pins beta to
    [1]). `fixed` holds natural-scale overrides excluded from optimisation.
    """
    y = np.asarray(y, dtype=float)
    basis = np.asarray(mean_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != len(y) or basis.shape[1] < 1:
        raise DataError(f"mean_basis must be n x L with L >= 1, got {basis.shape}")
    if len(y) < 5:
        raise DataError("fit_hyperparams needs at least 5 observations")
    pts = np.asarray(points, dtype=float)
    D, dT = _train_geometry(pts)
    codec = _RawCodec(basis.shape[1], fixed)
    objective = codec.objective(lambda params: log_marginal_likelihood(
        y, basis @ params.beta, _kernel(D, dT, params), params.sigma_e2))
    x0 = codec.pack(default_init(y, basis, pts))
    if codec.size() == 0:
        return codec.unpack(x0)
    return codec.unpack(_optimize(objective, x0, "fit_hyperparams", restarts=restarts,
                                  max_iter=max_iter, seed=seed))


def fit_gp_linear_mean(y, X, points, *, fixed: dict | None = None,
                       restarts: int = 2, max_iter: int = 400, seed: int = 0):
    """Plain-GP baseline: linear mean on standardised columns plus intercept.

    The mean coefficients are profiled out by generalised least squares inside
    the likelihood, so the simplex machinery never sees them. Returns
    (GpHyperParams with beta = [1], mean_state) where mean_state holds the
    standardisation and coefficients for `linear_mean`.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    pts = np.asarray(points, dtype=float)
    D, dT = _train_geometry(pts)
    n = len(y)

    mu_x = X.mean(axis=0)
    sd_x = X.std(axis=0)
    sd_x[sd_x == 0] = 1.0
    M = np.column_stack([np.ones(n), (X - mu_x) / sd_x])

    codec = _RawCodec(1, fixed)
    init = default_init(y, np.zeros((n, 1)), pts)

    def gls_coef(params: GpHyperParams):
        S = _kernel(D, dT, params) + params.sigma_e2 * np.eye(n)
        L, _ = _chol_with_jitter(S, "fit_gp_linear_mean")
        W = solve_triangular(L, M, lower=True)
        z = solve_triangular(L, y, lower=True)
        coef, *_ = np.linalg.lstsq(W, z, rcond=None)
        return coef, L, W, z

    def loglik(params: GpHyperParams) -> float:
        coef, L, W, z = gls_coef(params)
        resid = z - W @ coef
        return -0.5 * float(resid @ resid) - float(np.sum(np.log(np.diag(L)))) \
            - 0.5 * n * LOG_2PI

    objective = codec.objective(loglik)
    params = codec.unpack(_optimize(objective, codec.pack(init), "fit_gp_linear_mean",
                                    restarts=restarts, max_iter=max_iter, seed=seed))
    coef, *_ = gls_coef(params)
    mean_state = {"x_mean": mu_x, "x_sd": sd_x, "coef": np.asarray(coef, dtype=float)}
    return params, mean_state


def linear_mean(mean_state: dict, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Z = (X - mean_state["x_mean"]) / mean_state["x_sd"]
    coef = mean_state["coef"]
    return coef[0] + Z @ coef[1:]


def _predict_marginals(model, mean_train, mean_pred, pred_points) -> GpPosterior:
    """Condition a fitted GP on its training data; marginal mean and variance at pred_points.

    Every point's prior variance is k(0) * phi^0 = 1/tau, so no p x p prior
    block is built and memory grows linearly with the number of points.
    """
    prm = model.params
    K_train = cov_block(model.train_points, model.train_points, prm, model.ref_lat)
    K_cross = cov_block(model.train_points, pred_points, prm, model.ref_lat)
    return gp_condition_dense(model.y, mean_train, mean_pred, K_train, K_cross,
                              np.full(len(pred_points), 1.0 / prm.tau), prm.sigma_e2)


@dataclass
class StackedGpModel:
    """A fitted level-1 GP bound to full-fit level-0 predictions.

    Hyperparameters (including beta) come from fitting against the
    out-of-fold matrix H; prediction rebinds the mean to the full-fit matrix
    P at training points without refitting anything.
    """

    params: GpHyperParams
    train_points: np.ndarray
    P_train: np.ndarray
    y: np.ndarray
    ref_lat: float

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "train_points": self.train_points.tolist(),
                "P_train": self.P_train.tolist(),
                "y": self.y.tolist(),
                "ref_lat": self.ref_lat}

    @classmethod
    def from_dict(cls, d: dict) -> "StackedGpModel":
        return cls(params=GpHyperParams.from_dict(d["params"]),
                   train_points=np.asarray(d["train_points"], dtype=float),
                   P_train=np.asarray(d["P_train"], dtype=float),
                   y=np.asarray(d["y"], dtype=float),
                   ref_lat=float(d["ref_lat"]))


def gp_stacked_predict(model: StackedGpModel, P_pred, pred_points) -> GpPosterior:
    """Predict at new points given their level-0 predictions P_pred."""
    P_pred = np.asarray(P_pred, dtype=float)
    L = model.params.beta.size
    if P_pred.ndim != 2 or P_pred.shape[1] != L:
        raise SchemaError(f"level-0 prediction matrix must have {L} columns, "
                          f"got {P_pred.shape}")
    pred_points = np.asarray(pred_points, dtype=float)
    if P_pred.shape[0] != pred_points.shape[0]:
        raise DataError("P_pred rows must match pred_points rows")
    return _predict_marginals(model, model.P_train @ model.params.beta,
                              P_pred @ model.params.beta, pred_points)


@dataclass
class PlainGpModel:
    """Baseline GP with a GLS-profiled linear mean, ready for prediction."""

    params: GpHyperParams
    mean_state: dict
    train_points: np.ndarray
    X_train: np.ndarray
    y: np.ndarray
    ref_lat: float

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "mean_state": {k: np.asarray(v).tolist()
                               for k, v in self.mean_state.items()},
                "train_points": self.train_points.tolist(),
                "X_train": self.X_train.tolist(),
                "y": self.y.tolist(),
                "ref_lat": self.ref_lat}

    @classmethod
    def from_dict(cls, d: dict) -> "PlainGpModel":
        return cls(params=GpHyperParams.from_dict(d["params"]),
                   mean_state={k: np.asarray(v, dtype=float)
                               for k, v in d["mean_state"].items()},
                   train_points=np.asarray(d["train_points"], dtype=float),
                   X_train=np.asarray(d["X_train"], dtype=float),
                   y=np.asarray(d["y"], dtype=float),
                   ref_lat=float(d["ref_lat"]))


def fit_plain_gp(y, X, points, *, fixed: dict | None = None, restarts: int = 2,
                 max_iter: int = 400, seed: int = 0) -> PlainGpModel:
    """Convenience wrapper packaging fit_gp_linear_mean for prediction."""
    pts = np.asarray(points, dtype=float)
    params, mean_state = fit_gp_linear_mean(y, X, pts, fixed=fixed, restarts=restarts,
                                            max_iter=max_iter, seed=seed)
    return PlainGpModel(params=params, mean_state=mean_state, train_points=pts,
                        X_train=np.asarray(X, dtype=float),
                        y=np.asarray(y, dtype=float),
                        ref_lat=float(pts[:, 1].mean()))


def plain_gp_predict(model: PlainGpModel, X_pred, pred_points) -> GpPosterior:
    """Predict the plain-GP baseline at new points with their covariates."""
    X_pred = np.asarray(X_pred, dtype=float)
    if X_pred.ndim != 2 or X_pred.shape[1] != model.X_train.shape[1]:
        raise SchemaError(f"covariate matrix must have {model.X_train.shape[1]} columns, "
                          f"got {X_pred.shape}")
    pred_points = np.asarray(pred_points, dtype=float)
    if X_pred.shape[0] != pred_points.shape[0]:
        raise DataError("X_pred rows must match pred_points rows")
    return _predict_marginals(model, linear_mean(model.mean_state, model.X_train),
                              linear_mean(model.mean_state, X_pred), pred_points)
