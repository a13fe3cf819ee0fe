"""Gaussian-process machinery for spatio-temporal prevalence fields.

Covariance model: a separable product of a Matern smoothness-1 spatial kernel

    k(d) = (kappa / tau) * d * K1(kappa * d),   k(0) = 1 / tau

with kappa = sqrt(2) / rho, and an AR(1) temporal factor normalised to unit
marginal variance, phi^{|t_i - t_j|}, so tau is the sole scale parameter.
Distances are planar equirectangular: longitude differences are shrunk by
cos(reference latitude) and measured in degrees. A GP's reference latitude is
its training points' mean latitude (_ref_lat), which a fitted model derives
from its own train_points, so fit, fold re-conditioning and prediction share
one geometry. One function, _factor_s, forms S = K + sigma_e2 I, factors it
by numpy's Cholesky with a multiplicative jitter ladder (1e-10 up to 1e-6 of
the mean diagonal, then a hard numerical error) and inverts the factor
(_tri_inv); no other code factors S or inverts its factor. Each fit
evaluation and each conditioning calls it once. The lattice GMRF precision
form of the same field lives in gmrf.py.

The stacked and the plain GP share one fit body (_fit), which differs
between them only in the mean at the training rows: beta-weighted level-0
predictions, or the GLS-profiled linear mean. It runs L-BFGS
(lbfgs.minimize) with restarts on the analytic gradient of the log marginal
likelihood, 1/2 tr((alpha alpha^T - S^-1) dS/dtheta) (Rasmussen & Williams
2006, eq. 5.9), over unconstrained raw coordinates (log kappa, log tau,
log sigma_e^2, atanh phi, and softmax logits for the stacked-mean simplex
weights, first logit pinned at zero). One table, _HYPERPARAMS, holds each
scalar's exact raw transforms, their slope and valid range; the range check
is the only bound, so a raw point outside it is a failed evaluation
(PENALTY). Pinned values are checked against it by check_fixed, and a fully
pinned point is still evaluated. Fits evaluate the Bessel terms once per
distinct training distance, not once per matrix entry.

Prediction conditions each fitted GP once over all its prediction points,
whatever months they span, and evaluates the Matern once per (training
point, distinct prediction location); only the AR(1) factor differs between
months. The conditioning alone cuts the points, into blocks
[SLAB k, SLAB (k + 1)), and asks for the cross-covariance one block at a
time, so for n training points predict memory is
O(n x sites + n x SLAB + points), not O(n x points), and each predicted
point's mean and variance have the same bytes whether the cross-covariance
is passed as one array or as a function of a column range.

The stacked and the plain GP are one fitted model (_FittedGp, one predict
function) that differ only in their mean: beta-weighted level-0 predictions,
or a GLS linear mean whose training-row values the model holds (mean_train).

Everything here runs on numpy alone: K0 and K1 (_k0, _k1), the factor and
its inverse, and the optimizer. No fit, prediction or synth loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SECTION_KEYS, check_keys, check_values, finite_real
from .cwm import on_simplex
from .errors import DataError, NumericalError, SchemaError
from .lbfgs import minimize

JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
LOG_2PI = math.log(2.0 * math.pi)
PENALTY = 1e30      # objective value of a failed likelihood evaluation
LOG_SCALE_MAX = 700.0   # |log kappa|, |log tau| beyond this would overflow exp


def _log_scale(v) -> bool:
    return finite_real(v) and abs(v) <= LOG_SCALE_MAX


# Each scalar hyperparameter, in raw-coordinate order -> (natural -> raw,
# raw -> natural, d natural / d raw, range check, description). The raw maps
# are exact; a raw point whose natural value fails the range check, or
# overflows exp, is a failed evaluation (_RawCodec._neg_lml).
_HYPERPARAMS = {
    "log_kappa": (float, float, lambda x: 1.0, _log_scale, "a finite real in [-700, 700]"),
    "log_tau": (float, float, lambda x: 1.0, _log_scale, "a finite real in [-700, 700]"),
    "sigma_e2": (math.log, math.exp, math.exp,
                 lambda v: finite_real(v) and v > 0, "a finite real > 0"),
    "phi": (math.atanh, math.tanh, lambda x: 1.0 - math.tanh(x) ** 2,
            lambda v: finite_real(v) and abs(v) < 1, "a finite real in (-1, 1)"),
}
FIXABLE = (*_HYPERPARAMS, "beta")


def check_fixed(fixed, width: int, where: str = "gp.fixed") -> dict:
    """Checked copy of pinned hyperparameters, beta as a float array.

    width is the number of mean-basis columns a pinned beta weights; where
    names the mapping in error messages.
    """
    def beta(v) -> bool:
        items = v.tolist() if isinstance(v, np.ndarray) else v
        return (isinstance(items, (list, tuple)) and len(items) == width
                and all(finite_real(b) and b >= 0 for b in items) and sum(items) > 0)

    out = dict(check_values(f"{where}.", check_keys(where, fixed, FIXABLE), {
        **_HYPERPARAMS,
        "beta": (beta, f"a list of {width} non-negative finite numbers with a positive sum")}))
    if "beta" in out:
        out["beta"] = np.asarray(out["beta"], dtype=float)
    return out


def check_gp_options(gp_options, width: int) -> dict:
    """check_fixed of gp_options["fixed"], once gp_options holds only the config's
    gp keys (SECTION_KEYS["gp"]: fit_hyperparams' keywords).

    Library fits call it before any level-0 fit, so that a misspelt option
    fails at once, not after every learner has been fitted.
    """
    options = check_keys("gp_options", {} if gp_options is None else gp_options,
                         SECTION_KEYS["gp"])
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
        check_values("", vars(self), _HYPERPARAMS, DataError)
        object.__setattr__(self, "beta", on_simplex(self.beta))

    @property
    def kappa(self) -> float:
        return math.exp(self.log_kappa)

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

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
    """Predictive mean and covariance: a full matrix, or a vector of its diagonal."""

    mu_star: np.ndarray
    sigma_star: np.ndarray
    train: dict = field(repr=False, default_factory=dict)

    @property
    def sd(self) -> np.ndarray:
        var = self.sigma_star if self.sigma_star.ndim == 1 else np.diag(self.sigma_star)
        return np.sqrt(np.maximum(var, 0.0))


def _series_coefficients() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, highest power first, of K0's and K1's ascending series in t = x^2 / 4.

    With H_k the k-th harmonic number (Abramowitz & Stegun 9.6.13, 9.6.11):
    K0(x) = sum_k d_k t^k - ln(x/2) sum_k c_k t^k, c_k = 1 / k!^2 and
    d_k = c_k (H_k - gamma); K1(x) = 1/x + (x/2) (ln(x/2) sum_k a_k t^k -
    sum_k b_k t^k), a_k = 1 / (k! (k+1)!) and b_k = a_k (H_k + 1 / (2 (k+1)) -
    gamma). They keep k = 0..12: for x <= 2 (t <= 1) the first term left out
    is below 1e-19.
    """
    euler_gamma = 0.5772156649015329
    harmonic = [math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(13)]
    c = [1.0 / math.factorial(k) ** 2 for k in range(13)]
    d = [c[k] * (harmonic[k] - euler_gamma) for k in range(13)]
    a = [1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(13)]
    b = [a[k] * (harmonic[k] + 0.5 / (k + 1) - euler_gamma) for k in range(13)]
    return tuple(np.array(coef[::-1]) for coef in (c, d, a, b))


_K0_SERIES_C, _K0_SERIES_D, _K1_SERIES_A, _K1_SERIES_B = _series_coefficients()
# Chebyshev coefficients c_0..c_25 of sqrt(x) e^x K_nu(x) in u = 4/x - 1, for
# x > 2 (u in (-1, 1)); |c_26| < 1e-18. Computed with mpmath at 40 digits:
# c_j = (2 - [j == 0]) / M sum_k f(cos th_k) cos(j th_k) with
# th_k = pi (k + 1/2) / M over M = 96 Chebyshev nodes and
# f(u) = sqrt(x) exp(x) besselk(nu, x) at x = 4 / (u + 1), each rounded to
# the nearest double. mpmath is not a dependency: the literals are the result.
_K0_CHEB = (
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18, -1.7331712005821001e-18,
)
_K1_CHEB = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18,
)


_K_CHUNK = 1 << 13     # entries per pass of _bessel_k, so that its temporaries stay small


def _k0(x) -> np.ndarray:
    """Modified Bessel function K0 of an array of x > 0, in numpy alone (_bessel_k)."""
    return _bessel_k(x, _k0_series_sum, _K0_CHEB)


def _k1(x) -> np.ndarray:
    """Modified Bessel function K1 of an array of x > 0, in numpy alone (_bessel_k)."""
    return _bessel_k(x, _k1_series_sum, _K1_CHEB)


def _bessel_k(x, series, cheb) -> np.ndarray:
    """K_nu of an array of x > 0: series(x) for x <= 2, the Chebyshev series cheb
    of sqrt(x) e^x K_nu(x) above; within 5e-15 relative of scipy.special's.

    It works through _K_CHUNK entries at a time, and each branch gathers its
    entries into a fresh contiguous array, so an entry's bytes depend only on
    its x, not on the array around it: numpy's exp and log round some strided
    entries differently.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _K_CHUNK):
        chunk = flat[start:start + _K_CHUNK]
        small = chunk <= 2.0
        lo, hi = np.flatnonzero(small), np.flatnonzero(~small)
        part = out[start:start + _K_CHUNK]
        part.put(lo, series(chunk.take(lo)))
        part.put(hi, _cheb_sum(chunk.take(hi), cheb))
    return out.reshape(x.shape)


def _horner(t: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients coef (highest power first) at t."""
    out = np.full(t.shape, coef[0])
    for c in coef[1:]:
        out *= t
        out += c
    return out


def _k0_series_sum(x: np.ndarray) -> np.ndarray:
    """K0 of x <= 2 by its ascending series (_K0_SERIES_C, _K0_SERIES_D)."""
    t = 0.25 * x * x
    out = np.log(0.5 * x)
    out *= _horner(t, _K0_SERIES_C)
    return _horner(t, _K0_SERIES_D) - out


def _k1_series_sum(x: np.ndarray) -> np.ndarray:
    """K1 of x <= 2 by its ascending series (_K1_SERIES_A, _K1_SERIES_B)."""
    t = 0.25 * x * x
    out = np.log(0.5 * x)
    out *= _horner(t, _K1_SERIES_A)
    out -= _horner(t, _K1_SERIES_B)
    out *= 0.5 * x
    out += 1.0 / x
    return out


def _cheb_sum(x: np.ndarray, cheb) -> np.ndarray:
    """K_nu of x > 2 by Clenshaw's recurrence over cheb in 2u = 8/x - 2."""
    y2 = 8.0 / x - 2.0
    b0, b1, b2 = np.empty(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    for c in cheb[:0:-1]:
        np.multiply(y2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    out = 0.5 * y2 * b1 - b2 + cheb[0]
    out *= np.exp(-x) / np.sqrt(x)
    return out


def matern1_matrix(D: np.ndarray, kappa: float, tau: float) -> np.ndarray:
    """Smoothness-1 Matern covariance over a distance array (zero-safe)."""
    D = np.asarray(D, dtype=float)
    x = kappa * D
    with np.errstate(invalid="ignore", over="ignore"):
        vals = (x / tau) * _k1(np.where(x > 0, x, 1.0))
    return np.where(x > 0, vals, 1.0 / tau)


def _matern1_dlog_kappa(D: np.ndarray, kappa: float, tau: float) -> np.ndarray:
    """d matern1_matrix / d log kappa: -(x^2 / tau) K0(x) with x = kappa d, 0 at d = 0.

    It follows from d/dx [x K1(x)] = -x K0(x).
    """
    x = kappa * np.asarray(D, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = -(x / tau) * (x * _k0(np.where(x > 0, x, 1.0)))
    return np.where(x > 0, vals, 0.0)


def _ar1_dphi(phi: float, lags: np.ndarray) -> np.ndarray:
    """d phi^lag / d phi = lag phi^(lag - 1), exactly 0 at lag 0."""
    return lags * np.power(phi, np.maximum(lags - 1, 0))


def pairwise_planar_dist(a: np.ndarray, b: np.ndarray, ref_lat: float) -> np.ndarray:
    """Equirectangular distances in degrees between (lon, lat) rows."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    scale = math.cos(math.radians(ref_lat))
    dlon = (a[:, 0, None] - b[None, :, 0]) * scale
    dlat = a[:, 1, None] - b[None, :, 1]
    return np.sqrt(dlon**2 + dlat**2)


def _split_points(points, name: str = "points") -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) rows and integer months of finite (n, 3) points; name labels errors."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"{name} must be (n, 3) rows of (lon, lat, t), got {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DataError(f"{name} row {row} is not finite: {pts[row].tolist()}")
    return pts[:, :2], np.rint(pts[:, 2]).astype(int)


def _geometry(points_a, points_b, ref_lat: float) -> tuple[np.ndarray, np.ndarray]:
    """Planar distances and month lags |t_a - t_b| between two point sets."""
    sa, ta = _split_points(points_a)
    sb, tb = _split_points(points_b)
    return pairwise_planar_dist(sa, sb, ref_lat), np.abs(ta[:, None] - tb[None, :])


def cov_block(points_a, points_b, params: GpHyperParams, ref_lat: float) -> np.ndarray:
    """Separable cross-covariance between two point sets (shared reference latitude):
    the Matern over their distances times phi^|t_a - t_b| over their month lags."""
    D, dT = _geometry(points_a, points_b, ref_lat)
    return matern1_matrix(D, params.kappa, params.tau) * np.power(params.phi, dT)


def _ref_lat(points) -> float:
    """The reference latitude of a GP trained at points: their mean latitude."""
    return float(_split_points(points)[0][:, 1].mean())


def _train_kernel(points):
    """params -> (K, dS) for the training points at their mean latitude.

    K is cov_block of the points with themselves. dS(key) is the block
    d(K + sigma_e2 I) / d key for a scalar of _HYPERPARAMS on its natural
    scale; each call builds one block, so a caller holding one at a time
    holds no more.

    The geometry is fixed for a whole fit, so the Matern and its kappa
    derivative are evaluated once per distinct distance and phi^lag once per
    month lag, then gathered back to n x n. All work element by element, so
    every entry of K has the bytes cov_block gives. matern1_matrix and _k0 are
    looked up at call time, so a wrapper set on this module's attribute sees
    every evaluation.
    """
    D, dT = _geometry(points, points, _ref_lat(points))
    dists, inverse = np.unique(D, return_inverse=True)
    inverse = inverse.reshape(D.shape)      # NumPy 1.x returns the inverse flat
    lags = np.arange(dT.max() + 1)

    def kernel(params: GpHyperParams):
        matern = matern1_matrix(dists, params.kappa, params.tau)
        ar1 = np.power(params.phi, lags)[dT]
        K = matern[inverse] * ar1

        def dS(key: str) -> np.ndarray:
            if key == "log_kappa":
                return _matern1_dlog_kappa(dists, params.kappa, params.tau)[inverse] * ar1
            if key == "log_tau":
                return -K
            if key == "sigma_e2":
                return np.eye(len(K))
            return matern[inverse] * _ar1_dphi(params.phi, lags)[dT]
        return K, dS
    return kernel


def _fit_inputs(fit: str, y, mean, points, mean_name: str):
    """y, the mean matrix and the points of a fit as float arrays.

    Raises a DataError naming the fit unless y is a vector of n >= 5
    observations and mean and points each have n rows of finite points.
    """
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    pts = np.asarray(points, dtype=float)
    if y.ndim != 1:
        raise DataError(f"{fit}: y must be a vector, got shape {y.shape}")
    n = len(y)
    if n < 5:
        raise DataError(f"{fit} needs at least 5 observations, got {n}")
    if mean.ndim != 2 or mean.shape[0] != n:
        raise DataError(f"{fit}: {mean_name} must have one row per observation "
                        f"(n = {n}), got shape {mean.shape}")
    _split_points(pts, f"{fit}: points")
    if len(pts) != n:
        raise DataError(f"{fit}: points must have one row per observation (n = {n}), "
                        f"got {len(pts)}")
    return y, mean, pts


def _chol_with_jitter(S: np.ndarray, context: str):
    """Lower Cholesky with a multiplicative jitter ladder; returns (L, jitter)."""
    scale = float(np.mean(np.diag(S)))
    if not np.isfinite(scale):
        raise NumericalError(f"{context}: non-finite covariance diagonal")
    if not np.isfinite(S).all():
        raise NumericalError(f"{context}: non-finite covariance entries")
    for level in JITTER_LADDER:
        jitter = level * max(scale, 1e-300)
        try:
            L = np.linalg.cholesky(S + jitter * np.eye(len(S)) if jitter else S)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    eig = np.linalg.eigvalsh(S)
    cond = abs(eig[-1]) / max(abs(eig[0]), 1e-300)
    raise NumericalError(f"{context}: Cholesky failed after jitter ladder "
                         f"(condition estimate {cond:.3e}, min eig {eig[0]:.3e})")


def _factor_s(K, sigma_e2: float, context: str):
    """(L, L^-1, jitter) of S = K + sigma_e2 I: the one place S is factored and its
    factor inverted, for every likelihood, conditioning and GLS solve."""
    L, jitter = _chol_with_jitter(K + sigma_e2 * np.eye(len(K)), context)
    return L, _tri_inv(L), jitter


_TRI_INV_LEAF = 32     # _tri_inv inverts blocks up to this size by LU


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L, recursively by 2 x 2 blocks:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].

    It costs n^3 / 3 multiply-adds, mostly in matrix products, where
    np.linalg.inv's LU costs three times as much.
    """
    n = len(L)
    if n <= _TRI_INV_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = _tri_inv(L[:h, :h])
    out[h:, h:] = _tri_inv(L[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (L[h:, :h] @ out[:h, :h]))
    return out


def _column_sums(A: np.ndarray) -> np.ndarray:
    """Sums down axis 0, added strictly in row order: a column's sum never
    depends on the columns beside it, as a matrix-vector product's does."""
    return A.cumsum(axis=0)[-1]


SLAB = 64     # points of one prediction block, which gp_condition_dense alone cuts


def gp_condition_dense(y, mean_train, mean_pred, K_train, K_cross, K_pred,
                       sigma_e2: float, *, full_cov: bool = False) -> GpPosterior:
    """Predictive conditioning from covariance blocks against one factor of S.

    S = K_train + sigma_e2 I is factored once and its Cholesky factor L
    inverted once (_factor_s), as in Rasmussen & Williams (2006, Alg. 2.1):
    alpha = L^-T L^-1 (y - mean_train), and a point's variance subtracts the
    squared column of L^-1 k_* from its prior.

    K_cross is the (n_train, n_pred) cross-covariance: one array, or a
    function cross(lo, hi) that returns its columns lo:hi (_cross_blocks).
    The conditioning reads it in blocks of SLAB points, [0, SLAB),
    [SLAB, 2 SLAB), ..., the last one narrower where n_pred is not a multiple
    of SLAB; each block can be dropped once its slices of the mean and
    variance are written, so memory is O(n_train^2 + n_train x SLAB + n_pred).

    The cut is the same for one array and for a function, so each point's
    bytes are too. The mean sums down the training rows (_column_sums). The
    variance forms L^-1 block by one matrix product over a C-contiguous copy,
    the last one zero-padded to SLAB columns: a product's column can round
    differently with the product's width and its position in it, but never
    with the other columns' values. With full_cov False (default) sigma_star
    is the predictive variance vector; K_pred may then be a full matrix or
    just its diagonal. full_cov needs K_cross as one array.
    """
    y = np.asarray(y, dtype=float)
    mean_train = np.asarray(mean_train, dtype=float)
    mean_pred = np.asarray(mean_pred, dtype=float)
    K_train = np.asarray(K_train, dtype=float)
    K_pred = np.asarray(K_pred, dtype=float)
    n = len(y) if y.ndim == 1 else -1
    p = len(mean_pred) if mean_pred.ndim == 1 else -1
    one_array = not callable(K_cross)
    K_cross = np.asarray(K_cross, dtype=float) if one_array else K_cross
    if (mean_train.shape != (n,) or K_train.shape != (n, n)
            or K_pred.shape not in ((p,), (p, p)) or (one_array and K_cross.shape != (n, p))):
        raise DataError("gp_condition_dense: non-conformal shapes")
    if full_cov and K_pred.ndim != 2:
        raise DataError("full covariance requested but K_pred is not a matrix")
    if full_cov and not one_array:
        raise DataError("gp_condition_dense: full_cov needs K_cross as one array")

    _, L_inv, jitter = _factor_s(K_train, sigma_e2, "gp_condition_dense")
    alpha = L_inv.T @ (L_inv @ (y - mean_train))
    prior_diag = np.diag(K_pred) if K_pred.ndim == 2 else K_pred
    mu_star, sigma_star = np.empty(p), np.empty(p)
    for lo in range(0, p, SLAB):
        hi = min(lo + SLAB, p)
        block = K_cross[:, lo:hi] if one_array else np.asarray(K_cross(lo, hi), dtype=float)
        if block.shape != (n, hi - lo):
            raise DataError("gp_condition_dense: non-conformal shapes")
        mu_star[lo:hi] = mean_pred[lo:hi] + _column_sums(block * alpha[:, None])
        if hi - lo == SLAB:
            slab = np.ascontiguousarray(block)
        else:       # the last block, zero-padded so that every product is SLAB wide
            slab = np.zeros((n, SLAB))
            slab[:, :hi - lo] = block
        V = L_inv @ slab
        sigma_star[lo:hi] = prior_diag[lo:hi] - _column_sums(V * V)[:hi - lo]
    if full_cov:
        V = L_inv @ K_cross
        sigma_star = K_pred - V.T @ V
        sigma_star = 0.5 * (sigma_star + sigma_star.T)
    return GpPosterior(mu_star=mu_star, sigma_star=sigma_star, train={"jitter": jitter})


def log_marginal_likelihood(y, mean_train, K_train, sigma_e2: float, dS=None, *,
                            factor=None):
    """Gaussian log marginal likelihood of y under S = K_train + sigma_e2 I.

    Without dS it returns the float. dS is an iterable of symmetric blocks
    dS/dtheta_i, read one at a time; with it the result is (lml, grad, alpha),
    where grad[i] = 1/2 tr((alpha alpha^T - S^-1) dS/dtheta_i) (Rasmussen &
    Williams 2006, eq. 5.9) and alpha = S^-1 (y - mean_train), so that the
    gradient in the coefficients of a mean H b is H^T alpha. factor is
    _factor_s of this S where the caller has already factored it; K_train is
    then not read.
    """
    y = np.asarray(y, dtype=float)
    r = y - np.asarray(mean_train, dtype=float)
    n = len(y)
    if factor is None:
        factor = _factor_s(np.asarray(K_train, dtype=float), sigma_e2, "log_marginal_likelihood")
    L, L_inv, _ = factor
    alpha = L_inv.T @ (L_inv @ r)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    lml = float(-0.5 * (r @ alpha) - 0.5 * logdet - 0.5 * n * LOG_2PI)
    if dS is None:
        return lml
    W = np.outer(alpha, alpha)
    W -= L_inv.T @ L_inv
    grad = np.array([0.5 * np.vdot(W, block) for block in dS])
    return lml, grad, alpha


def _softmax_pinned(logits: np.ndarray) -> np.ndarray:
    """Softmax over [0, logits...]; the pinned first entry fixes the gauge."""
    z = np.concatenate([[0.0], logits])
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


class _RawCodec:
    """Pack/unpack the free raw coordinates given fixed overrides."""

    def __init__(self, L: int, fixed: dict | None):
        self.fixed = check_fixed({} if fixed is None else fixed, L)
        self.free: list[str] = [k for k in _HYPERPARAMS if k not in self.fixed]
        self.free_beta = L > 1 and "beta" not in self.fixed

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
        vals.setdefault("beta", np.ones(1))     # L == 1: the only simplex point
        beta = np.maximum(np.asarray(vals["beta"], dtype=float), 0.0)
        vals["beta"] = beta / beta.sum()
        return GpHyperParams(**vals)

    def objective(self, evaluate):
        """Optimizer callables (fun, jac) over raw points.

        evaluate(params) returns (lml, grad, mean_grad): the log marginal
        likelihood, its gradient in the free scalars on their natural scale
        and, where beta is free, its gradient in beta. fun is -lml, PENALTY
        where the evaluation fails, and jac its gradient in the raw
        coordinates, zero there. The two share one evaluation per point,
        memoised on the last point.
        """
        last = {}

        def at(raw: np.ndarray):
            raw = np.asarray(raw, dtype=float)
            key = raw.tobytes()
            if key not in last:
                last.clear()
                last[key] = self._neg_lml(evaluate, raw)
            return last[key]
        return (lambda raw: at(raw)[0]), (lambda raw: at(raw)[1])

    def _neg_lml(self, evaluate, raw: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            params = self.unpack(raw)
            ll, grad, mean_grad = evaluate(params)
        except (NumericalError, DataError, FloatingPointError, OverflowError):
            return PENALTY, np.zeros(raw.size)
        grad = grad * [_HYPERPARAMS[key][2](float(x)) for key, x in zip(self.free, raw)]
        if self.free_beta:      # through the pinned softmax
            beta = params.beta
            grad = np.concatenate([grad, beta[1:] * (mean_grad[1:] - beta @ mean_grad)])
        if not (np.isfinite(ll) and np.isfinite(grad).all()):
            return PENALTY, np.zeros(raw.size)
        return -ll, -grad


def default_init(y, start_mean, points, width: int) -> GpHyperParams:
    """Data-driven starting point: range ~ a third of the extent, phi mild, the
    variance of y - start_mean split between field and noise, and beta uniform
    over width mean columns."""
    pts = np.asarray(points, dtype=float)
    var = float((np.asarray(y, dtype=float) - np.asarray(start_mean, dtype=float)).var())
    if not np.isfinite(var):
        raise NumericalError("response variance is not finite; rescale the response "
                             "or check the mean basis")
    var = max(var, 1e-6)
    extent = max(float(np.ptp(pts[:, 0]) + np.ptp(pts[:, 1])) / 2.0, 1e-3)
    rho = max(extent / 3.0, 1e-3)
    return GpHyperParams(log_kappa=math.log(math.sqrt(2.0) / rho),
                         log_tau=math.log(1.0 / var),
                         sigma_e2=0.5 * var, phi=0.3, beta=np.ones(width) / width)


def _fit(fit: str, y, points, start_mean, width: int, basis, fixed, restarts: int,
         max_iter: int, seed: int):
    """The one GP fit body: the fitted parameters and the fit's kernel (_train_kernel).

    basis(factor) is the n x width matrix whose beta-weighted columns are the
    mean at the training rows, given the factor of S (_factor_s) that each
    evaluation forms once and hands to log_marginal_likelihood. L-BFGS
    (lbfgs.minimize, at most max_iter iterations a run) runs from
    default_init(y, start_mean, ...), then from restarts - 1 jittered starts;
    the best raw point wins. The start must be evaluable, even with nothing free.
    """
    kernel = _train_kernel(points)
    codec = _RawCodec(width, fixed)

    def evaluate(params: GpHyperParams):
        K, dS = kernel(params)
        factor = _factor_s(K, params.sigma_e2, fit)
        H = basis(factor)
        ll, grad, alpha = log_marginal_likelihood(y, H @ params.beta, K, params.sigma_e2,
                                                  map(dS, codec.free), factor=factor)
        return ll, grad, H.T @ alpha

    objective, jac = codec.objective(evaluate)
    x0 = codec.pack(default_init(y, start_mean, points, width))
    best_raw, best_val = x0, objective(x0)
    if best_val >= PENALTY:
        raise NumericalError(f"{fit}: objective non-finite at the initial point; "
                             "rescale the response or check the mean")
    rng = np.random.default_rng(seed)
    for attempt in range(max(restarts, 1) if x0.size else 0):
        start = x0 if attempt == 0 else x0 + rng.normal(scale=0.5, size=x0.size)
        res = minimize(objective, start, jac=jac, max_iter=max_iter)
        if res.fun < best_val:
            best_raw, best_val = res.x, float(res.fun)
    return codec.unpack(best_raw), kernel


def fit_hyperparams(y, mean_basis, points, *, fixed: dict | None = None, restarts: int = 2,
                    max_iter: int = 400, seed: int = 0) -> GpHyperParams:
    """Maximise the log marginal likelihood over the raw coordinates.

    mean_basis is the n x L matrix whose simplex-weighted combination is the
    GP mean (level-0 predictions for stacking; a single column pins beta to
    [1]). `fixed` holds natural-scale overrides excluded from optimisation.
    """
    y, basis, pts = _fit_inputs("fit_hyperparams", y, mean_basis, points,
                                "mean_basis (n x L)")
    L = basis.shape[1]
    if L < 1:
        raise DataError(f"fit_hyperparams: mean_basis (n x L) needs L >= 1, "
                        f"got shape {basis.shape}")
    return _fit("fit_hyperparams", y, pts, basis @ (np.ones(L) / L), L,
                lambda factor: basis, fixed, restarts, max_iter, seed)[0]


def fit_gp_linear_mean(y, X, points, *, fixed: dict | None = None,
                       restarts: int = 2, max_iter: int = 400, seed: int = 0) -> PlainGpModel:
    """Plain-GP baseline: linear mean on standardised columns plus intercept.

    The mean coefficients are profiled out by generalised least squares inside
    the likelihood, so the simplex machinery never sees them; by the envelope
    theorem the profiled gradient is the gradient at the GLS mean. The returned
    model's params have beta = [1]; its mean_state holds the standardisation
    and coefficients of its mean (PlainGpModel.mean).
    """
    y, X, pts = _fit_inputs("fit_gp_linear_mean", y, X, points, "X (n x p)")
    mu_x = X.mean(axis=0)
    sd_x = X.std(axis=0)
    sd_x[sd_x == 0] = 1.0
    M = np.column_stack([np.ones(len(y)), (X - mu_x) / sd_x])

    def gls(factor) -> np.ndarray:
        """GLS coefficients of the mean under S, given its factor (_factor_s)."""
        _, L_inv, _ = factor
        return np.linalg.lstsq(L_inv @ M, L_inv @ y, rcond=None)[0]

    params, kernel = _fit("fit_gp_linear_mean", y, pts, np.zeros(len(y)), 1,
                          lambda factor: (M @ gls(factor))[:, None],
                          fixed, restarts, max_iter, seed)
    coef = gls(_factor_s(kernel(params)[0], params.sigma_e2, "fit_gp_linear_mean"))
    mean_state = {"x_mean": mu_x, "x_sd": sd_x, "coef": coef}
    return PlainGpModel(params=params, mean_state=mean_state, train_points=pts, X_train=X, y=y)


def _cross_blocks(model, pred_points):
    """cross(lo, hi): the columns lo:hi of cov_block(train_points, pred_points, ...),
    for any column range; gp_condition_dense chooses the ranges.

    The Matern, which does not depend on the month, is evaluated once per
    (training point, distinct prediction location), in passes of SLAB
    locations, into one n x sites array; phi^lag once per (training point,
    distinct month); both are built on the call. Each call gathers its columns
    and multiplies the two factors entry by entry, so every entry has the
    bytes cov_block gives, and memory is O(n x sites + n x columns + points).
    """
    prm, ref_lat = model.params, model.ref_lat
    train_lonlat, train_t = _split_points(model.train_points)
    lonlat, t = _split_points(pred_points)
    sites, site_of = np.unique(lonlat, axis=0, return_inverse=True)
    months, month_of = np.unique(t, return_inverse=True)
    site_of, month_of = site_of.reshape(-1), month_of.reshape(-1)
    matern = np.empty((len(train_t), len(sites)))
    for lo in range(0, len(sites), SLAB):
        D = pairwise_planar_dist(train_lonlat, sites[lo:lo + SLAB], ref_lat)
        matern[:, lo:lo + SLAB] = matern1_matrix(D, prm.kappa, prm.tau)
    ar1 = np.power(prm.phi, np.abs(train_t[:, None] - months[None, :]))

    def cross(lo: int, hi: int) -> np.ndarray:
        block = np.take(matern, site_of[lo:hi], axis=1)
        block *= np.take(ar1, month_of[lo:hi], axis=1)
        return block
    return cross


def _check_arrays(owner: str, **expected) -> None:
    """Raise a DataError naming the first field whose shape is not the expected one,
    or that holds a NaN or an infinity.

    A size of -1 stands for a count that could not be read, so it matches no shape.
    """
    for name, (value, shape) in expected.items():
        if np.shape(value) != shape:
            raise DataError(f"{owner}: {name} has shape {np.shape(value)}, expected {shape}")
        if not np.isfinite(value).all():
            raise DataError(f"{owner}: {name} holds a non-finite value")


def _each(value, convert):
    """convert(value), or a mapping (a plain GP's mean_state) converted value by value."""
    return {k: convert(v) for k, v in value.items()} if isinstance(value, dict) else convert(value)


@dataclass
class _FittedGp:
    """A fitted GP over its training data; the kinds differ only in their mean.

    A kind declares its arrays (FILE_KEYS in file order, shapes from _arrays),
    the design matrix of its training rows (DESIGN) and _mean over a design
    matrix. ref_lat and mean_train, the mean at the training rows, are derived.
    """

    params: GpHyperParams
    train_points: np.ndarray
    y: np.ndarray
    ref_lat: float = field(init=False)      # train_points' mean latitude, never passed
    mean_train: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.train_points) if np.ndim(self.train_points) == 2 else -1
        _check_arrays(self.KIND, y=(self.y, (n,)), train_points=(self.train_points, (n, 3)),
                      **self._arrays(n))
        with np.errstate(all="ignore"):     # an overflowing mean is refused just below
            self.mean_train = self.mean(getattr(self, self.DESIGN))
        _check_arrays(self.KIND, mean_train=(self.mean_train, (n,)))
        self.ref_lat = _ref_lat(self.train_points)

    def mean(self, design) -> np.ndarray:
        """The GP mean at the rows of design, whose columns must be DESIGN's."""
        design = np.asarray(design, dtype=float)
        width = np.shape(getattr(self, self.DESIGN))[1]
        if design.ndim != 2 or design.shape[1] != width:
            raise SchemaError(f"{self.DESIGN_NAME} must have {width} columns, got {design.shape}")
        return self._mean(design)

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                **{k: _each(getattr(self, k), lambda v: np.asarray(v).tolist())
                   for k in self.FILE_KEYS}, "ref_lat": self.ref_lat}

    @classmethod
    def from_dict(cls, d: dict):
        """The model in file d, once its stored ref_lat is its training points' mean latitude."""
        model = cls(params=GpHyperParams.from_dict(d["params"]),
                    **{k: _each(d[k], lambda v: np.asarray(v, dtype=float))
                       for k in cls.FILE_KEYS})
        stored = d["ref_lat"]
        if not (finite_real(stored)
                and math.isclose(stored, model.ref_lat, rel_tol=1e-12, abs_tol=1e-12)):
            raise DataError(f"ref_lat {stored!r} is not the training points' mean latitude "
                            f"{model.ref_lat!r}")
        return model


@dataclass
class StackedGpModel(_FittedGp):
    """A fitted level-1 GP bound to full-fit level-0 predictions.

    Hyperparameters (including beta) come from fitting against the
    out-of-fold matrix H; prediction rebinds the mean to the full-fit matrix
    P at training points without refitting anything.
    """

    P_train: np.ndarray
    KIND, DESIGN, DESIGN_NAME = "stacked GP", "P_train", "level-0 prediction matrix"
    FILE_KEYS = ("train_points", "P_train", "y")

    def _arrays(self, n: int) -> dict:
        return {"P_train": (self.P_train, (n, self.params.beta.size))}

    def _mean(self, P) -> np.ndarray:
        return P @ self.params.beta


@dataclass
class PlainGpModel(_FittedGp):
    """Baseline GP with a GLS-profiled linear mean on standardised covariates."""

    mean_state: dict
    X_train: np.ndarray
    KIND, DESIGN, DESIGN_NAME = "plain GP", "X_train", "covariate matrix"
    FILE_KEYS = ("mean_state", "train_points", "X_train", "y")

    def _arrays(self, n: int) -> dict:
        state = self.mean_state
        if not isinstance(state, dict):
            raise DataError(f"plain GP: mean_state must be a mapping, got {state!r}")
        m = np.shape(self.X_train)[1] if np.ndim(self.X_train) == 2 else -1
        return {"X_train": (self.X_train, (n, m)), "x_mean": (state.get("x_mean"), (m,)),
                "x_sd": (state.get("x_sd"), (m,)), "coef": (state.get("coef"), (m + 1,))}

    def _mean(self, X) -> np.ndarray:
        state = self.mean_state
        return state["coef"][0] + (X - state["x_mean"]) / state["x_sd"] @ state["coef"][1:]


def _gp_predict(model: _FittedGp, design, pred_points) -> GpPosterior:
    """Condition a fitted GP on its data; marginal mean and variance at pred_points,
    the rows of design.

    One conditioning covers every month. It asks _cross_blocks for the
    cross-covariance one block of SLAB points at a time, so memory is
    O(n x sites + n x SLAB + points); every prior variance is
    k(0) * phi^0 = 1/tau, so no p x p block.
    """
    mean_pred = model.mean(design)
    pred_points = np.asarray(pred_points, dtype=float)
    if len(mean_pred) != len(pred_points):
        raise DataError(f"{model.DESIGN_NAME} rows must match pred_points rows")
    prm = model.params
    K_train = cov_block(model.train_points, model.train_points, prm, model.ref_lat)
    return gp_condition_dense(model.y, model.mean_train, mean_pred, K_train,
                              _cross_blocks(model, pred_points),
                              np.full(len(pred_points), 1.0 / prm.tau), prm.sigma_e2)


def gp_stacked_predict(model: StackedGpModel, P_pred, pred_points) -> GpPosterior:
    """Predict at new points given their level-0 predictions P_pred."""
    return _gp_predict(model, P_pred, pred_points)


def plain_gp_predict(model: PlainGpModel, X_pred, pred_points) -> GpPosterior:
    """Predict the plain-GP baseline at new points with their covariates."""
    return _gp_predict(model, X_pred, pred_points)
