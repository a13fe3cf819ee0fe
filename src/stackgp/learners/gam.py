"""Additive model with penalised cubic B-spline terms.

Each feature gets a cubic spline basis with interior knots at training
quantiles and a curvature penalty: the exact Gram matrix of the basis'
integrated squared second derivatives, whose nullspace is the affine
functions. The basis comes from the Cox-de Boor recursion, its second
derivative from differencing the coefficients twice (de Boor 2001, ch. X).
Basis columns are centred on the training sample so every term has
empirical mean zero and the intercept is exactly mean(y).

Smoothing strength is chosen per term by GCV against the centred response;
one Demmler-Reinsch eigendecomposition per term scores the whole lambda
grid. With those weights frozen, all terms are fitted jointly by one
penalised least-squares solve,

    min_c ||y - mean(y) - sum_j B_j c_j||^2 + sum_j c_j' (lam_j P_j + ridge_j I) c_j,

by QR on the bases stacked over per-term penalty roots (Wood 2017, ch. 6);
this is the fixed point that backfitting with the same weights approaches.
meta['residual'] is the objective's gradient at the solution relative to
its gradient at zero. Everything runs on numpy alone: the triangular
systems in a QR factor R go to np.linalg.solve. Partial pivoting exchanges
no rows of the upper-triangular R, so that LU solve is a back substitution;
the GCV's systems in R' do pivot, which is backward stable all the same.

Features with fewer distinct values than the requested basis size get a
reduced basis (with a warning): a smaller spline basis when at least 4
distinct values exist, a centred linear term below that, and nothing at all
for constant features. Prediction clamps inputs to the training range, so
the fit extrapolates flat rather than exploding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

SPLINE_DEGREE = 3
MIN_UNIQUE_FOR_SPLINE = 4
RIDGE_REL = 1e-9    # regularises the centred basis' constant direction


_GAUSS3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _bspline_design(x: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """Dense (len(x), len(t) - k - 1) degree-k B-spline design, Cox-de Boor.

    x must lie in [t[k], t[-k-1]]; the right end belongs to the last span.
    """
    n_basis = len(t) - k - 1
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, n_basis - 1)
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for i in range(1, j + 1):
            right, left = t[span + i], t[span + i - j]
            f = prev[:, i - 1] / (right - left)
            h[:, i - 1] += f * (right - x)
            h[:, i] = f * (x - left)
    out = np.zeros((len(x), n_basis))
    out[np.arange(len(x))[:, None], span[:, None] - k + np.arange(k + 1)] = h
    return out


def _second_derivative(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """(len(x), p) second derivatives of the cubic basis functions.

    Differencing a spline's coefficients gives its derivative's (one degree
    lower, on the knots with the end ones dropped); twice on the identity
    gives each basis function's second derivative in the linear basis.
    """
    k = SPLINE_DEGREE
    D = np.eye(len(knots) - k - 1)
    for d, t in ((k, knots), (k - 1, knots[1:-1])):
        D = (D[1:] - D[:-1]) * d / (t[d + 1:-1] - t[1:-d - 1])[:, None]
    return _bspline_design(x, knots[2:-2], k - 2) @ D


def _curvature_penalty(knots: np.ndarray) -> np.ndarray:
    """Gram matrix of integrated squared second derivatives of the basis.

    Cubic B-spline second derivatives are piecewise linear, so their pairwise
    products are quadratic per knot span and 3-point Gauss quadrature is
    exact. Nodes are strictly interior, dodging the derivative jumps at the
    knots themselves.
    """
    spans = np.unique(knots)
    half = 0.5 * np.diff(spans)[:, None]
    xs = (0.5 * (spans[:-1] + spans[1:]))[:, None] + half * _GAUSS3_NODES
    D2 = _second_derivative(xs.ravel(), knots)
    P = (D2 * (half * _GAUSS3_WEIGHTS).ravel()[:, None]).T @ D2
    return 0.5 * (P + P.T)


def _spline_knots(x: np.ndarray, n_splines: int) -> np.ndarray:
    a, b = float(x.min()), float(x.max())
    n_interior = max(0, n_splines - SPLINE_DEGREE - 1)
    qs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    interior = np.unique(np.quantile(x, qs)) if n_interior else np.empty(0)
    interior = interior[(interior > a) & (interior < b)]
    return np.concatenate([[a] * (SPLINE_DEGREE + 1), interior, [b] * (SPLINE_DEGREE + 1)])


def _design(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    return _bspline_design(np.clip(x, knots[0], knots[-1]), knots, SPLINE_DEGREE)


@dataclass
class GamTerm:
    kind: str                      # "spline" | "linear" | "zero"
    coef: np.ndarray
    knots: np.ndarray
    col_means: np.ndarray
    lam: float
    x_min: float
    x_max: float

    def basis(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros((len(x), 0))
        if self.kind == "linear":
            return np.clip(x, self.x_min, self.x_max)[:, None] - self.col_means
        return _design(x, self.knots) - self.col_means

    def value(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(len(x))
        return self.basis(x) @ self.coef


@dataclass
class GamModel:
    intercept: float
    terms: list
    meta: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.intercept)
        for j, term in enumerate(self.terms):
            out += term.value(X[:, j])
        return out

    def state_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "terms": [{
                "kind": t.kind,
                "coef": t.coef.tolist(),
                "knots": t.knots.tolist(),
                "col_means": t.col_means.tolist(),
                "lam": t.lam,
                "x_min": t.x_min,
                "x_max": t.x_max,
            } for t in self.terms],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GamModel":
        terms = [GamTerm(
            kind=d["kind"],
            coef=np.asarray(d["coef"], dtype=float),
            knots=np.asarray(d["knots"], dtype=float),
            col_means=np.asarray(d["col_means"], dtype=float),
            lam=float(d["lam"]),
            x_min=float(d["x_min"]),
            x_max=float(d["x_max"]),
        ) for d in state["terms"]]
        return cls(intercept=float(state["intercept"]), terms=terms)


def _term_scaffold(x: np.ndarray, n_splines: int, col_name: str) -> tuple[GamTerm, np.ndarray]:
    """An unfitted term for training column x and its uncentred basis at x.

    The basis minus the term's col_means is term.basis(x), byte for byte.
    """
    ux = np.unique(x)
    a, b = float(x.min()), float(x.max())
    if ux.size < 2:
        warnings.warn(f"gam: column {col_name} is constant, term dropped")
        zero = GamTerm("zero", np.empty(0), np.empty(0), np.empty(0), 0.0, a, b)
        return zero, np.empty((len(x), 0))
    if ux.size < MIN_UNIQUE_FOR_SPLINE:
        warnings.warn(f"gam: column {col_name} has {ux.size} distinct values, using a linear term")
        means = np.array([x.mean()])
        return GamTerm("linear", np.zeros(1), np.empty(0), means, 0.0, a, b), x[:, None]
    if ux.size < n_splines:
        warnings.warn(f"gam: column {col_name} has {ux.size} distinct values, "
                      f"basis reduced from {n_splines}")
        n_splines = ux.size
    knots = _spline_knots(x, n_splines)
    B = _design(x, knots)
    return GamTerm("spline", np.zeros(B.shape[1]), knots, B.mean(axis=0), 0.0, a, b), B


def _penalty_root(P: np.ndarray) -> np.ndarray:
    """R with R'R = P, from eigh(P) with round-off negatives set to zero."""
    d, V = np.linalg.eigh(P)
    return np.sqrt(np.maximum(d, 0.0))[:, None] * V.T


def _ridge(B: np.ndarray) -> float:
    # scales with the data term so the penalty's affine nullspace stays data-driven
    return RIDGE_REL * max(float(np.sum(B * B)) / max(B.shape[1], 1), 1.0)


def _block_diag(blocks) -> np.ndarray:
    """The 2-d blocks placed corner to corner on the diagonal, zeros elsewhere."""
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _gcv_scores(B: np.ndarray, root: np.ndarray, resid: np.ndarray, grid) -> np.ndarray:
    """Single-term GCV n RSS / (n - df)^2, df = tr(smoother) + 1, per grid lambda.

    With R'R = B'B + ridge I and R^-T P R^-1 = U diag(s) U' (Demmler & Reinsch
    1975), the smoother at lambda is F diag(1 / (1 + lambda s)) F' with
    F = B R^-1 U, so one decomposition scores every lambda. Scores with
    df >= n are inf.
    """
    n, p = B.shape
    R = np.linalg.qr(np.vstack([B, np.sqrt(_ridge(B)) * np.eye(p)]), mode="r")
    U, sv, _ = np.linalg.svd(np.linalg.solve(R.T, root.T))
    F = B @ np.linalg.solve(R, U)
    shrink = 1.0 / (1.0 + np.outer(sv**2, np.asarray(grid, dtype=float)))
    fitted = F @ (shrink * (F.T @ resid)[:, None])
    rss = np.sum((resid[:, None] - fitted) ** 2, axis=0)
    df = np.sum(F * F, axis=0) @ shrink + 1.0
    with np.errstate(divide="ignore"):
        return np.where(df < n, n * rss / (n - df) ** 2, np.inf)


def fit_gam(X, y, params: dict, rng=None) -> GamModel:
    grid = params["lambda_grid"]
    if grid is None:
        grid = np.logspace(-4.0, 4.0, 13)

    intercept = float(y.mean())
    resid0 = y - intercept
    terms, bases, roots = [], [], []
    for j in range(X.shape[1]):
        term, B = _term_scaffold(X[:, j], params["n_splines"], f"#{j}")
        terms.append(term)
        if term.kind == "zero":
            continue
        B = B - term.col_means
        root = np.zeros((0, B.shape[1]))
        if term.kind == "spline":
            root = _penalty_root(_curvature_penalty(term.knots))
            term.lam = float(grid[int(np.argmin(_gcv_scores(B, root, resid0, grid)))])
        bases.append(B)
        roots.append(np.vstack([np.sqrt(term.lam) * root,
                                np.sqrt(_ridge(B)) * np.eye(B.shape[1])]))

    # one penalised least-squares solve with the per-term weights frozen
    live = [t for t in terms if t.kind != "zero"]
    residual = 0.0
    if live:
        A = np.vstack([np.hstack(bases), _block_diag(roots)])
        b = np.concatenate([resid0, np.zeros(A.shape[0] - len(resid0))])
        Q, R = np.linalg.qr(A)
        coef = np.linalg.solve(R, Q.T @ b)
        # the objective's gradient at the solution, relative to that at zero
        residual = float(np.linalg.norm(A.T @ (b - A @ coef))
                         / max(np.linalg.norm(A.T @ b), 1e-300))
        for term, c in zip(live, np.split(coef, np.cumsum([t.coef.size for t in live])[:-1])):
            term.coef = c
    return GamModel(intercept=intercept, terms=terms, meta={"residual": residual})
