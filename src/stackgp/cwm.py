"""Constrained-weighted-mean combiner: simplex-constrained least squares.

Weights minimise ||y - H beta||^2 over the probability simplex by the finite
active set of ``qp.nonneg_qp``, whose KKT residual is checked. The convexity
constraint keeps every combined prediction inside the row-wise [min, max]
envelope of the member predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .qp import nonneg_qp

KKT_TOL = 1e-8   # largest relative KKT residual accepted as the optimum
SIMPLEX_TOL = 1e-9   # largest |sum(beta) - 1| accepted as on the simplex


def on_simplex(beta) -> np.ndarray:
    """beta as a float vector, once it is finite, >= 0 and sums to 1 (to SIMPLEX_TOL)."""
    b = np.asarray(beta, dtype=float)
    if (b.ndim != 1 or b.size < 1 or not np.isfinite(b).all() or np.any(b < -1e-12)
            or abs(b.sum() - 1.0) > SIMPLEX_TOL):
        raise DataError("beta must lie on the probability simplex")
    return b


@dataclass(frozen=True)
class SimplexWeights:
    """Convex-combination weights: beta >= 0, sum(beta) = 1."""

    beta: np.ndarray
    degenerate: bool = False  # set when n < L left the minimiser underdetermined
    meta: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "beta", on_simplex(self.beta))

    def to_dict(self) -> dict:
        return {"beta": self.beta.tolist(), "degenerate": bool(self.degenerate),
                "meta": self.meta}

    @classmethod
    def from_dict(cls, d: dict) -> "SimplexWeights":
        return cls(beta=np.asarray(d["beta"], dtype=float),
                   degenerate=bool(d.get("degenerate", False)), meta=dict(d.get("meta", {})))


def project_simplex(v) -> SimplexWeights:
    """Euclidean projection onto {beta >= 0, sum(beta) = 1} (sort-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
        raise DataError("project_simplex needs a finite 1-d vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = np.max(ks[u - css / ks > 0])
    theta = css[rho - 1] / rho
    beta = np.maximum(v - theta, 0.0)
    beta /= beta.sum()  # renormalise away the last-ulp drift
    return SimplexWeights(beta=beta)


def fit_cwm(H, y) -> SimplexWeights:
    """Fit simplex weights minimising ||y - H beta||^2.

    meta holds the active-set steps, starting vertex included, and the relative
    KKT residual; a residual above KKT_TOL raises NumericalError.
    """
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    if H.ndim != 2 or H.shape[0] != y.size:
        raise DataError(f"H must be n x L with n = len(y), got {H.shape}")
    if not np.all(np.isfinite(H)) or not np.all(np.isfinite(y)):
        raise DataError("non-finite entries in CWM inputs")
    n, L = H.shape
    beta, steps, kkt = nonneg_qp(2.0 * H.T @ H, 2.0 * H.T @ y, simplex=True, name="CWM")
    if kkt > KKT_TOL:
        raise NumericalError(f"CWM: active-set solve ended off the optimum (KKT residual {kkt:.3e})")
    return SimplexWeights(beta=beta / beta.sum(), degenerate=n < L,
                          meta={"iterations": steps, "kkt_residual": kkt})


def cwm_predict(weights: SimplexWeights, P) -> np.ndarray:
    """Combine member predictions: P @ beta (row-wise convex combination)."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != weights.beta.size:
        raise DataError(f"prediction matrix has {P.shape[1] if P.ndim == 2 else '?'} columns, expected {weights.beta.size}")
    return P @ weights.beta
