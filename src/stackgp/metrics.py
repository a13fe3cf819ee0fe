"""Generalisation metrics and the ambiguity decomposition of ensemble error.

For a convex combination of models the squared ensemble error splits exactly
into the weighted average of member errors minus the weighted spread of the
members around the ensemble (the ambiguity):

    e(x) = eps_bar(x) - a_bar(x)        pointwise, for any simplex weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cwm import on_simplex
from .errors import DataError

DEGENERATE_CORRELATION = 0.0


def _check_vectors(yhat, y, min_len: int = 1):
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.shape != y.shape or yhat.ndim != 1:
        raise DataError(f"metric inputs must be equal-length vectors, got {yhat.shape} vs {y.shape}")
    if yhat.size < min_len:
        raise DataError(f"metric inputs need at least {min_len} entries, got {yhat.size}")
    return yhat, y


def mse(yhat, y) -> float:
    yhat, y = _check_vectors(yhat, y)
    return float(np.mean((yhat - y) ** 2))


def mae(yhat, y) -> float:
    yhat, y = _check_vectors(yhat, y)
    return float(np.mean(np.abs(yhat - y)))


def pearson_flagged(yhat, y) -> tuple[float, bool]:
    """Pearson correlation plus a degeneracy flag.

    Returns ``(r, degenerate)``; a zero-variance input makes the coefficient
    undefined, reported as 0.0 with ``degenerate=True``.
    """
    yhat, y = _check_vectors(yhat, y, min_len=2)
    sy, sh = np.std(y), np.std(yhat)
    if sy == 0.0 or sh == 0.0:
        return DEGENERATE_CORRELATION, True
    r = float(np.mean((yhat - yhat.mean()) * (y - y.mean())) / (sh * sy))
    return float(np.clip(r, -1.0, 1.0)), False


@dataclass(frozen=True)
class DecompositionReport:
    """Aggregate ambiguity decomposition over the evaluation points.

    ``residual`` is the worst pointwise violation of the identity
    e = eps_bar - a_bar; it is floating-point noise for valid inputs.
    """

    weighted_error: float
    ambiguity: float
    ensemble_error: float
    residual: float
    pointwise: dict = field(repr=False, default_factory=dict)


def ambiguity_decomposition(predictions, beta, f) -> DecompositionReport:
    """Decompose the error of the convex ensemble ``predictions @ beta``.

    predictions : (n, L) member predictions at the evaluation points
    beta        : simplex weights (length L)
    f           : target values (length n)
    """
    P = np.asarray(predictions, dtype=float)
    b = on_simplex(getattr(beta, "beta", beta))
    f = np.asarray(f, dtype=float)
    if P.ndim != 2 or P.shape[1] != b.size or P.shape[0] != f.size:
        raise DataError(f"shape mismatch: predictions {P.shape}, beta {b.shape}, f {f.shape}")

    ens = P @ b
    eps_i = (P - f[:, None]) ** 2          # member squared errors
    a_i = (P - ens[:, None]) ** 2          # member ambiguities
    eps_bar = eps_i @ b
    a_bar = a_i @ b
    e = (f - ens) ** 2
    residual = float(np.max(np.abs(eps_bar - a_bar - e))) if f.size else 0.0
    return DecompositionReport(
        weighted_error=float(eps_bar.mean()),
        ambiguity=float(a_bar.mean()),
        ensemble_error=float(e.mean()),
        residual=residual,
        pointwise={"weighted_error": eps_bar, "ambiguity": a_bar, "ensemble_error": e},
    )
