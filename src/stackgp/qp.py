"""Nonnegative quadratic programs by the active set of Lawson & Hanson (1974, NNLS)."""

import numpy as np

from .errors import NumericalError

MAX_STEPS_PER_VARIABLE = 10   # passive-set solves allowed per variable
ADD_TOL = 1e-12               # violations below ADD_TOL * max(1, |Q|, |b|) are rounding


def nonneg_qp(Q, b, *, simplex: bool, name: str):
    """Minimise 0.5 x'Qx - b'x, Q PSD, over x >= 0 and, with simplex, sum(x) = 1.

    Each step adds the largest KKT violator to the passive set, solves its
    system (bordered by the sum-to-one row with simplex) by least squares and
    steps back to the first variable that would turn negative. Returns (x,
    steps, kkt_residual); a simplex solve starts at the best vertex, its first
    step. kkt_residual is the largest violation of stationarity on the support
    and of dual feasibility off it, over max(1, |Q|, |b|).
    """
    n = b.size
    scale = max(1.0, np.abs(Q).max(initial=0.0), np.abs(b).max(initial=0.0))
    x, passive, blocked, steps = np.zeros(n), np.zeros(n, bool), np.zeros(n, bool), 0
    if simplex:
        k = int(np.argmin(0.5 * np.diag(Q) - b))
        x[k], passive[k], steps = 1.0, True, 1
    while True:
        r = b - Q @ x                   # minus the gradient; off the support, minus the
        r -= r @ x if simplex else 0.0  # bound multipliers, net of the sum-to-one one
        w = np.where(passive | blocked, -np.inf, r)
        if w.max(initial=-np.inf) <= ADD_TOL * scale:
            break
        j = int(np.argmax(w))           # the first of tied violators
        passive[j] = True
        while True:
            steps += 1
            if steps > MAX_STEPS_PER_VARIABLE * n:
                raise NumericalError(f"{name}: active-set solve did not finish within {steps - 1} steps")
            idx = np.flatnonzero(passive)
            A, rhs = Q[np.ix_(idx, idx)], b[idx]
            if simplex:   # the sum-to-one row, scaled like Q so that lstsq keeps its rank
                A, rhs = np.pad(A, (0, 1), constant_values=scale), np.append(rhs, scale)
                A[-1, -1] = 0.0
            z = np.zeros(n)
            z[idx] = np.linalg.lstsq(A, rhs, rcond=None)[0][:idx.size]
            if passive[j] and x[j] == 0.0 and z[j] <= 0.0:   # j stays at 0: a rounding violator
                passive[j], blocked[j] = False, True
                break
            neg = passive & (z <= 0.0)
            if not neg.any():   # x moves and the objective drops, so no passive set repeats
                x, blocked = z, np.zeros(n, bool)
                break
            ratio = x[neg] / (x[neg] - z[neg])
            x = np.maximum(x + ratio.min() * (z - x), 0.0)
            x[np.flatnonzero(neg)[np.argmin(ratio)]] = 0.0
            passive &= x > 0.0
    return x, steps, float(max(np.abs(r[x > 0]).max(initial=0.0), r[x == 0].max(initial=0.0)) / scale)
