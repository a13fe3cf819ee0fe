"""Limited-memory BFGS minimisation in numpy (Liu & Nocedal 1989).

minimize keeps the last MEMORY (s, y) pairs and steps along the two-loop
quasi-Newton direction, with H0 = s'y / y'y of the newest pair, from a
strong-Wolfe line search (Nocedal & Wright 2006, Alg. 3.5/3.6) that brackets
and then zooms with safeguarded cubic steps, as in Moré & Thuente (1994).
Its tolerances are scipy's L-BFGS-B defaults, held as constants. A trial
point whose value is not finite or lies above the sufficient-decrease line
(such as a caller's penalty value for a failed evaluation) bounds the
bracket, so the search steps back from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEMORY = 10                     # (s, y) pairs kept
GTOL = 1e-5                     # stop when max |g_i| <= GTOL
FTOL = 2.220446049250313e-09    # stop when (f_old - f) / max(|f_old|, |f|, 1) <= FTOL
MAX_LINE_SEARCH = 20            # evaluations per line search
C1, C2 = 1e-3, 0.9              # strong Wolfe: sufficient decrease, curvature
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class OptimizeResult:
    """Where minimize stopped: x, f there, iterations, calls of fun, and why."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    message: str


def minimize(fun, x0, jac, *, max_iter: int) -> OptimizeResult:
    """Minimise fun from x0 by L-BFGS, with jac its gradient.

    jac is called once after each call of fun, at the same point, so a pair
    that shares one evaluation costs one. A run succeeds when the gradient's
    max-norm falls to GTOL or an iteration lowers f by at most FTOL of its
    size; it fails after max_iter iterations, or when a line search along
    steepest descent finds no lower point.
    """
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        return float(fun(x)), np.asarray(jac(x), dtype=float)

    x = np.array(x0, dtype=float)
    f, g = evaluate(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []    # (s, y, 1 / y's), oldest first
    nit, f_old = 0, None

    def done(success: bool, message: str) -> OptimizeResult:
        return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, success=success, message=message)

    while True:
        if np.max(np.abs(g), initial=0.0) <= GTOL:
            return done(True, "gradient max-norm <= GTOL")
        if f_old is not None and f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            return done(True, "relative reduction of f <= FTOL")
        if nit >= max_iter:
            return done(False, "iteration limit reached")
        d = -_two_loop(g, pairs)
        slope = float(g @ d)
        if not slope < 0:               # rounding broke descent: forget the curvature
            pairs.clear()
            d, slope = -g, -float(g @ g)
        first = 1.0 / np.linalg.norm(d) if not pairs else 1.0
        found = _line_search(evaluate, x, f, slope, d, first)
        if found is None:
            if not pairs:
                return done(False, "line search found no lower point")
            pairs.clear()
            continue
        step, f_new, g_new = found
        s, y = step * d, g_new - g
        x, f_old, f, g = x + s, f, f_new, g_new
        nit += 1
        ys = float(y @ s)
        if ys > EPS * -slope * step:
            pairs.append((s, y, 1.0 / ys))
            del pairs[:-MEMORY]


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """H g for the L-BFGS inverse Hessian H of pairs, H0 = s'y / y'y of the newest."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def _line_search(evaluate, x, f0: float, slope0: float, d, step: float):
    """(step, f, g) at a strong-Wolfe point along d from x, or None.

    Trials double as bracket ends (step, f, slope). While f keeps falling
    the step grows; once a trial fails sufficient decrease, or the slope
    turns up, the bracket is zoomed, by bisection whenever two trials have
    not cut its width to 0.66 of what it was. After MAX_LINE_SEARCH trials the
    lowest point found with sufficient decrease is taken, if there is one.
    """
    prev = (0.0, f0, slope0)
    lo = hi = None
    best = None
    widths = [np.inf, np.inf]       # the bracket's width one and two updates back
    for _ in range(MAX_LINE_SEARCH):
        f, g = evaluate(x + step * d)
        slope = float(g @ d)
        trial = (step, f, slope)
        decrease = f <= f0 + C1 * step * slope0
        if decrease and abs(slope) <= -C2 * slope0:
            return step, f, g
        if decrease and (best is None or f < best[1]):
            best = (step, f, g)
        if lo is None:                  # still growing the step
            if not decrease or f >= prev[1]:
                lo, hi = prev, trial
            elif slope >= 0:
                lo, hi = trial, prev
            else:
                step = _cubic_step(prev, trial, step + 1.1 * (step - prev[0]),
                                   step + 4.0 * (step - prev[0]))
                prev = trial
                continue
        elif not decrease or f >= lo[1]:
            hi = trial
        else:
            if slope * (hi[0] - lo[0]) >= 0:
                hi = lo
            lo = trial
        width = hi[0] - lo[0]
        if abs(width) >= 0.66 * widths[1]:     # too slow a shrink: bisect (Moré & Thuente)
            step = lo[0] + 0.5 * width
        else:
            step = _cubic_step(lo, hi, lo[0] + 0.1 * width, hi[0] - 0.1 * width)
        widths = [abs(width), widths[0]]
    return best


def _cubic_step(a, b, low: float, high: float) -> float:
    """The minimiser of the cubic through two (step, f, slope) points, clipped
    to [low, high] (either order); their midpoint where it has none."""
    (sa, fa, ga), (sb, fb, gb) = a, b
    with np.errstate(all="ignore"):
        d1 = ga + gb - 3.0 * (fa - fb) / (sa - sb)
        d2 = np.sign(sb - sa) * np.sqrt(d1 * d1 - ga * gb)
        step = sb - (sb - sa) * (gb + d2 - d1) / (gb - ga + 2.0 * d2)
    if not np.isfinite(step):
        step = 0.5 * (low + high)
    return float(min(max(step, min(low, high)), max(low, high)))
