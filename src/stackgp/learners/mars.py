"""Multivariate adaptive regression splines.

Forward pass: starting from the intercept, repeatedly add the mirrored hinge
pair parent * (x_v - t)_+ and parent * (t - x_v)_+ whose joint addition most
reduces the training SSE. The reduction is exact, not approximate: candidate
columns are orthogonalised against the current basis (via its QR factors) and
the pair's contribution comes from a 2x2 normal solve, vectorised over all
candidate (variable, knot) pairs of one parent (Friedman 1991). Knots are
drawn from the observed values where the parent is active, thinned to
max_knots per variable. A parent's column never changes once it is in the
basis, so its candidate knots and hinge-pair columns are built once, when it
enters; each forward step only re-projects them against the grown basis. The
first maximum in (parent, variable, knot) order wins.

Backward pass: greedily delete the basis function whose removal costs the
least SSE, tracking generalised cross-validation

    GCV = (SSE / n) / (1 - C / n)^2,  C = n_terms + penalty * n_knots

and return the subset with the lowest GCV, refit by least squares.

Prediction clamps each input column to its training range before it
evaluates the hinges, so the fit extrapolates flat rather than linearly
without bound. Models stored without ranges predict unclamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REDUCTION_EPS = 1e-10   # relative floor for a worthwhile forward step
COL_EPS = 1e-10         # relative norm below which a column is in-span


@dataclass(frozen=True)
class HingeFactor:
    var: int
    sign: int      # +1 keeps (x - knot)_+, -1 keeps (knot - x)_+
    knot: float


@dataclass(frozen=True)
class BasisFunction:
    factors: tuple   # empty tuple is the intercept
    knot_id: int = -1

    @property
    def degree(self) -> int:
        return len(self.factors)

    def involves(self, var: int) -> bool:
        return any(f.var == var for f in self.factors)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        out = np.ones(X.shape[0])
        for f in self.factors:
            out *= np.maximum((X[:, f.var] - f.knot) * f.sign, 0.0)
        return out


@dataclass
class MarsModel:
    functions: list
    coef: np.ndarray
    meta: dict = field(default_factory=dict)
    x_min: np.ndarray | None = None   # per-column training range; None = unclamped
    x_max: np.ndarray | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.x_min is not None:
            if self.x_min.shape != (X.shape[1],) or self.x_max.shape != (X.shape[1],):
                raise ValueError(f"MARS ranges cover {self.x_min.shape} columns, "
                                 f"got {X.shape[1]}")
            X = np.clip(X, self.x_min, self.x_max)
        out = np.zeros(X.shape[0])
        for func, c in zip(self.functions, self.coef):
            out += c * func.evaluate(X)
        return out

    def state_dict(self) -> dict:
        state = {
            "functions": [[[f.var, f.sign, f.knot] for f in func.factors]
                          for func in self.functions],
            "coef": self.coef.tolist(),
        }
        if self.x_min is not None:
            state["x_min"] = self.x_min.tolist()
            state["x_max"] = self.x_max.tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "MarsModel":
        funcs = [BasisFunction(tuple(HingeFactor(int(v), int(s), float(k)) for v, s, k in factors))
                 for factors in state["functions"]]
        ranges = {key: np.asarray(state[key], dtype=float)
                  for key in ("x_min", "x_max") if key in state}
        if len(ranges) == 1:
            raise ValueError("MARS state holds only one of x_min and x_max")
        return cls(functions=funcs, coef=np.asarray(state["coef"], dtype=float), **ranges)


def _candidate_knots(x_active: np.ndarray, max_knots: int) -> np.ndarray:
    """Thinned unique values; the maximum is dropped so (x - t)_+ is live."""
    uniq = np.unique(x_active)
    if uniq.size < 2:
        return np.empty(0)
    uniq = uniq[:-1]
    if uniq.size > max_knots:
        pick = np.unique(np.round(np.linspace(0, uniq.size - 1, max_knots)).astype(int))
        uniq = uniq[pick]
    return uniq


@dataclass(frozen=True)
class _Candidates:
    """Every (variable, knot) hinge pair under one parent, built once."""
    var: np.ndarray       # (K,) variable of each candidate
    knot: np.ndarray      # (K,)
    pos: np.ndarray       # (n, K) parent * (x_var - knot)_+
    neg: np.ndarray       # (n, K) parent * (knot - x_var)_+
    raw_pos: np.ndarray   # (K,) squared norms before projection
    raw_neg: np.ndarray


def _parent_candidates(parent: BasisFunction, pcol: np.ndarray, X: np.ndarray,
                       max_degree: int, max_knots: int) -> _Candidates | None:
    """Candidate hinge pairs in (variable, knot) order; None if the parent has none."""
    if parent.degree >= max_degree:
        return None
    active = pcol > 0
    if not active.any():
        return None
    per_var = [(v, _candidate_knots(X[active, v], max_knots))
               for v in range(X.shape[1]) if not parent.involves(v)]
    knot = np.concatenate([np.empty(0)] + [knots for _, knots in per_var])
    if knot.size == 0:
        return None
    var = np.repeat([v for v, _ in per_var], [knots.size for _, knots in per_var])
    x = X[:, var]
    pos = pcol[:, None] * np.maximum(x - knot[None, :], 0.0)
    neg = pcol[:, None] * np.maximum(knot[None, :] - x, 0.0)
    return _Candidates(var, knot, pos, neg,
                       np.einsum("ij,ij->j", pos, pos), np.einsum("ij,ij->j", neg, neg))


def _pair_reductions(cand: _Candidates, Q, resid):
    """Exact SSE reduction from adding each mirrored hinge pair.

    Returns (reductions, pos_live, neg_live) arrays over the candidates.
    """
    pos = cand.pos - Q @ (Q.T @ cand.pos)
    neg = cand.neg - Q @ (Q.T @ cand.neg)
    a = np.einsum("ij,ij->j", pos, pos)
    b = np.einsum("ij,ij->j", neg, neg)
    c = np.einsum("ij,ij->j", pos, neg)
    gu = pos.T @ resid
    gv = neg.T @ resid
    pos_live = a > COL_EPS * np.maximum(cand.raw_pos, 1e-300)
    neg_live = b > COL_EPS * np.maximum(cand.raw_neg, 1e-300)
    det = a * b - c * c
    both = pos_live & neg_live & (det > 1e-12 * np.maximum(a * b, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        red_pair = (b * gu**2 - 2.0 * c * gu * gv + a * gv**2) / det
        red_pos = np.where(pos_live, gu**2 / a, 0.0)
        red_neg = np.where(neg_live, gv**2 / b, 0.0)
    reductions = np.where(both, red_pair, np.maximum(red_pos, red_neg))
    return np.nan_to_num(reductions, nan=0.0, posinf=0.0, neginf=0.0), pos_live, neg_live


def fit_mars(X, y, params: dict, rng=None) -> MarsModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    max_terms = params["max_terms"]
    max_degree = params["max_degree"]
    max_knots = params["max_knots"]
    penalty = params["gcv_penalty"]

    functions = [BasisFunction(())]
    B = np.ones((n, 1))
    candidates = []   # per basis function, built when it is first a parent
    y_ss = float(y @ y)
    knot_count = 0

    while B.shape[1] + 1 <= max_terms:
        Q, _ = np.linalg.qr(B, mode="reduced")
        resid = y - Q @ (Q.T @ y)
        sse = float(resid @ resid)
        if sse <= 1e-12 * max(y_ss, 1.0):
            break
        candidates += [_parent_candidates(functions[i], B[:, i], X, max_degree, max_knots)
                       for i in range(len(candidates), len(functions))]
        best = None   # (reduction, parent_idx, var, knot, pos_live, neg_live)
        for p_idx, cand in enumerate(candidates):
            if cand is None:
                continue
            reds, pos_live, neg_live = _pair_reductions(cand, Q, resid)
            k = int(np.argmax(reds))
            if best is None or reds[k] > best[0]:
                best = (float(reds[k]), p_idx, int(cand.var[k]), float(cand.knot[k]),
                        bool(pos_live[k]), bool(neg_live[k]))
        if best is None or best[0] <= REDUCTION_EPS * max(sse, 1e-300):
            break
        _, p_idx, v, knot, pos_live, neg_live = best
        parent = functions[p_idx]
        new_cols = []
        for sign, live in ((1, pos_live), (-1, neg_live)):
            if not live:
                continue
            func = BasisFunction(parent.factors + (HingeFactor(v, sign, knot),), knot_id=knot_count)
            functions.append(func)
            new_cols.append(func.evaluate(X))
        if not new_cols:
            break
        knot_count += 1
        B = np.column_stack([B] + new_cols)

    # backward pruning on GCV
    def lsq(subset):
        cols = B[:, subset]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        r = y - cols @ coef
        return subset, coef, float(r @ r)

    def gcv(subset, sse):
        knots_used = {functions[i].knot_id for i in subset if functions[i].knot_id >= 0}
        c_eff = len(subset) + penalty * len(knots_used)
        return np.inf if c_eff >= n else (sse / n) / (1.0 - c_eff / n) ** 2

    subset, _, sse = best = lsq(list(range(len(functions))))
    best_gcv = gcv(subset, sse)
    while len(subset) > 1:
        # drop the term whose removal costs the least SSE, never the intercept;
        # min keeps the first of tied removals
        trials = [lsq([j for j in subset if j != i]) for i in subset[1:]]
        subset, _, sse = trial = min(trials, key=lambda fit: fit[2])
        g = gcv(subset, sse)
        if g < best_gcv:
            best_gcv, best = g, trial
    best_subset, best_coef, best_sse = best

    final_funcs = [functions[i] for i in best_subset]
    return MarsModel(functions=final_funcs, coef=np.asarray(best_coef, dtype=float),
                     meta={"gcv": float(best_gcv), "sse": float(best_sse),
                           "n_forward": len(functions)},
                     x_min=X.min(axis=0), x_max=X.max(axis=0))
