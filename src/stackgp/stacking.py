"""Stacked-generalisation orchestration.

The protocol: split the n training rows into v folds; for each level-0
learner fit once per fold (training on the complement, predicting the held
fold) to fill the out-of-fold matrix H, and once on all rows to fill the
full-fit matrix P. The level-1 combiner is fitted against (y, H) so its
weights never see a prediction made by a model trained on the target row,
then bound to P for prediction without refitting.

Three designs:
  1: many level-0 learners -> one level-1 combiner (CWM or GP);
  2: each level-0 learner -> its own single-column GP level-1 -> CWM level-2;
  3: one level-0 learner -> several GP level-1 variants with fixed kernel
     overrides -> CWM level-2.

For designs 2/3 the level-2 CWM is fitted on leave-one-fold-out level-1
predictions obtained by re-conditioning each GP per fold with its
hyperparameters held fixed (per-fold re-optimisation is a cost knob left
off by default). repeat_cv_evaluate applies the same re-conditioning
protocol to score the GP stack and the plain-GP baseline out of fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cwm import SimplexWeights, cwm_predict, fit_cwm
from .dataset import CovariateMatrix
from .errors import ConfigError, DataError, StackGpError
from .gp import (GpHyperParams, StackedGpModel, check_fixed, check_gp_options, cov_block,
                 fit_gp_linear_mean, fit_hyperparams, gp_condition_dense, gp_stacked_predict,
                 linear_mean)
from .learners import LearnerSpec, fit_learner
from .metrics import mae, mse, pearson_flagged


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic balanced fold assignment."""

    v: int
    assignment: np.ndarray
    seed: int
    repeat_index: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        object.__setattr__(self, "assignment", a)
        sizes = np.bincount(a, minlength=self.v)
        if sizes.min() < 1:
            raise DataError("every fold must be non-empty")
        if sizes.max() - sizes.min() > 1:
            raise DataError(f"fold sizes must differ by at most 1, got {sizes.tolist()}")

    @property
    def n(self) -> int:
        return self.assignment.size

    def fold_rows(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == j)

    def to_dict(self) -> dict:
        return {"v": self.v, "assignment": self.assignment.tolist(),
                "seed": self.seed, "repeat_index": self.repeat_index}

    @classmethod
    def from_dict(cls, d: dict) -> "FoldPlan":
        return cls(v=int(d["v"]), assignment=np.asarray(d["assignment"], dtype=int),
                   seed=int(d["seed"]), repeat_index=int(d["repeat_index"]))


def make_folds(n: int, v: int, seed: int, repeat_index: int = 0) -> FoldPlan:
    """Balanced random partition, a pure function of (n, v, seed, repeat_index)."""
    if v < 2 or v > n:
        raise ConfigError(f"fold count must satisfy 2 <= v <= n, got v={v}, n={n}")
    rng = np.random.default_rng([seed, repeat_index])
    order = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    # first (n mod v) folds absorb the remainder, so sizes differ by <= 1
    assignment[order] = np.arange(n) * v // n
    return FoldPlan(v=v, assignment=assignment, seed=seed, repeat_index=repeat_index)


@dataclass
class StackState:
    """Everything the stacking pass produced for one training set."""

    P: np.ndarray
    H: np.ndarray
    plan: FoldPlan
    level0: list            # full-fit LearnerModel per column
    level1: object = None   # SimplexWeights | StackedGpModel | Level2Stack
    design: int = 1
    level1_kind: str = ""   # "cwm" | "gp" | "gp+cwm"

    def __post_init__(self):
        if self.P.shape != self.H.shape:
            raise DataError(f"P and H must share shape, got {self.P.shape} vs {self.H.shape}")


@dataclass
class Level2Stack:
    """Per-member GP level-1 models combined by level-2 simplex weights."""

    members: list            # StackedGpModel, one per H column (design 2) or variant (design 3)
    weights: SimplexWeights
    member_columns: list     # H/P column index feeding each member


def _with_columns(values: np.ndarray, columns):
    return CovariateMatrix(values, columns) if columns is not None else values


def _fit_fold_models(X, y, spec: LearnerSpec, plan: FoldPlan, columns=None):
    """One model per fold, trained on the fold's complement."""
    models = []
    for j in range(plan.v):
        held = plan.fold_rows(j)
        train = np.flatnonzero(plan.assignment != j)
        rng = np.random.default_rng([spec.seed, plan.seed, plan.repeat_index, j])
        try:
            models.append((held, fit_learner(spec, _with_columns(X[train], columns),
                                             y[train], rng=rng)))
        except StackGpError as exc:
            raise type(exc)(f"learner '{spec.name}', fold {j}: {exc}") from exc
    return models


def run_level0(X, y, specs, plan: FoldPlan) -> StackState:
    """Fill P (full fits) and H (out-of-fold predictions), column per learner.

    A CovariateMatrix input stamps its column layout onto every fitted
    learner, so later predictions can refuse misaligned designs.
    """
    if not specs:
        raise ConfigError("run_level0 needs at least one learner spec")
    columns = None
    if isinstance(X, CovariateMatrix):
        columns = X.columns
        X = X.values
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if plan.n != n:
        raise DataError(f"fold plan covers {plan.n} rows, data has {n}")
    P = np.empty((n, len(specs)))
    H = np.empty((n, len(specs)))
    level0 = []
    for i, spec in enumerate(specs):
        rng = np.random.default_rng([spec.seed, plan.seed, plan.repeat_index, plan.v])
        try:
            full = fit_learner(spec, _with_columns(X, columns), y, rng=rng)
        except StackGpError as exc:
            raise type(exc)(f"learner '{spec.name}', full fit: {exc}") from exc
        P[:, i] = full.predict(X)
        for held, model in _fit_fold_models(X, y, spec, plan, columns):
            H[held, i] = model.predict(X[held])
        level0.append(full)
    return StackState(P=P, H=H, plan=plan, level0=level0)


def _points_array(locations) -> np.ndarray:
    pts = np.asarray(locations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"locations must be (n, 3) rows of (lon, lat, t), got {pts.shape}")
    return pts


def fold_oof_gp(y, mean_all, params: GpHyperParams, points, plan: FoldPlan) -> np.ndarray:
    """Leave-one-fold-out GP predictions by re-conditioning per fold.

    Hyperparameters stay fixed; only the conditioning set changes. mean_all
    is the GP mean evaluated at every row.
    """
    points = _points_array(points)
    ref_lat = float(points[:, 1].mean())
    K = cov_block(points, points, params, ref_lat)
    mean_all = np.asarray(mean_all, dtype=float)
    y = np.asarray(y, dtype=float)
    oof = np.empty(len(y))
    for j in range(plan.v):
        held = plan.fold_rows(j)
        train = np.flatnonzero(plan.assignment != j)
        post = gp_condition_dense(
            y[train], mean_all[train], mean_all[held],
            K[np.ix_(train, train)], K[np.ix_(train, held)],
            np.diag(K)[held], params.sigma_e2)
        oof[held] = post.mu_star
    return oof


def fit_design1(X, y, locations, specs, level1: str, plan: FoldPlan,
                gp_options: dict | None = None) -> StackState:
    """Many level-0 learners combined by one level-1 generaliser."""
    if level1 not in ("cwm", "gp"):
        raise ConfigError(f"level1 must be 'cwm' or 'gp', got {level1!r}")
    # checked before any level-0 fit; a pinned beta weights every learner column
    check_gp_options(gp_options, len(specs))
    state = run_level0(X, y, specs, plan)
    state.design = 1
    state.level1_kind = level1
    y = np.asarray(y, dtype=float)
    if level1 == "cwm":
        state.level1 = fit_cwm(state.H, y)
        return state
    points = _points_array(locations)
    params = fit_hyperparams(y, state.H, points, **(gp_options or {}))
    state.level1 = StackedGpModel(params=params, train_points=points,
                                  P_train=state.P, y=y,
                                  ref_lat=float(points[:, 1].mean()))
    return state


def _fit_level2(state: StackState, y, locations, plan: FoldPlan, members,
                gp_options: dict | None) -> StackState:
    """One GP level-1 per (H column, fixed overrides) member, CWM level-2 on top.

    A member's overrides win over gp_options["fixed"]; the level-2 weights
    are fitted on the members' leave-one-fold-out predictions.
    """
    y = np.asarray(y, dtype=float)
    opts = dict(gp_options or {})
    fixed = opts.pop("fixed", None) or {}
    points = _points_array(locations)
    ref_lat = float(points[:, 1].mean())
    models, oof_cols = [], []
    for col, variant in members:
        params = fit_hyperparams(y, state.H[:, [col]], points,
                                 fixed={**fixed, **variant}, **opts)
        models.append(StackedGpModel(params=params, train_points=points,
                                     P_train=state.P[:, [col]], y=y, ref_lat=ref_lat))
        oof_cols.append(fold_oof_gp(y, state.H[:, col], params, points, plan))
    state.level1_kind = "gp+cwm"
    state.level1 = Level2Stack(members=models, weights=fit_cwm(np.column_stack(oof_cols), y),
                               member_columns=[col for col, _ in members])
    return state


def fit_design2(X, y, locations, specs, plan: FoldPlan,
                gp_options: dict | None = None) -> StackState:
    """Each learner gets its own GP level-1; a CWM level-2 combines them."""
    check_gp_options(gp_options, 1)
    state = run_level0(X, y, specs, plan)
    state.design = 2
    return _fit_level2(state, y, locations, plan, [(i, {}) for i in range(len(specs))],
                       gp_options)


def fit_design3(X, y, locations, spec, gp_variants, plan: FoldPlan,
                gp_options: dict | None = None) -> StackState:
    """One learner feeding several GP level-1 variants, CWM level-2 on top.

    Each variant is a dict of fixed natural-scale kernel overrides (e.g.
    {"log_kappa": ...} for a pinned range, {"phi": 0.0} for no dynamics);
    its keys win over the same keys in gp_options["fixed"].
    """
    if not isinstance(gp_variants, (list, tuple)) or not gp_variants:
        raise ConfigError("design 3 needs stacking.gp_variants, a non-empty list "
                          "of fixed-parameter mappings")
    for i, variant in enumerate(gp_variants):
        check_fixed(variant, 1, f"stacking.gp_variants[{i}]")
    check_gp_options(gp_options, 1)
    state = run_level0(X, y, [spec], plan)
    state.design = 3
    return _fit_level2(state, y, locations, plan, [(0, variant) for variant in gp_variants],
                       gp_options)


def predict_stack(state: StackState, P_pred, pred_points=None) -> np.ndarray:
    """Final-prediction path: bind the fitted level-1 to full-fit predictions."""
    P_pred = np.asarray(P_pred, dtype=float)
    if P_pred.ndim != 2 or P_pred.shape[1] != state.P.shape[1]:
        raise DataError(f"P_pred must have {state.P.shape[1]} columns, got {P_pred.shape}")
    if state.level1_kind == "cwm":
        return cwm_predict(state.level1, P_pred)
    if pred_points is None:
        raise DataError("GP level-1 prediction needs the prediction points")
    if state.level1_kind == "gp":
        return gp_stacked_predict(state.level1, P_pred, pred_points).mu_star
    return level2_mean_sd(state.level1, P_pred, pred_points)[0]


def level2_mean_sd(stack: Level2Stack, P_pred, pred_points) -> tuple:
    """Simplex-weighted mean and sd of the level-2 members' GP predictions.

    Member k sees only column member_columns[k] of P_pred. Weighting the sds
    like the means is exact if the members were perfectly correlated and
    conservative otherwise.
    """
    P_pred = np.asarray(P_pred, dtype=float)
    mean = np.zeros(P_pred.shape[0])
    sd = np.zeros(P_pred.shape[0])
    for w, member, col in zip(stack.weights.beta, stack.members, stack.member_columns):
        post = gp_stacked_predict(member, P_pred[:, [col]], pred_points)
        mean += w * post.mu_star
        sd += w * post.sd
    return mean, sd


CV_METHOD_CWM = "cwm-stack"
CV_METHOD_GP = "gp-stack"
CV_METHOD_PLAIN = "plain-gp"
CV_METHODS = ("level0", CV_METHOD_CWM, CV_METHOD_GP, CV_METHOD_PLAIN)


@dataclass
class CvRow:
    method: str
    region: str
    repeat: int
    mse: float
    mae: float
    correlation: float
    degenerate: bool = False


@dataclass
class CvResult:
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)   # dicts, one per method


def _summarise(rows, region: str) -> list:
    methods = []
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
    out = []
    for method in methods:
        picked = [r for r in rows if r.method == method]
        out.append({
            "method": method,
            "region": region,
            "mse": float(np.mean([r.mse for r in picked])),
            "mae": float(np.mean([r.mae for r in picked])),
            "correlation": float(np.mean([r.correlation for r in picked])),
            "n_degenerate_correlation": int(sum(r.degenerate for r in picked)),
        })
    return out


def repeat_cv_evaluate(X, y, locations, specs, v: int = 5, repeats: int = 5,
                       seed: int = 0, region: str = "region",
                       gp_options: dict | None = None,
                       methods=CV_METHODS) -> CvResult:
    """Repeated v-fold scoring of every method's out-of-fold predictions.

    Level-0 columns are scored on H directly. The CWM stack is scored on
    H @ beta-hat, which is out-of-fold at level 0 but in-sample for the
    level-1 weights (documented trade-off). The GP stack and the plain GP
    refit nothing per fold: hyperparameters are optimised once per repeat on
    the full data and each fold is re-conditioned on its complement.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    unknown = [m for m in methods if m not in CV_METHODS]
    if unknown:
        raise ConfigError(f"cv methods {unknown} unknown; valid methods are {list(CV_METHODS)}")
    # learner names label CV rows next to the stack methods
    names = [spec.name for spec in specs]
    clashes = sorted({name for name in names if names.count(name) > 1 or name in CV_METHODS[1:]})
    if clashes:
        raise ConfigError(f"learner names must be unique and differ from the CV method "
                          f"names {list(CV_METHODS[1:])}; got {clashes}")
    fixed = check_gp_options(gp_options, len(specs))
    gp_options = dict(gp_options or {})
    fixed.pop("beta", None)    # the plain GP's mean is a GLS fit, not a stack
    plain_options = {**gp_options, "fixed": fixed}
    if isinstance(X, CovariateMatrix):
        X = X.values
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    points = _points_array(locations)
    result = CvResult()

    def score(method, repeat, yhat):
        corr, flag = pearson_flagged(yhat, y)
        result.rows.append(CvRow(method=method, region=region, repeat=repeat,
                                 mse=mse(yhat, y), mae=mae(yhat, y),
                                 correlation=corr, degenerate=flag))

    for r in range(repeats):
        plan = make_folds(len(y), v, seed, repeat_index=r)
        state = run_level0(X, y, specs, plan)
        if "level0" in methods:
            for i, spec in enumerate(specs):
                score(spec.name, r, state.H[:, i])
        if CV_METHOD_CWM in methods:
            weights = fit_cwm(state.H, y)
            score(CV_METHOD_CWM, r, cwm_predict(weights, state.H))
        if CV_METHOD_GP in methods:
            params = fit_hyperparams(y, state.H, points, **gp_options)
            score(CV_METHOD_GP, r, fold_oof_gp(y, state.H @ params.beta, params,
                                               points, plan))
        if CV_METHOD_PLAIN in methods:
            params, mean_state = fit_gp_linear_mean(y, X, points, **plain_options)
            score(CV_METHOD_PLAIN, r, fold_oof_gp(y, linear_mean(mean_state, X),
                                                  params, points, plan))
    result.summary = _summarise(result.rows, region)
    return result
