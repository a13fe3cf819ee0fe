"""Stacked-generalisation orchestration.

The protocol: split the n training rows into v folds; run_level0 fits each
level-0 learner once per fold (training on the complement, predicting the
held fold) to fill the out-of-fold matrix H, and fit_stack adds one fit on
all rows per learner to fill the full-fit matrix P. The level-1 combiner is
fitted against (y, H) so its weights never see a prediction made by a model
trained on the target row, then bound to P for prediction without refitting.
Cross-validation scores H only, so repeat_cv_evaluate makes no full fits.

Three designs:
  1: many level-0 learners -> one level-1 combiner (CWM or GP);
  2: each level-0 learner -> its own single-column GP level-1 -> CWM level-2;
  3: one level-0 learner -> several GP level-1 variants with fixed kernel
     overrides -> CWM level-2.

For designs 2/3 the level-2 CWM is fitted on leave-one-fold-out level-1
predictions obtained by re-conditioning each GP per fold with its
hyperparameters held fixed: they are fitted once on all rows and never
re-optimised per fold. repeat_cv_evaluate applies the same re-conditioning
protocol to score the GP stack and the plain-GP baseline out of fold, each
fold reading the fitted model's own training geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cwm import SimplexWeights, cwm_predict, fit_cwm
from .dataset import CovariateMatrix
from .errors import ConfigError, DataError, SchemaError, StackGpError
from .gp import (StackedGpModel, check_fixed, check_gp_options, cov_block, fit_gp_linear_mean,
                 fit_hyperparams, gp_condition_dense, gp_stacked_predict)
from .learners import LearnerModel, LearnerSpec, fit_learner
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
class Level2Stack:
    """Per-member GP level-1 models combined by level-2 simplex weights."""

    members: list            # StackedGpModel, one per H column (design 2) or variant (design 3)
    weights: SimplexWeights
    member_columns: list     # H/P column index feeding each member

    def __post_init__(self):
        sizes = (len(self.members), self.weights.beta.size, len(self.member_columns))
        if len(set(sizes)) != 1:
            raise DataError(f"level-2 stack has {sizes[0]} members, {sizes[1]} weights "
                            f"and {sizes[2]} member columns")

    def to_dict(self) -> dict:
        return {"members": [m.to_dict() for m in self.members],
                "weights": self.weights.to_dict(),
                "member_columns": list(self.member_columns)}

    @classmethod
    def from_dict(cls, d: dict) -> "Level2Stack":
        return cls(members=[StackedGpModel.from_dict(m) for m in d["members"]],
                   weights=SimplexWeights.from_dict(d["weights"]),
                   member_columns=[int(c) for c in d["member_columns"]])


# level-1 kind, as model files and StackState.level1_kind name it -> level-1 type
LEVEL1_KINDS = {"cwm": SimplexWeights, "gp": StackedGpModel, "gp+cwm": Level2Stack}


@dataclass
class StackState:
    """Everything the stacking pass produced for one training set.

    Fitted and loaded stacks alike are checked on construction: the parts must agree.
    """

    P: np.ndarray
    H: np.ndarray
    plan: FoldPlan
    level0: list            # full-fit LearnerModel per column
    level1: object          # one of the LEVEL1_KINDS types
    design: int = 1

    def __post_init__(self):
        if self.P.ndim != 2 or self.P.shape != self.H.shape:
            raise DataError(f"P and H must share a 2-d shape, got {self.P.shape}, {self.H.shape}")
        width = self.P.shape[1]
        if len(self.level0) != width:
            raise DataError(f"{len(self.level0)} level-0 models for the {width} columns of P")
        if isinstance(self.level1, Level2Stack):
            bad = [c for c in self.level1.member_columns if not 0 <= c < width]
            if bad:
                raise DataError(f"member columns {bad} outside the {width} columns of P")
        else:
            level1 = self.level1.params if isinstance(self.level1, StackedGpModel) else self.level1
            if level1.beta.size != width:
                raise DataError(f"level-1 has {level1.beta.size} weights for {width} columns of P")

    @property
    def level1_kind(self) -> str:
        """The level-1 type's kind: "cwm", "gp" or "gp+cwm"."""
        return next(kind for kind, cls in LEVEL1_KINDS.items() if isinstance(self.level1, cls))

    def to_dict(self) -> dict:
        return {"design": self.design, "level1_kind": self.level1_kind,
                "plan": self.plan.to_dict(), "level0": [m.to_dict() for m in self.level0],
                "P": self.P.tolist(), "H": self.H.tolist(), "level1": self.level1.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "StackState":
        kind = d["level1_kind"]
        if kind not in LEVEL1_KINDS:
            raise SchemaError(f"unknown level-1 kind {kind!r} in model file")
        return cls(P=np.asarray(d["P"], dtype=float), H=np.asarray(d["H"], dtype=float),
                   plan=FoldPlan.from_dict(d["plan"]),
                   level0=[LearnerModel.from_dict(m) for m in d["level0"]],
                   level1=LEVEL1_KINDS[kind].from_dict(d["level1"]), design=int(d["design"]))


def _fit_level0(X, y, spec: LearnerSpec, plan: FoldPlan, key: int, columns):
    """Fit on the complement of fold key (every row for key = plan.v); key joins the RNG stream."""
    rows = np.flatnonzero(plan.assignment != key)
    rng = np.random.default_rng([spec.seed, plan.seed, plan.repeat_index, key])
    train = CovariateMatrix(X[rows], columns) if columns is not None else X[rows]
    try:
        return fit_learner(spec, train, y[rows], rng=rng)
    except StackGpError as exc:
        where = "full fit" if key == plan.v else f"fold {key}"
        raise type(exc)(f"learner '{spec.name}', {where}: {exc}") from exc


def _level0_inputs(X, y, specs, plan: FoldPlan) -> tuple:
    """(X as floats, its column layout, y as floats). A CovariateMatrix X stamps its
    layout onto every fitted learner, so that predictions refuse misaligned designs."""
    if not specs:
        raise ConfigError("run_level0 needs at least one learner spec")
    columns = None
    if isinstance(X, CovariateMatrix):
        columns = X.columns
        X = X.values
    y = np.asarray(y, dtype=float)
    if plan.n != len(y):
        raise DataError(f"fold plan covers {plan.n} rows, data has {len(y)}")
    return np.asarray(X, dtype=float), columns, y


def run_level0(X, y, specs, plan: FoldPlan) -> np.ndarray:
    """The out-of-fold matrix H: column i holds learner i's predictions of each
    fold from its fit on the other folds."""
    X, columns, y = _level0_inputs(X, y, specs, plan)
    H = np.empty((len(y), len(specs)))
    for i, spec in enumerate(specs):
        for j in range(plan.v):
            held = plan.fold_rows(j)
            H[held, i] = _fit_level0(X, y, spec, plan, j, columns).predict(X[held])
    return H


def fold_oof_gp(model, mean_all, plan: FoldPlan) -> np.ndarray:
    """Leave-one-fold-out predictions of a fitted GP model by re-conditioning per fold.

    model is a StackedGpModel or PlainGpModel; its y, training points,
    hyperparameters and reference latitude stay fixed, and only the
    conditioning set changes. mean_all is the GP mean evaluated at every row.
    """
    params = model.params
    K = cov_block(model.train_points, model.train_points, params, model.ref_lat)
    mean_all = np.asarray(mean_all, dtype=float)
    oof = np.empty(len(model.y))
    for j in range(plan.v):
        held = plan.fold_rows(j)
        train = np.flatnonzero(plan.assignment != j)
        post = gp_condition_dense(
            model.y[train], mean_all[train], mean_all[held],
            K[np.ix_(train, train)], K[np.ix_(train, held)],
            np.diag(K)[held], params.sigma_e2)
        oof[held] = post.mu_star
    return oof


def check_stack(design, specs, level1=None, gp_variants=None, gp_options=None) -> None:
    """Refuse, before any fit, a stack that its design would not read as written.

    level1 belongs to design 1 and gp_variants to design 3; design is 1, 2, 3
    or "plain-gp", which reads neither (config.KEYS checks the design itself).
    """
    if level1 is not None and design != 1:
        raise ConfigError(f"stacking.level1 applies to design 1 only, not design {design!r}")
    if gp_variants is not None and design != 3:
        raise ConfigError(f"stacking.gp_variants applies to design 3 only, "
                          f"not design {design!r}")
    if design == 1 and level1 not in (None, "cwm", "gp"):
        raise ConfigError(f"level1 must be 'cwm' or 'gp', got {level1!r}")
    if design == 3:
        if len(specs) != 1:
            raise ConfigError(f"design 3 takes exactly one learner, got {len(specs)}")
        if not isinstance(gp_variants, (list, tuple)) or not gp_variants:
            raise ConfigError("design 3 needs stacking.gp_variants, a non-empty list "
                              "of fixed-parameter mappings")
        for i, variant in enumerate(gp_variants):
            check_fixed(variant, 1, f"stacking.gp_variants[{i}]")
    # a pinned beta weights every learner column of design 1, one column otherwise
    check_gp_options(gp_options, len(specs) if design == 1 else 1)


def fit_stack(design, X, y, locations, specs, plan: FoldPlan, *, level1=None,
              gp_variants=None, gp_options: dict | None = None) -> StackState:
    """Fit stack design 1, 2 or 3 (see the module docstring) on the learners specs.

    level1 is design 1's combiner, "cwm" or "gp" (the default). gp_variants
    is design 3's list of fixed natural-scale kernel overrides, one GP
    level-1 each (e.g. {"log_kappa": ...} for a pinned range, {"phi": 0.0}
    for no dynamics). A member's overrides win over gp_options["fixed"], and
    the level-2 weights are fitted on the members' leave-one-fold-out
    predictions. check_stack runs first, so a bad option fails before any fit.
    """
    if design not in (1, 2, 3):
        raise ConfigError(f"fit_stack fits designs 1, 2 and 3, got {design!r}")
    check_stack(design, specs, level1, gp_variants, gp_options)
    values, columns, y = _level0_inputs(X, y, specs, plan)
    level0 = [_fit_level0(values, y, spec, plan, plan.v, columns) for spec in specs]
    P = np.column_stack([model.predict(values) for model in level0])
    H = run_level0(X, y, specs, plan)
    if level1 == "cwm":
        return StackState(P=P, H=H, plan=plan, level0=level0, level1=fit_cwm(H, y))
    opts = dict(gp_options or {})
    fixed = opts.pop("fixed", None) or {}
    points = np.asarray(locations, dtype=float)

    def fit_gp(cols, variant: dict) -> StackedGpModel:
        params = fit_hyperparams(y, H[:, cols], points, fixed={**fixed, **variant}, **opts)
        return StackedGpModel(params=params, train_points=points, P_train=P[:, cols], y=y)

    if design == 1:
        return StackState(P=P, H=H, plan=plan, level0=level0,
                          level1=fit_gp(slice(None), {}))
    members = ([(i, {}) for i in range(len(specs))] if design == 2
               else [(0, variant) for variant in gp_variants])
    models, oof = [], []
    for col, variant in members:
        models.append(fit_gp([col], variant))
        oof.append(fold_oof_gp(models[-1], H[:, col], plan))
    return StackState(P=P, H=H, plan=plan, level0=level0, design=design,
                      level1=Level2Stack(members=models, weights=fit_cwm(np.column_stack(oof), y),
                                         member_columns=[col for col, _ in members]))


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
    refit nothing per fold: hyperparameters are optimised on the full data,
    once per repeat for the stack and once per call for the plain GP, and
    each fold is re-conditioned on its complement.
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
    points = np.asarray(locations, dtype=float)
    result = CvResult()

    def score(method, repeat, yhat):
        corr, flag = pearson_flagged(yhat, y)
        result.rows.append(CvRow(method=method, region=region, repeat=repeat,
                                 mse=mse(yhat, y), mae=mae(yhat, y),
                                 correlation=corr, degenerate=flag))

    if CV_METHOD_PLAIN in methods:
        plain = fit_gp_linear_mean(y, X, points, **plain_options)
    for r in range(repeats):
        plan = make_folds(len(y), v, seed, repeat_index=r)
        H = run_level0(X, y, specs, plan)
        if "level0" in methods:
            for i, spec in enumerate(specs):
                score(spec.name, r, H[:, i])
        if CV_METHOD_CWM in methods:
            weights = fit_cwm(H, y)
            score(CV_METHOD_CWM, r, cwm_predict(weights, H))
        if CV_METHOD_GP in methods:
            params = fit_hyperparams(y, H, points, **gp_options)
            model = StackedGpModel(params=params, train_points=points, P_train=H, y=y)
            score(CV_METHOD_GP, r, fold_oof_gp(model, model.mean_train, plan))
        if CV_METHOD_PLAIN in methods:
            score(CV_METHOD_PLAIN, r, fold_oof_gp(plain, plain.mean_train, plan))
    result.summary = _summarise(result.rows, region)
    return result
