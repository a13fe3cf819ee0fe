"""Learner registry: specs, validation, fitting, and serialisation.

A LearnerSpec is (kind, params). Params are validated strictly: unknown params
and out-of-range values are configuration errors, not warnings, so a typo in
a run config fails before any compute happens. fit_learner dispatches to the
per-kind fit functions and wraps the result with the design-column layout it
was trained on; predict refuses a design whose columns do not line up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (check_keys, check_values, fraction, int_at_least, non_negative_real,
                      optional, positive_real)
from ..dataset import ColumnInfo, CovariateMatrix
from ..errors import ConfigError, DataError, SchemaError
from .boosting import GbtModel, fit_gbt
from .elastic_net import EnetModel, fit_enet
from .forest import ForestModel, fit_rf
from .gam import GamModel, fit_gam
from .mars import MarsModel, fit_mars


def _lambda_grid(v):
    if v is None:
        return True
    values = list(v) if hasattr(v, "__iter__") else []
    return bool(values) and all(non_negative_real(x) for x in values)


# kind -> {param: (default, check, description)}
PARAM_SCHEMAS = {
    "gbt": {
        "n_rounds": (150, int_at_least(0), "an integer >= 0"),
        "learning_rate": (0.1, positive_real, "a finite real > 0"),
        "max_depth": (3, int_at_least(1), "an integer >= 1"),
        "min_samples_leaf": (5, int_at_least(1), "an integer >= 1"),
        "subsample_rows": (0.8, fraction, "a real in (0, 1]"),
        "subsample_cols": (1.0, fraction, "a real in (0, 1]"),
    },
    "rf": {
        "n_trees": (60, int_at_least(1), "an integer >= 1"),
        "max_depth": (12, optional(int_at_least(1)), "an integer >= 1 or null"),
        "min_samples_leaf": (5, int_at_least(1), "an integer >= 1"),
        "max_features": (None, optional(int_at_least(1)), "an integer >= 1 or null (ceil(m/3))"),
        "bootstrap": (True, lambda v: isinstance(v, bool), "true or false"),
    },
    "enet": {
        "lambda1": (1.0, non_negative_real, "a finite real >= 0"),
        "lambda2": (1.0, non_negative_real, "a finite real >= 0"),
    },
    "gam": {
        "n_splines": (8, int_at_least(4), "an integer >= 4"),
        "lambda_grid": (None, _lambda_grid, "a non-empty list of finite reals >= 0, or null"),
    },
    "mars": {
        "max_terms": (15, int_at_least(2), "an integer >= 2"),
        "max_degree": (2, int_at_least(1), "an integer >= 1"),
        "max_knots": (15, int_at_least(1), "an integer >= 1"),
        "gcv_penalty": (3.0, non_negative_real, "a finite real >= 0"),
    },
}
_SPEC_FIELDS = {"seed": (int_at_least(0), "a non-negative integer"),
                "name": (lambda v: isinstance(v, str), "a string")}

_FIT = {"gbt": fit_gbt, "rf": fit_rf, "enet": fit_enet, "gam": fit_gam, "mars": fit_mars}
_MODEL_CLS = {"gbt": GbtModel, "rf": ForestModel, "enet": EnetModel, "gam": GamModel,
              "mars": MarsModel}

LEARNER_KINDS = tuple(PARAM_SCHEMAS)

# parameters that older model files may still carry: the enet's from before
# its active-set solve, the GAM's from before its one exact solve
_RETIRED_PARAMS = {"enet": ("max_iter", "tol"), "gam": ("max_backfit", "tol")}


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in PARAM_SCHEMAS:
            raise ConfigError(f"unknown learner kind {self.kind!r}, expected one of {sorted(PARAM_SCHEMAS)}")
        where = f"learner '{self.kind}': "
        check_values(where, vars(self), _SPEC_FIELDS)
        schema = PARAM_SCHEMAS[self.kind]
        check_keys(f"learner '{self.kind}' params", self.params, schema)
        object.__setattr__(self, "params", check_values(
            where, {key: self.params.get(key, default) for key, (default, *_) in schema.items()},
            schema))
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed, "name": self.name}

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerSpec":
        check_keys("learner entry", d, ("kind", "params", "seed", "name"))
        return cls(kind=d.get("kind"), params=d.get("params", {}),
                   seed=d.get("seed", 0), name=d.get("name", ""))


@dataclass
class LearnerModel:
    spec: LearnerSpec
    model: object
    columns: tuple | None   # ColumnInfo layout captured at fit time, if known

    def predict(self, X) -> np.ndarray:
        if isinstance(X, CovariateMatrix):
            if self.columns is not None:
                CovariateMatrix(np.zeros((0, len(self.columns))), self.columns).check_layout(X)
            values = X.values
        else:
            values = np.asarray(X, dtype=float)
            if self.columns is not None and values.shape[1] != len(self.columns):
                raise SchemaError(f"learner '{self.spec.name}' was fit on {len(self.columns)} "
                                  f"columns, got {values.shape[1]}")
        return self.model.predict(values)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "state": self.model.state_dict(),
            "columns": None if self.columns is None else
                       [[c.name, c.lag_months, c.kind] for c in self.columns],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerModel":
        spec = d["spec"]
        if isinstance(spec, dict) and isinstance(spec.get("params"), dict):
            retired = _RETIRED_PARAMS.get(str(spec.get("kind")), ())
            spec = {**spec, "params": {k: v for k, v in spec["params"].items()
                                       if k not in retired}}
        spec = LearnerSpec.from_dict(spec)
        model = _MODEL_CLS[spec.kind].from_state(d["state"])
        columns = d.get("columns")
        if columns is not None:
            columns = tuple(ColumnInfo(str(n), int(lag), str(k)) for n, lag, k in columns)
            # a state that cannot predict one row of its own width is malformed, and
            # so is a tree state that splits on a column past that width
            try:
                probe = np.asarray(model.predict(np.zeros((1, len(columns)))), dtype=float)
            except (IndexError, TypeError, ValueError):
                probe = None
            if (probe is None or probe.shape != (1,) or not np.isfinite(probe[0])
                    or getattr(model, "n_features", 0) > len(columns)):
                raise DataError(f"learner '{spec.name}': stored state does not predict "
                                f"from its {len(columns)} columns")
        return cls(spec=spec, model=model, columns=columns)


def fit_learner(spec: LearnerSpec, X, y, rng=None) -> LearnerModel:
    """Fit one learner; rng may be a Generator, a seed, or None (spec.seed)."""
    if isinstance(X, CovariateMatrix):
        columns, values = X.columns, X.values
    else:
        columns, values = None, np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if values.ndim != 2 or len(y) != values.shape[0]:
        raise SchemaError(f"design/response shapes do not align: {values.shape} vs {y.shape}")
    if len(y) == 0:
        raise SchemaError("cannot fit a learner on zero rows")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(y))):
        raise DataError(f"learner '{spec.name}': design or response contains non-finite values")
    if spec.kind == "gbt" and len(y) < 2:
        raise DataError("gbt requires at least 2 rows")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(spec.seed if rng is None else rng)
    model = _FIT[spec.kind](values, y, spec.params, rng)
    return LearnerModel(spec=spec, model=model, columns=columns)
