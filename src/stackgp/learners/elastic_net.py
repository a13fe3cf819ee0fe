"""Elastic net by a finite active-set solve.

Objective, on internally standardised columns z_j with an unpenalised
intercept:

    ||y - b0 - Z theta||^2 + lambda2 ||theta||^2 + lambda1 ||theta||_1

With theta = theta+ - theta-, both parts >= 0 (Osborne, Presnell & Turlach
2000), it is a nonnegative quadratic program solved by ``qp.nonneg_qp``. The
stationarity conditions are then evaluated directly and the largest violation
is stored, so a bad solve is visible rather than silent. Coefficients are
mapped back to the raw scale for prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalError
from ..qp import nonneg_qp


@dataclass
class EnetModel:
    coef: np.ndarray
    intercept: float
    lambda1: float
    lambda2: float
    meta: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept

    def state_dict(self) -> dict:
        return {
            "coef": self.coef.tolist(),
            "intercept": self.intercept,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
        }

    @classmethod
    def from_state(cls, state: dict) -> "EnetModel":
        return cls(
            coef=np.asarray(state["coef"], dtype=float),
            intercept=float(state["intercept"]),
            lambda1=float(state["lambda1"]),
            lambda2=float(state["lambda2"]),
        )


def _standardise(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    live = sd > 0
    sd_safe = np.where(live, sd, 1.0)
    return (X - mu) / sd_safe, mu, sd_safe, live


def fit_enet(X, y, params: dict, rng=None) -> EnetModel:
    n, m = X.shape
    lam1, lam2 = params["lambda1"], params["lambda2"]

    Z, mu, sd, live = _standardise(X)
    y_bar = float(y.mean())
    half_lam1 = 0.5 * lam1
    G, c = Z[:, live].T @ Z[:, live], Z[:, live].T @ (y - y_bar)
    # the halved objective in (theta+, theta-)
    Q = np.block([[G, -G], [-G, G]]) + lam2 * np.eye(2 * len(c))
    split, steps, _ = nonneg_qp(Q, np.concatenate([c, -c]) - half_lam1, simplex=False, name="elastic net")
    theta = np.zeros(m)
    theta[live] = split[:len(c)] - split[len(c):]
    r = y - y_bar - Z @ theta

    # stationarity certificate on the standardised problem
    grad = Z.T @ r
    viol = 0.0
    for j in range(m):
        if not live[j]:
            continue
        if theta[j] != 0.0:
            viol = max(viol, abs(grad[j] - lam2 * theta[j] - half_lam1 * np.sign(theta[j])))
        else:
            viol = max(viol, max(0.0, abs(grad[j]) - half_lam1))
    scale = max(1.0, float(np.abs(y).max()) * np.sqrt(n))
    if viol > 1e-6 * scale:
        raise NumericalError(f"elastic net failed to reach stationarity (violation {viol:.3e})")

    coef = np.where(live, theta / sd, 0.0)
    intercept = y_bar - float(coef @ mu)
    return EnetModel(coef=coef, intercept=intercept, lambda1=lam1, lambda2=lam2,
                     meta={"steps": steps, "kkt_violation": viol})
