"""Elastic net by cyclic coordinate descent.

Objective, on internally standardised columns z_j with an unpenalised
intercept:

    ||y - b0 - Z theta||^2 + lambda2 ||theta||^2 + lambda1 ||theta||_1

The coordinate update is theta_j = S(z_j' r_{-j}, lambda1 / 2) / (z_j' z_j +
lambda2) with S the soft-threshold. After convergence the stationarity
conditions are evaluated directly and the largest violation is stored, so a
bad solve is visible rather than silent. Coefficients are mapped back to the
raw scale for prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalError


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


@dataclass
class EnetModel:
    coef: np.ndarray
    intercept: float
    lambda1: float
    lambda2: float
    meta: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef + self.intercept

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
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    lam1, lam2 = params["lambda1"], params["lambda2"]
    tol, max_iter = params["tol"], params["max_iter"]

    Z, mu, sd, live = _standardise(X)
    y_bar = float(y.mean())
    theta = np.zeros(m)
    r = y - y_bar                       # residual against current fit
    col_sq = float(n)                   # z_j'z_j for standardised columns
    half_lam1 = 0.5 * lam1

    if lam2 == 0.0 and lam1 == 0.0:
        # plain least squares; coordinate descent converges slowly when
        # columns correlate, so solve directly
        theta[live], *_ = np.linalg.lstsq(Z[:, live], y - y_bar, rcond=None)
        r = y - y_bar - Z @ theta
        n_iter, converged = 0, True
    else:
        converged = False
        n_iter = 0
        for n_iter in range(1, max_iter + 1):
            delta = 0.0
            for j in range(m):
                if not live[j]:
                    continue
                old = theta[j]
                rho = float(Z[:, j] @ r) + col_sq * old
                new = _soft_threshold(rho, half_lam1) / (col_sq + lam2)
                if new != old:
                    r -= (new - old) * Z[:, j]
                    theta[j] = new
                    delta = max(delta, abs(new - old))
            if delta <= tol:
                converged = True
                break

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
                     meta={"n_iter": n_iter, "converged": converged, "kkt_violation": viol})
