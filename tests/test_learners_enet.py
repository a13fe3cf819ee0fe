import numpy as np
import pytest

from stackgp import qp
from stackgp.errors import DataError, NumericalError
from stackgp.learners import LearnerSpec, fit_learner
from stackgp.learners.elastic_net import EnetModel, fit_enet


def make_problem(seed, n=60, m=4, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m)) @ np.diag(rng.uniform(0.5, 2.0, size=m))
    beta = rng.normal(size=m)
    y = 1.5 + X @ beta + rng.normal(size=n) * noise
    return X, y


def ols_oracle(X, y):
    A = np.column_stack([np.ones(len(y)), X])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return sol[0], sol[1:]


def ridge_oracle(X, y, lam2):
    """Closed-form ridge on standardised columns, mapped back to raw scale."""
    mu, sd = X.mean(axis=0), X.std(axis=0)
    Z = (X - mu) / sd
    yc = y - y.mean()
    theta = np.linalg.solve(Z.T @ Z + lam2 * np.eye(X.shape[1]), Z.T @ yc)
    coef = theta / sd
    return y.mean() - coef @ mu, coef


class TestClosedFormOracles:
    def test_matches_ols_when_unpenalised(self):
        for seed in range(5):
            X, y = make_problem(seed)
            model = fit_enet(X, y, LearnerSpec(kind="enet", params={
                "lambda1": 0.0, "lambda2": 0.0}).params)
            b0, b = ols_oracle(X, y)
            np.testing.assert_allclose(model.coef, b, atol=1e-8)
            assert model.intercept == pytest.approx(b0, abs=1e-8)

    def test_matches_closed_form_ridge(self):
        for seed, lam2 in [(0, 0.5), (1, 2.0), (2, 10.0)]:
            X, y = make_problem(seed)
            model = fit_enet(X, y, LearnerSpec(kind="enet", params={
                "lambda1": 0.0, "lambda2": lam2}).params)
            b0, b = ridge_oracle(X, y, lam2)
            np.testing.assert_allclose(model.coef, b, atol=1e-8)
            assert model.intercept == pytest.approx(b0, abs=1e-8)

    def test_single_column_soft_threshold_oracle(self):
        # one standardised column: theta = S(z'y, lambda1/2) / (n + lambda2)
        rng = np.random.default_rng(3)
        n = 50
        x = rng.normal(size=n)
        z = (x - x.mean()) / x.std()
        y = 0.8 * z + rng.normal(size=n) * 0.1
        for lam1, lam2 in [(0.0, 0.0), (5.0, 0.0), (5.0, 3.0), (1e6, 0.0)]:
            model = fit_enet(x[:, None], y, LearnerSpec(kind="enet", params={
                "lambda1": lam1, "lambda2": lam2}).params)
            rho = float(z @ (y - y.mean()))
            shrunk = np.sign(rho) * max(abs(rho) - 0.5 * lam1, 0.0)
            theta = shrunk / (n + lam2)
            assert model.coef[0] * x.std() == pytest.approx(theta, abs=1e-10)


class TestShrinkage:
    def test_huge_l1_zeroes_all_slopes(self):
        X, y = make_problem(4)
        model = fit_enet(X, y, LearnerSpec(kind="enet", params={
            "lambda1": 1e9, "lambda2": 0.0}).params)
        np.testing.assert_array_equal(model.coef, np.zeros(X.shape[1]))
        assert model.intercept == pytest.approx(y.mean(), abs=1e-12)

    def test_l1_monotone_sparsity(self):
        X, y = make_problem(5, m=6)
        nnz = []
        for lam1 in (0.0, 1.0, 10.0, 100.0, 1e5):
            model = fit_enet(X, y, LearnerSpec(kind="enet", params={
                "lambda1": lam1, "lambda2": 0.0}).params)
            nnz.append(int(np.count_nonzero(model.coef)))
        assert nnz[0] >= nnz[-1]
        assert nnz[-1] == 0

    def test_kkt_certificate_in_meta(self):
        X, y = make_problem(6)
        model = fit_enet(X, y, LearnerSpec(kind="enet", params={
            "lambda1": 2.0, "lambda2": 1.0}).params)
        assert model.meta["steps"] >= 1
        assert model.meta["kkt_violation"] < 1e-6


class TestKktConditions:
    def test_stationarity_at_solution(self):
        # independent re-check of the certificate, computed from scratch
        X, y = make_problem(7, m=5)
        lam1, lam2 = 3.0, 0.7
        model = fit_enet(X, y, LearnerSpec(kind="enet", params={
            "lambda1": lam1, "lambda2": lam2}).params)
        mu, sd = X.mean(axis=0), X.std(axis=0)
        Z = (X - mu) / sd
        theta = model.coef * sd
        r = y - model.predict(X)
        grad = Z.T @ r
        for j in range(5):
            if theta[j] == 0.0:
                assert abs(grad[j]) <= 0.5 * lam1 + 1e-7
            else:
                assert grad[j] - lam2 * theta[j] == pytest.approx(
                    0.5 * lam1 * np.sign(theta[j]), abs=1e-7)


class TestEdgeCases:
    def test_constant_column_gets_zero_weight(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 5.0
        y = X[:, 0] + rng.normal(size=40) * 0.1
        model = fit_enet(X, y, LearnerSpec(kind="enet", params={
            "lambda1": 0.1, "lambda2": 0.1}).params)
        assert model.coef[1] == 0.0

    def test_non_finite_rejected_via_contract(self):
        X = np.ones((10, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            fit_learner(LearnerSpec(kind="enet"), X, np.ones(10))

    def test_round_trip(self):
        X, y = make_problem(9)
        model = fit_enet(X, y, LearnerSpec(kind="enet").params)
        clone = EnetModel.from_state(model.state_dict())
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))

    def test_deterministic(self):
        X, y = make_problem(10)
        spec = LearnerSpec(kind="enet", params={"lambda1": 0.5, "lambda2": 0.5})
        p1 = fit_learner(spec, X, y).predict(X)
        p2 = fit_learner(spec, X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)


class TestActiveSet:
    @pytest.mark.parametrize("lam1", [0.0, 0.1])
    def test_collinear_columns_at_zero_ridge_against_ols(self, lam1):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 4))
        X[:, 1] = 2.0 * X[:, 0] + 1.0      # exactly collinear with column 0
        X[:, 3] = 3.0                      # zero variance
        y = 1.0 + X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=40) * 0.3
        model = fit_enet(X, y, LearnerSpec(kind="enet", params={
            "lambda1": lam1, "lambda2": 0.0}).params)
        A = np.column_stack([np.ones(len(y)), X])
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert model.coef[3] == 0.0
        sd = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)

        def objective(coef, intercept):
            rss = np.sum((y - X @ coef - intercept) ** 2)
            return rss, rss + lam1 * np.abs(coef * sd).sum()

        (rss, obj), (rss_ols, obj_ols) = objective(model.coef, model.intercept), objective(sol[1:], sol[0])
        if lam1 == 0.0:
            np.testing.assert_allclose(model.predict(X), A @ sol, atol=1e-8)
        assert rss >= rss_ols - 1e-9 * rss_ols
        assert obj <= obj_ols + 1e-9 * obj_ols

    def test_step_cap_raises_naming_the_learner(self, monkeypatch):
        X, y = make_problem(11)
        monkeypatch.setattr(qp, "MAX_STEPS_PER_VARIABLE", 0)
        with pytest.raises(NumericalError, match="elastic net: active-set solve did not finish"):
            fit_learner(LearnerSpec(kind="enet"), X, y)
