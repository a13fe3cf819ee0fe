"""The numpy L-BFGS behind the GP hyperparameter fits."""

import numpy as np
import pytest
import scipy.optimize

from stackgp import lbfgs
from stackgp.gp import PENALTY


def rosenbrock(x):
    return float(scipy.optimize.rosen(x))


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0] * 5, np.linspace(-1.0, 1.0, 10)])
def test_converges_on_rosenbrock(x0):
    res = lbfgs.minimize(rosenbrock, x0, scipy.optimize.rosen_der, max_iter=1000)
    assert res.success, res.message
    np.testing.assert_allclose(res.x, np.ones(len(x0)), atol=1e-4)
    assert res.fun < 1e-9
    assert res.fun == rosenbrock(res.x)


def test_converges_on_a_quadratic():
    rng = np.random.default_rng(5)
    Q = rng.normal(size=(12, 12))
    A = Q @ Q.T + 0.5 * np.eye(12)
    b = rng.normal(size=12)
    res = lbfgs.minimize(lambda x: 0.5 * x @ A @ x - b @ x, np.zeros(12),
                         lambda x: A @ x - b, max_iter=200)
    assert res.success, res.message
    x_star = np.linalg.solve(A, b)
    f_star = 0.5 * x_star @ A @ x_star - b @ x_star
    # FTOL stops it once an iteration lowers f by 2.2e-9 of |f| or less
    assert 0 <= res.fun - f_star <= 1e-7 * abs(f_star)
    np.testing.assert_allclose(res.x, x_star, atol=1e-3)


def test_stops_unconverged_at_max_iter():
    res = lbfgs.minimize(rosenbrock, [-1.2, 1.0], scipy.optimize.rosen_der, max_iter=5)
    assert not res.success
    assert res.nit == 5
    assert res.message == "iteration limit reached"


def test_a_start_at_a_stationary_point_takes_no_step():
    res = lbfgs.minimize(rosenbrock, [1.0, 1.0], scipy.optimize.rosen_der, max_iter=10)
    assert res.success and res.nit == 0 and res.nfev == 1
    np.testing.assert_array_equal(res.x, [1.0, 1.0])


def test_steps_back_from_a_penalty_wall():
    # minimum at x = 0.9 beside a wall at 1 where the objective fails, as a GP
    # evaluation does: from 0.5 the first step, 1 / |g| along -g, lands at 1.5
    def fun(x):
        return PENALTY if x[0] >= 1.0 else float((x[0] - 0.9) ** 2)

    def jac(x):
        return np.zeros(1) if x[0] >= 1.0 else 2.0 * (x - 0.9)

    seen = []

    def recording(x):
        seen.append(fun(x))
        return seen[-1]

    res = lbfgs.minimize(recording, [0.5], jac, max_iter=50)
    assert seen[1] == PENALTY
    assert res.success, res.message
    assert res.x[0] == pytest.approx(0.9, abs=1e-5)
    assert res.fun < 1e-10


def test_nfev_counts_every_call_of_fun():
    calls = []

    def fun(x):
        calls.append(1)
        return rosenbrock(x)

    for max_iter in (1, 7, 1000):
        calls.clear()
        res = lbfgs.minimize(fun, [-1.2, 1.0, 0.3], scipy.optimize.rosen_der, max_iter=max_iter)
        assert res.nfev == len(calls) > res.nit


def test_jac_follows_each_call_of_fun_at_the_same_point():
    # the GP objective memoises one evaluation per point, so value and
    # gradient must be asked for as a pair
    last = []

    def fun(x):
        last.append(np.array(x))
        return rosenbrock(x)

    def jac(x):
        np.testing.assert_array_equal(x, last[-1])
        return scipy.optimize.rosen_der(x)

    assert lbfgs.minimize(fun, [-1.2, 1.0], jac, max_iter=100).success
