import numpy as np
import pytest
from scipy.optimize import nnls

from stackgp.qp import nonneg_qp


@pytest.mark.parametrize("seed", range(5))
def test_normal_equations_match_nnls(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(30, 8))
    y = rng.normal(size=30)
    x, steps, kkt = nonneg_qp(A.T @ A, A.T @ y, simplex=False, name="test")
    ref, _ = nnls(A, y)
    np.testing.assert_allclose(x, ref, atol=1e-10)
    assert 1 <= steps and kkt <= 1e-12


def test_no_violator_returns_the_start():
    x, steps, kkt = nonneg_qp(np.eye(3), -np.ones(3), simplex=False, name="test")
    np.testing.assert_array_equal(x, np.zeros(3))
    assert steps == 0 and kkt == 0.0
    x, steps, _ = nonneg_qp(np.eye(3), np.array([0.0, 5.0, 0.0]), simplex=True, name="test")
    np.testing.assert_array_equal(x, [0.0, 1.0, 0.0])
    assert steps == 1
