import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stackgp.cwm import SimplexWeights, fit_cwm
from stackgp.errors import DataError
from stackgp.metrics import (
    ambiguity_decomposition,
    mae,
    mse,
    pearson_flagged,
)


def random_simplex(rng, L):
    w = rng.exponential(size=L)
    return w / w.sum()


class TestBasicMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert pearson_flagged(y, y) == (pytest.approx(1.0, abs=1e-12), False)

    def test_unit_shift(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y + 1, y) == pytest.approx(1.0, abs=1e-12)
        assert mae(y + 1, y) == pytest.approx(1.0, abs=1e-12)
        assert pearson_flagged(y + 1, y) == (pytest.approx(1.0, abs=1e-12), False)

    def test_anticorrelated_pair(self):
        assert pearson_flagged(np.array([0.0, 1.0]), np.array([1.0, 0.0])) \
            == (pytest.approx(-1.0, abs=1e-12), False)

    def test_degenerate_flag_constant_vector(self):
        r, flag = pearson_flagged(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert flag
        assert r == 0.0
        r, flag = pearson_flagged(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        assert not flag

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mse(np.ones(3), np.ones(4))

    def test_pearson_needs_two_points(self):
        with pytest.raises(DataError):
            pearson_flagged(np.ones(1), np.ones(1))

    @given(hnp.arrays(np.float64, st.integers(2, 30),
                      elements=st.floats(-100, 100)),
           st.integers(0, 2**31 - 1))
    def test_pearson_clipped_to_unit_interval(self, y, seed):
        rng = np.random.default_rng(seed)
        yhat = y + rng.normal(size=y.size)
        r, flag = pearson_flagged(yhat, y)
        assert -1.0 <= r <= 1.0


class TestAmbiguityDecomposition:
    def test_single_model_no_disagreement(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=(10, 1))
        f = rng.normal(size=10)
        rep = ambiguity_decomposition(preds, np.array([1.0]), f)
        assert rep.ambiguity == pytest.approx(0.0, abs=1e-15)
        assert rep.ensemble_error == pytest.approx(rep.weighted_error, abs=1e-12)

    def test_symmetric_two_model_case(self):
        # members sit one unit either side of the target: ensemble error 0,
        # weighted member error 1, disagreement term 1
        f = np.linspace(-2, 2, 9)
        preds = np.column_stack([f + 1, f - 1])
        rep = ambiguity_decomposition(preds, np.array([0.5, 0.5]), f)
        assert rep.ensemble_error == pytest.approx(0.0, abs=1e-14)
        assert rep.weighted_error == pytest.approx(1.0, abs=1e-14)
        assert rep.ambiguity == pytest.approx(1.0, abs=1e-14)

    def test_identity_random_case(self):
        rng = np.random.default_rng(7)
        preds = rng.normal(size=(50, 4))
        f = rng.normal(size=50)
        beta = random_simplex(rng, 4)
        rep = ambiguity_decomposition(preds, beta, f)
        assert rep.residual < 1e-12
        np.testing.assert_allclose(
            rep.pointwise["ensemble_error"],
            rep.pointwise["weighted_error"] - rep.pointwise["ambiguity"],
            atol=1e-12)

    def test_ambiguity_bounded_by_weighted_error(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            L = int(rng.integers(1, 6))
            preds = rng.normal(size=(20, L)) * rng.uniform(0.1, 10)
            f = rng.normal(size=20)
            rep = ambiguity_decomposition(preds, random_simplex(rng, L), f)
            assert rep.ambiguity <= rep.weighted_error + 1e-10

    def test_accepts_simplex_weights_object(self):
        rng = np.random.default_rng(3)
        preds = rng.normal(size=(12, 2))
        f = rng.normal(size=12)
        w = SimplexWeights(beta=np.array([0.3, 0.7]), degenerate=False)
        rep1 = ambiguity_decomposition(preds, w, f)
        rep2 = ambiguity_decomposition(preds, np.array([0.3, 0.7]), f)
        assert rep1.ensemble_error == rep2.ensemble_error

    def test_zero_ambiguity_iff_predictions_coincide(self):
        f = np.zeros(5)
        same = np.ones((5, 3))
        rep = ambiguity_decomposition(same, np.array([0.2, 0.3, 0.5]), f)
        assert rep.ambiguity <= 1e-12
        differ = same.copy()
        differ[0, 0] = 2.0
        rep2 = ambiguity_decomposition(differ, np.array([0.2, 0.3, 0.5]), f)
        assert rep2.ambiguity > 1e-12

    def test_rejects_bad_beta(self):
        preds = np.ones((4, 2))
        with pytest.raises(DataError):
            ambiguity_decomposition(preds, np.array([0.7, 0.7]), np.ones(4))
        with pytest.raises(DataError):
            ambiguity_decomposition(preds, np.array([1.0]), np.ones(4))

    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_identity_property(self, L, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(n, L)) * rng.uniform(0.05, 20)
        f = rng.normal(size=n) * rng.uniform(0.05, 20)
        rep = ambiguity_decomposition(preds, random_simplex(rng, L), f)
        assert rep.residual <= 1e-10 * max(1.0, rep.weighted_error)


class TestCwmDecompositionIntegration:
    def test_fitted_weights_satisfy_identity(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=60)
        H = np.column_stack([f + rng.normal(size=60) * s for s in (0.2, 0.5, 1.0)])
        w = fit_cwm(H, f)
        rep = ambiguity_decomposition(H, w, f)
        assert rep.residual < 1e-10
        assert rep.ensemble_error == pytest.approx(
            mse(H @ w.beta, f), abs=1e-12)
