"""Losses and metrics against hand-computed and brute-force values."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afg.objectives import (
    LossSchedule,
    accuracy,
    blend_terms,
    blended_loss_grad,
    combined_loss,
    confusion,
    evaluate_regression,
    mae,
    max_error,
    mse,
    rmse,
    stde,
    weight_p,
)


class TestWeightP:
    def test_at_zero_is_plateau(self):
        s = LossSchedule(a=1.0, b=0.0, c=1.0, T=10)
        assert weight_p(0, s) == 1.0

    def test_full_plateau_when_b_is_one(self):
        s = LossSchedule(a=1.0, b=1.0, c=5.0, T=20)
        for t in range(0, 21):
            assert weight_p(t, s) == 1.0

    def test_mid_decay_value(self):
        # exp(-10 * (0.5 - 0.2)) = exp(-3)
        s = LossSchedule(a=1.0, b=0.2, c=10.0, T=100)
        assert weight_p(50, s) == pytest.approx(math.exp(-3.0), abs=1e-9)

    def test_monotone_nonincreasing_and_capped(self):
        s = LossSchedule(a=0.8, b=0.25, c=4.0, T=50)
        values = [weight_p(t, s) for t in range(51)]
        assert all(v <= s.a + 1e-15 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
        # exact plateau while t/T <= b
        for t in range(0, 13):
            assert values[t] == s.a


class TestStde:
    def test_identical_is_zero(self):
        assert stde([0.1, 0.4, 0.9], [0.1, 0.4, 0.9]) == 0.0

    def test_hand_value(self):
        # population sigma of [0, 0.4] is 0.2
        assert stde([0.0, 0.0], [0.0, 0.4]) == pytest.approx(0.2, abs=1e-12)

    def test_translation_invariance(self):
        a = [0.1, 0.5, 0.2]
        b = [0.3, 0.3, 0.9]
        assert stde([x + 0.3 for x in a], b) == pytest.approx(stde(a, b), abs=1e-12)

    def test_symmetry(self):
        a = [0.1, 0.5, 0.2]
        b = [0.3, 0.3, 0.9]
        assert stde(a, b) == pytest.approx(stde(b, a), abs=1e-15)

    def test_rejects_fewer_than_two(self):
        with pytest.raises(ValueError):
            stde([0.1], [0.2])


class TestPointwiseMetrics:
    def test_hand_values(self):
        preds, targets = [1.0, 0.0], [0.0, 0.0]
        assert mse(preds, targets) == pytest.approx(0.5)
        assert mae(preds, targets) == pytest.approx(0.5)
        assert rmse(preds, targets) == pytest.approx(math.sqrt(0.5))
        assert max_error(preds, targets) == pytest.approx(1.0)

    def test_zero_when_equal(self):
        v = [0.2, 0.7, 0.5]
        for fn in (mse, mae, rmse, max_error):
            assert fn(v, v) == 0.0

    def test_single_element_identities(self):
        assert rmse([0.3], [0.8]) == pytest.approx(0.5)
        assert mae([0.3], [0.8]) == pytest.approx(0.5)
        assert rmse([0.3], [0.8]) == pytest.approx(mae([0.3], [0.8]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestCombinedLoss:
    def test_plateau_equals_stde(self):
        s = LossSchedule(a=1.0, b=1.0, c=3.0, T=10)
        preds, targets = [0.2, 0.8, 0.4], [0.1, 0.9, 0.2]
        assert combined_loss(preds, targets, 5, s) == pytest.approx(
            stde(preds, targets), abs=1e-12
        )

    def test_decayed_equals_mse(self):
        s = LossSchedule(a=1.0, b=0.0, c=1e6, T=10)
        preds, targets = [0.2, 0.8, 0.4], [0.1, 0.9, 0.2]
        assert combined_loss(preds, targets, 10, s) == pytest.approx(
            mse(preds, targets), abs=1e-9
        )

    def test_hand_blend(self):
        # p = 0.5 via plateau with a = 0.5: 0.5*0.2 + 0.5*0.08 = 0.14
        s = LossSchedule(a=0.5, b=1.0, c=1.0, T=4)
        assert combined_loss([0.0, 0.0], [0.0, 0.4], 2, s) == pytest.approx(0.14, abs=1e-12)

    def test_interpolates_between_terms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            preds = rng.uniform(0, 1, 8)
            targets = rng.uniform(0, 1, 8)
            l1, l2 = stde(preds, targets), mse(preds, targets)
            for p in (0.0, 0.3, 0.7, 1.0):
                val = blend_terms(preds, targets, p)
                assert min(l1, l2) - 1e-12 <= val <= max(l1, l2) + 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        preds = rng.uniform(0.1, 0.9, 6)
        targets = rng.uniform(0.1, 0.9, 6)
        for p in (0.0, 0.5, 1.0):
            grad = blended_loss_grad(preds, targets, p)
            eps = 1e-7
            for j in range(6):
                bumped = preds.copy()
                bumped[j] += eps
                hi = blend_terms(bumped, targets, p)
                bumped[j] -= 2 * eps
                lo = blend_terms(bumped, targets, p)
                assert grad[j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)


def r2(preds, targets, variant: str) -> float:
    """The ``r2_<variant>`` field of ``evaluate_regression``."""
    return evaluate_regression(preds, targets)[f"r2_{variant}"]


class TestR2:
    def test_perfect_prediction(self):
        v = [0.1, 0.5, 0.9]
        assert r2(v, v, "paper") == pytest.approx(1.0)
        assert r2(v, v, "standard") == pytest.approx(1.0)

    def test_paper_variant_hand_value(self):
        # 1 - 0.02/0.5 = 0.96 with prediction-mean denominator
        assert r2([0.0, 1.0], [0.1, 0.9], "paper") == pytest.approx(0.96, abs=1e-12)

    def test_variants_differ_in_denominator(self):
        preds, targets = [0.0, 1.0], [0.1, 0.9]
        # standard: 1 - 0.02/0.32
        assert r2(preds, targets, "standard") == pytest.approx(1 - 0.02 / 0.32, abs=1e-12)

    def test_degenerate_variance_errors(self):
        with pytest.raises(ValueError, match="constant predictions"):
            evaluate_regression([0.5, 0.5], [0.1, 0.9])
        with pytest.raises(ValueError, match="constant targets"):
            evaluate_regression([0.1, 0.9], [0.5, 0.5])


class TestEvalReport:
    def test_metric_ordering_invariant(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0, 1, 40)
        targets = rng.uniform(0, 1, 40)
        rep = evaluate_regression(preds, targets)
        assert rep["mae"] <= rep["rmse"] <= rep["max_error"]
        assert rep["n"] == 40

    def test_json_keys(self):
        rep = evaluate_regression([0.1, 0.9], [0.2, 0.8])
        data = json.loads(json.dumps(rep))
        assert list(data) == ["r2_paper", "r2_standard", "mae", "rmse", "max_error", "n"]


class TestConfusionAccuracy:
    def test_all_correct_is_diagonal(self):
        counts = np.array(confusion([0, 1, 2, 1], [0, 1, 2, 1], [0, 1, 2])["counts"])
        assert np.trace(counts) == counts.sum() == 4
        assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_hand_counts(self):
        counts = confusion([0, 1], [1, 1], [0, 1])["counts"]
        assert counts[1][0] == 1
        assert counts[1][1] == 1
        assert accuracy([0, 1], [1, 1]) == 0.5

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            pred = rng.integers(0, 4, n)
            true = rng.integers(0, 4, n)
            counts = np.array(confusion(pred, true, [0, 1, 2, 3])["counts"])
            assert accuracy(pred, true) == pytest.approx(np.trace(counts) / counts.sum())

    def test_json_shape(self):
        cm = confusion([0, 1], [1, 1], ["x", "y"])
        data = json.loads(json.dumps(cm))
        assert data["labels"] == ["x", "y"]
        assert data["counts"] == [[0, 0], [1, 1]]


@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=32),
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=32),
)
def test_metric_ordering_property(xs, ys):
    n = min(len(xs), len(ys))
    preds, targets = xs[:n], ys[:n]
    assert mae(preds, targets) <= rmse(preds, targets) + 1e-12
    assert rmse(preds, targets) <= max_error(preds, targets) + 1e-12


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=500))
def test_weight_p_bounded_property(T, t):
    s = LossSchedule(a=0.9, b=0.2, c=7.0, T=T)
    assert 0.0 < weight_p(min(t, T), s) <= s.a
