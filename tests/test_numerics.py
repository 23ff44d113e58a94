"""Numeric primitives: frozen high-precision constants and algebraic invariants.

Expected values were computed once with mpmath at 50 digits and pasted in as
literals, so these tests do not share code with the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deci.errors import DimensionError, NumericalError
from deci.numerics import (
    LOG_EPS,
    binary_cross_entropy,
    finite_difference_check,
    sigmoid,
)

# mpmath.mp.dps = 50 reference values.
SIGMOID_2 = 0.88079707797788244406
NEG_LOG_09 = 0.10536051565782630123
LN2 = 0.69314718055994530942


def test_sigmoid_frozen_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(2.0) == pytest.approx(SIGMOID_2, abs=1e-15)
    assert sigmoid(-2.0) == pytest.approx(1.0 - SIGMOID_2, abs=1e-15)


def test_sigmoid_extreme_inputs_stay_finite():
    # the two-branch form never exponentiates a positive argument
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-500.0, -40.0, 0.0, 40.0, 500.0]))
    assert np.all(np.isfinite(out))
    assert out[0] >= 0.0 and out[-1] <= 1.0
    assert out[-1] == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_preserves_shape():
    x = np.zeros((3, 4, 2))
    assert sigmoid(x).shape == (3, 4, 2)


@given(st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
def test_sigmoid_antisymmetry(x):
    assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-30.0, max_value=30.0), st.floats(min_value=0.0, max_value=5.0))
def test_sigmoid_monotone(x, dx):
    assert sigmoid(x + dx) >= sigmoid(x)


def test_bce_frozen_values():
    assert binary_cross_entropy(np.array([0.9]), np.array([1.0])) == pytest.approx(NEG_LOG_09, abs=1e-15)
    assert binary_cross_entropy(np.array([0.5]), np.array([0.0])) == pytest.approx(LN2, abs=1e-15)
    assert binary_cross_entropy(np.array([0.5]), np.array([1.0])) == pytest.approx(LN2, abs=1e-15)


def test_bce_is_mean_over_entries():
    got = binary_cross_entropy(np.array([0.9, 0.5]), np.array([1.0, 1.0]))
    assert got == pytest.approx((NEG_LOG_09 + LN2) / 2.0, abs=1e-15)


def test_bce_clamps_before_log():
    # p = 0 with y = 1 would be -log(0) unclamped
    got = binary_cross_entropy(np.array([0.0]), np.array([1.0]))
    assert got == pytest.approx(-math.log(LOG_EPS), rel=1e-12)
    assert binary_cross_entropy(np.array([1.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-6)


def test_bce_rejects_mismatch_and_empty():
    with pytest.raises(DimensionError):
        binary_cross_entropy(np.zeros(3), np.zeros(2))
    with pytest.raises(DimensionError):
        binary_cross_entropy(np.zeros(0), np.zeros(0))


def test_bce_perfect_confidence_bounded():
    # worst case is -log(eps); nothing should be inf
    got = binary_cross_entropy(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert math.isfinite(got)


def quadratic_loss(params):
    return 0.5 * sum(float(np.sum(v * v)) for v in params.values())


def quadratic_grad(params):
    return {k: np.array(v, dtype=np.float64) for k, v in params.items()}


def test_gradcheck_accepts_correct_gradient():
    params = {"w": np.array([1.0, -2.0, 0.5]), "b": np.array([[0.3]])}
    report = finite_difference_check(quadratic_loss, quadratic_grad, params)
    assert report.passed
    assert report.max_relative_error <= 1e-6


def test_gradcheck_constant_loss_zero_grad():
    params = {"w": np.array([1.0, 2.0])}
    report = finite_difference_check(
        lambda p: 3.0, lambda p: {"w": np.zeros(2)}, params
    )
    assert report.passed
    assert report.max_relative_error == 0.0


def test_gradcheck_flags_wrong_gradient():
    params = {"w": np.array([1.0, 3.0])}
    report = finite_difference_check(
        quadratic_loss,
        lambda p: {"w": 2.0 * np.asarray(p["w"])},  # off by a factor of two
        params,
    )
    assert not report.passed
    assert report.max_relative_error == pytest.approx(0.5, abs=1e-4)
    assert report.worst_parameter.startswith("w[")


def test_gradcheck_step_bounds():
    params = {"w": np.array([1.0])}
    for bad in (1e-7, 1e-2, 0.0):
        with pytest.raises(ValueError):
            finite_difference_check(quadratic_loss, quadratic_grad, params, step=bad)
    # both endpoints are legal
    for ok in (1e-6, 1e-3):
        assert finite_difference_check(quadratic_loss, quadratic_grad, params, step=ok).passed


def test_gradcheck_shape_mismatch():
    params = {"w": np.array([1.0, 2.0])}
    with pytest.raises(DimensionError):
        finite_difference_check(quadratic_loss, lambda p: {"w": np.zeros(3)}, params)


def test_gradcheck_nonfinite_loss_names_parameter():
    params = {"w": np.array([1.0])}

    def exploding(p):
        return float("nan") if p["w"][0] != 1.0 else 0.0

    with pytest.raises(NumericalError, match="w"):
        finite_difference_check(exploding, lambda p: {"w": np.zeros(1)}, params)


def test_gradcheck_does_not_mutate_params():
    params = {"w": np.array([1.0, -1.0])}
    before = params["w"].copy()
    finite_difference_check(quadratic_loss, quadratic_grad, params)
    np.testing.assert_array_equal(params["w"], before)


@settings(max_examples=25)
@given(
    st.lists(
        # near-zero entries beside large ones drown the central difference
        # in cancellation noise, which is not the property under test
        st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 0.05),
        min_size=1,
        max_size=4,
    )
)
def test_gradcheck_quadratic_family(ws):
    params = {"w": np.array(ws)}
    assert finite_difference_check(quadratic_loss, quadratic_grad, params).passed
