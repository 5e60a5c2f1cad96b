import math

import pytest
from oracle import integrate, integrate_to_inf, integrate_to_zero

from harvestfield.errors import DivergenceError


def test_integrate_polynomial_exact():
    assert integrate(lambda x: 3.0 * x**2, 0.0, 2.0) == pytest.approx(8.0, rel=1e-12)


def test_integrate_reversed_limits_changes_sign():
    assert integrate(lambda x: x, 2.0, 0.0) == pytest.approx(-2.0, rel=1e-12)


def test_integrate_empty_interval():
    assert integrate(lambda x: 1e9, 1.0, 1.0) == 0.0


def test_to_zero_integrable_singularity():
    # int_0^1 x^(-1/2) dx = 2
    assert integrate_to_zero(lambda x: x**-0.5, 1.0) == pytest.approx(2.0, rel=1e-7)


def test_to_zero_log_divergence_detected():
    with pytest.raises(DivergenceError):
        integrate_to_zero(lambda x: 1.0 / x, 1.0)


def test_to_inf_exponential_tail():
    assert integrate_to_inf(lambda x: math.exp(-x), 0.0) == pytest.approx(1.0, rel=1e-9)


def test_to_inf_divergence_detected():
    with pytest.raises(DivergenceError):
        integrate_to_inf(lambda x: 1.0 / (1.0 + x), 0.0)
