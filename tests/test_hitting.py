import math

import numpy as np
import pytest
from helpers import central_diff, fd_step, second_diff, simpson
from oracle import LogisticOracle

from harvestfield.diffusion import _calculus
from harvestfield.errors import DomainError
from harvestfield.hitting import XiEvaluator

# frozen against an independent 40-digit series evaluation (mpmath)
XI_REFERENCE = {
    1.5: 0.6408545448718795,
    2.0: 1.2038881223660562,
    5.0: 5.5475630117469463,
    5.13: 5.852398593993381,
    10.0: 70.069184653701096,
    55.5: 1.5708032653364656e19,
}


def test_xi_vanishes_at_restart(benchmark_model, benchmark_evaluator, quadrature_twin):
    # exactly 0, not a rounding residue of either sign, on scalar and array reads of both routes
    for ev in (benchmark_evaluator, XiEvaluator(quadrature_twin)):
        assert ev.xi(1.0) == 0.0
        assert ev.xi(np.array([1.0, 2.0]))[0] == 0.0
    oracle = LogisticOracle(benchmark_model)
    assert oracle.xi(1.0) == 0.0
    assert oracle.xi_by_quadrature(1.0) == 0.0


@pytest.mark.parametrize("y, expected", sorted(XI_REFERENCE.items()))
def test_xi_against_independent_series(benchmark_evaluator, y, expected):
    assert benchmark_evaluator.xi(y) == pytest.approx(expected, rel=1e-12)


def test_series_and_quadrature_agree(benchmark_model, benchmark_evaluator):
    oracle = LogisticOracle(benchmark_model)
    for y in np.geomspace(1.01, 60.0, 12):
        series = oracle.xi(float(y))
        assert oracle.xi_by_quadrature(float(y)) == pytest.approx(series, rel=1e-6)
        assert benchmark_evaluator.xi(float(y)) == pytest.approx(series, rel=1e-12)


def test_xi_strictly_increasing(benchmark_evaluator):
    ys = np.linspace(1.0, 30.0, 40)
    vals = benchmark_evaluator.xi(ys)
    assert np.all(np.diff(vals) > 0.0)


def test_xi_rejects_below_restart(benchmark_evaluator):
    with pytest.raises(DomainError):
        benchmark_evaluator.xi(0.9)


def test_xi_vectorized_matches_scalar(benchmark_evaluator):
    ys = np.array([1.2, 2.0, 7.5, 31.0])
    vec = benchmark_evaluator.xi(ys)
    assert np.allclose(vec, [benchmark_evaluator.xi(float(y)) for y in ys], rtol=1e-12)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_xi_prime_positive(benchmark_evaluator):
    for y in (1.0, 2.0, 8.0, 40.0):
        assert benchmark_evaluator.xi_prime(y) > 0.0


def test_xi_prime_at_restart_equals_speed_mass(benchmark_evaluator, benchmark_model):
    from harvestfield.diffusion import speed_measure

    assert benchmark_evaluator.xi_prime(1.0) == pytest.approx(
        speed_measure(benchmark_model, 0.0, 1.0), rel=1e-12
    )


def test_xi_prime_matches_finite_difference(benchmark_evaluator):
    y = 3.0
    fd = central_diff(benchmark_evaluator.xi, y, fd_step(y))
    assert benchmark_evaluator.xi_prime(y) == pytest.approx(fd, rel=1e-5)


def test_xi_second_matches_finite_difference(benchmark_evaluator):
    y = 4.0
    fd = second_diff(benchmark_evaluator.xi, y, 1e-4)
    assert benchmark_evaluator.xi_second(y) == pytest.approx(fd, rel=1e-4)


def test_xi_concave_below_drift_saturation(benchmark_evaluator):
    # drift peaks at 1.5; xi is concave on [y0, y2]
    assert benchmark_evaluator.xi_second(1.2) < 0.0


def test_xi_second_single_sign_change(benchmark_evaluator):
    ys = np.geomspace(1.0, 100.0, 400)
    signs = np.sign(benchmark_evaluator.xi_second(ys))
    changes = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
    assert changes <= 1
    # and the change is from concave to convex
    assert signs[0] <= 0.0 and signs[-1] > 0.0


def test_convexity_switch_brackets_sign(benchmark_evaluator):
    y2 = benchmark_evaluator.convexity_switch()
    assert benchmark_evaluator.xi_second(y2 * 0.99) < 0.0
    assert benchmark_evaluator.xi_second(y2 * 1.01) > 0.0


@pytest.mark.parametrize("route", ["benchmark_evaluator", "quadrature_twin"])
def test_scalar_xi_second_matches_array_element(route, request):
    ev = request.getfixturevalue(route)
    ev = ev if isinstance(ev, XiEvaluator) else XiEvaluator(ev)
    ys = np.array([1.2, 1.7, 3.0, 8.0, 20.0])   # away from the sign change near 2.15
    on_array = ev.xi_second(ys)
    for y, expected in zip(ys, on_array):
        assert ev.xi_second(float(y)) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_xi_prime_integrates_back_to_xi(benchmark_evaluator):
    # trapezoid of xi' over [y0, 5] recovers xi(5) to 1e-5 relative
    ys = np.linspace(1.0, 5.0, 2001)
    primes = benchmark_evaluator.xi_prime(ys)
    trapz = float(np.sum(0.5 * (primes[1:] + primes[:-1]) * np.diff(ys)))
    assert trapz == pytest.approx(benchmark_evaluator.xi(5.0), rel=1e-5)


# ---------------------------------------------------------------------------
# expected running costs
# ---------------------------------------------------------------------------

def test_running_cost_of_unit_rate_is_xi(benchmark_model, benchmark_evaluator):
    assert benchmark_evaluator.expected_running_cost(lambda u: 1.0, 1.0, 2.0) == pytest.approx(
        benchmark_evaluator.xi(2.0), rel=1e-9
    )
    # from below y0: E_x tau_y = xi(y) - xi(x) on the table's xi, which runs past y0
    calc = _calculus(benchmark_model)
    assert benchmark_evaluator.expected_running_cost(lambda u: 1.0, 0.3, 4.0) == pytest.approx(
        calc.xi(4.0) - calc.xi(0.3), rel=1e-9
    )


def test_running_cost_of_zero_is_zero(benchmark_evaluator):
    assert benchmark_evaluator.expected_running_cost(lambda u: 0.0, 1.0, 3.0) == 0.0


def test_running_cost_linear_state(benchmark_evaluator):
    # independent 40-digit value of E_1[int_0^tau_3 X dt]
    assert benchmark_evaluator.expected_running_cost(lambda u: u, 1.0, 3.0) == pytest.approx(
        2.4550772022054387, rel=1e-8
    )


def test_running_cost_additive_in_h(benchmark_evaluator):
    a = benchmark_evaluator.expected_running_cost(lambda u: 1.0, 1.2, 4.0)
    b = benchmark_evaluator.expected_running_cost(lambda u: u, 1.2, 4.0)
    both = benchmark_evaluator.expected_running_cost(lambda u: 1.0 + u, 1.2, 4.0)
    assert both == pytest.approx(a + b, rel=1e-9)


def test_running_cost_domain_checks(benchmark_evaluator):
    with pytest.raises(DomainError):
        benchmark_evaluator.expected_running_cost(lambda u: 1.0, 3.0, 2.0)


def test_xi_between_twin_routes(benchmark_evaluator, quadrature_twin):
    ev_twin = XiEvaluator(quadrature_twin)
    for y in (1.5, 2.0, 5.0):
        assert ev_twin.xi(y) == pytest.approx(benchmark_evaluator.xi(y), rel=1e-7)
        assert ev_twin.xi_prime(y) == pytest.approx(benchmark_evaluator.xi_prime(y), rel=1e-7)


def test_green_kernel_oracle_via_simpson(benchmark_evaluator):
    # rebuild xi(2) = int (S(2)-S(w)) m(w) dw + (S(2)-S(1)) M[0,1] with Simpson only
    s = lambda u: u**-3 * math.exp(u - 1.0)
    m = lambda u: 2.0 * u * math.exp(1.0 - u)
    S2 = simpson(s, 1.0, 2.0, 4096)
    kernel = simpson(lambda w: (S2 - simpson(s, 1.0, w, 256)) * m(w), 1.0, 2.0, 512)
    below = simpson(m, 1e-9, 1.0, 4096)
    assert kernel + S2 * below == pytest.approx(benchmark_evaluator.xi(2.0), rel=1e-6)
