import math

import numpy as np
import pytest
from helpers import central_diff, fd_step, second_diff, simpson
from oracle import LogisticOracle

from harvestfield.diffusion import _calculus, _Calculus, custom_model
from harvestfield.errors import DivergenceError, DomainError
from harvestfield.impulse import _running_potential, solve_auxiliary

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
    for ev in (benchmark_evaluator, _calculus(quadrature_twin)):
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


@pytest.mark.parametrize("read", ["xi", "xi_prime", "xi_second"])
def test_xi_reads_refuse_nan(benchmark_evaluator, read):
    # NaN fails `y >= y0`: refused as outside the domain, not reported as a divergent table
    for y in (math.nan, np.array([2.0, math.nan])):
        with pytest.raises(DomainError, match="got nan"):
            getattr(benchmark_evaluator, read)(y)


def test_interaction_level_refuses_nan(benchmark_model, rate_payoff):
    from harvestfield.meanfield import interaction_level, resolve_payoff

    with pytest.raises(DomainError, match="got nan"):
        interaction_level(benchmark_model, resolve_payoff(benchmark_model, rate_payoff), math.nan)


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
    assert benchmark_evaluator.xi_prime(1.0) == pytest.approx(
        _calculus(benchmark_model).M0(1.0), rel=1e-12
    )


def test_xi_prime_matches_finite_difference(benchmark_evaluator):
    y = 3.0
    fd = central_diff(benchmark_evaluator.xi, y, fd_step(y))
    assert benchmark_evaluator.xi_prime(y) == pytest.approx(fd, rel=1e-5)


def _custom_evaluators():
    """A model with a finite limit 1/s(0+) > 0, and the sqrt-noise model whose 0 is an entrance."""
    return [
        _calculus(custom_model(lambda x: 1.0 - 0.5 * x, lambda x: 1.0, y0=1.0)),
        _calculus(custom_model(lambda x: 1.5 - x, lambda x: math.sqrt(x), y0=1.0)),
    ]


def test_xi_second_matches_finite_difference(benchmark_evaluator):
    for ev in (benchmark_evaluator, *_custom_evaluators()):
        y = 4.0
        fd = second_diff(ev.xi, y, 1e-4)
        assert ev.xi_second(y) == pytest.approx(fd, rel=1e-4)
        for y in (1.5, 3.0):
            fd = central_diff(ev.xi_prime, y, fd_step(y))
            assert ev.xi_second(y) == pytest.approx(fd, rel=1e-6)


def test_xi_concave_below_drift_saturation(benchmark_evaluator):
    # drift peaks at 1.5; xi is concave from y0 up to its convexity switch near 2.15
    assert benchmark_evaluator.xi_second(1.2) < 0.0


def test_xi_second_single_sign_change(benchmark_evaluator):
    ys = np.geomspace(1.0, 100.0, 400)
    signs = np.sign(benchmark_evaluator.xi_second(ys))
    changes = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
    assert changes <= 1
    # and the change is from concave to convex
    assert signs[0] <= 0.0 and signs[-1] > 0.0


@pytest.mark.parametrize("route", ["benchmark_evaluator", "quadrature_twin"])
def test_scalar_xi_second_matches_array_element(route, request):
    ev = request.getfixturevalue(route)
    ev = ev if isinstance(ev, _Calculus) else _calculus(ev)
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
# the running potential: E_x int_0^{tau_c} (rho + a X) = Xi(c) - Xi(x)
# ---------------------------------------------------------------------------

_LEVELS = ((1.0, 3.0), (0.3, 4.0), (1.2, 4.0))   # (x, c), from y0 and from either side of it


def running_cost(model, rate, holding, x, c):
    return _running_potential(model, holding, rate, c) - _running_potential(model, holding, rate, x)


def test_running_cost_of_unit_rate_is_xi(benchmark_model, quadrature_twin):
    oracle = LogisticOracle(benchmark_model)
    for model in (benchmark_model, quadrature_twin):
        for x, c in _LEVELS:
            expected = oracle.running_cost(1.0, 0.0, x, c)
            assert running_cost(model, 1.0, 0.0, x, c) == pytest.approx(expected, rel=1e-9)


def test_running_cost_of_zero_is_zero(benchmark_model):
    xs = np.array([0.3, 1.0, 1.2, 3.0, 4.0])
    assert np.all(_running_potential(benchmark_model, 0.0, 0.0, xs) == 0.0)
    assert _running_potential(benchmark_model, 0.0, 0.0, 0.3) == 0.0


def test_running_cost_linear_state(benchmark_model, quadrature_twin):
    # independent 40-digit value of E_1[int_0^tau_3 X dt]
    assert running_cost(benchmark_model, 0.0, 1.0, 1.0, 3.0) == pytest.approx(
        2.4550772022054387, rel=1e-12
    )
    oracle = LogisticOracle(benchmark_model)
    for model in (benchmark_model, quadrature_twin):
        for x, c in _LEVELS:
            expected = oracle.running_cost(0.0, 1.0, x, c)
            assert running_cost(model, 0.0, 1.0, x, c) == pytest.approx(expected, rel=1e-9)
            # floats and arrays read the same potential
            on_array = _running_potential(model, 1.0, 0.0, np.array([x, c]))
            assert on_array[1] - on_array[0] == pytest.approx(expected, rel=1e-12)


def test_running_cost_additive_in_h(benchmark_model):
    both = running_cost(benchmark_model, 1.0, 1.0, 1.2, 4.0)
    rate = running_cost(benchmark_model, 1.0, 0.0, 1.2, 4.0)
    holding = running_cost(benchmark_model, 0.0, 1.0, 1.2, 4.0)
    assert both == pytest.approx(rate + holding, rel=1e-12)
    oracle = LogisticOracle(benchmark_model)
    assert both == pytest.approx(oracle.running_cost(1.0, 1.0, 1.2, 4.0), rel=1e-9)


def test_running_cost_domain_checks(benchmark_model):
    # the potential has no value at the boundary 0, and a holding cost must be a >= 0
    with pytest.raises(DivergenceError):
        _running_potential(benchmark_model, 1.0, 0.0, 0.0)
    for holding in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="holding cost"):
            solve_auxiliary(benchmark_model, lambda y: y - 1.0, holding, 1.0)


def test_xi_between_twin_routes(benchmark_evaluator, quadrature_twin):
    ev_twin = _calculus(quadrature_twin)
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
