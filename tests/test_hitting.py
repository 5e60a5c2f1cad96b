import math
from importlib import resources

import numpy as np
import pytest
from helpers import central_diff, fd_step, second_diff, simpson
from oracle import LogisticOracle

from harvestfield.diffusion import (
    _CYC, _LOG_S, _M, _XM, _calculus, _Calculus, custom_model, logistic_model,
)
from harvestfield.errors import DivergenceError, DomainError
from harvestfield.impulse import _running_potential, solve_auxiliary
from harvestfield.scenario import load_scenario

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
# fused reads: several values from one table lookup, with the bits of the separate reads
# ---------------------------------------------------------------------------

_BUNDLED_RATE = ("logistic-harvest-rate.json", "custom-logistic-harvest-rate.json")


def _bundled_calculus(name):
    return _Calculus(load_scenario(str(resources.files("harvestfield") / "scenarios" / name)).model)


# y0, the convexity switch near 2.15, the equilibrium, and far out where s is large
_FUSED_POINTS = (1.0, 1.0005, 1.7, 2.15, 4.432, 5.130843097092457, 11.3, 60.0)


@pytest.mark.parametrize("name", _BUNDLED_RATE)
def test_point_read_keeps_the_bits_of_the_separate_reads(name):
    ev = _bundled_calculus(name)
    for y in _FUSED_POINTS:
        xi_prime = ev.s(y) * ev.M0(y)
        xi_second = 2.0 / float(ev.volatility(y)) ** 2 * (1.0 - float(ev.drift(y)) * ev.s(y) * ev.M0(y))
        separate = (ev.xi(y), xi_prime, xi_second)
        cycle = (ev.cycle_stock(y), ev.xm0(y) * ev.s(y))
        assert (ev.xi_prime(y), ev.xi_second(y)) == separate[1:], y
        assert ev.xi_derivatives(y) == separate, y
        assert ev.xi_derivatives(y, 1) == separate[:2], y
        assert ev.xi_derivatives(y, 2, stock=True) == separate + cycle, y
        assert ev.xi_derivatives(y, 1, stock=True) == separate[:2] + cycle, y


@pytest.mark.parametrize("name", _BUNDLED_RATE)
@pytest.mark.parametrize("stock", [False, True])
def test_grid_read_keeps_the_bits_of_the_separate_reads(name, stock):
    ev = _bundled_calculus(name)
    ys = np.geomspace(1.001, 60.0, 500)
    fused = ev.xi_derivatives(ys, 1, stock)
    separate = (ev.xi(ys), ev.xi_prime(ys), ev.cycle_stock(ys), ev.xm0(ys) * ev.s(ys))[: 4 if stock else 2]
    assert len(fused) == len(separate)
    for got, expected in zip(fused, separate):
        assert got.tobytes() == expected.tobytes()


class _FixedTable:
    """A stand-in table whose every read gives one fixed value per component."""

    def __init__(self, values):
        self.values = values

    def __call__(self, x, components):
        if isinstance(x, float):
            return [self.values[c] for c in components]
        return np.array([np.full(np.shape(x), self.values[c]) for c in components])


def _first_error(reads, y):
    """The message of the first read in ``reads`` at y that raises :class:`DivergenceError`, or None."""
    try:
        for read in reads:
            read(y)
    except DivergenceError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "component, value, message",
    [(_LOG_S, 1000.0, "scale density overflows: s is not finite at x = 2.0"),
     (_M, math.inf, "speed density overflows: M0 is not finite at x = 2.0"),
     (_CYC, math.inf, "scale density overflows: cycle stock is not finite at x = 2.0"),
     (_XM, math.inf, "speed density overflows: xm0 is not finite at x = 2.0")],
    ids=["s", "M0", "P", "xm0"],
)
def test_fused_reads_raise_the_separate_reads_errors(benchmark_model, component, value, message):
    # s = exp(log s), M0, the cycle stock P or xm0 past double range where xi is finite; the
    # logistic model takes its speed integrals below y0 from the gamma function, so no read but
    # these touches the table
    ev = _Calculus(benchmark_model)
    values = [0.5] * 7
    values[component] = value
    ev._table = _FixedTable(values)
    assert math.isfinite(ev.xi(2.0))
    separate = (lambda y: ev.s(y) * ev.M0(y), ev.cycle_stock, lambda y: ev.xm0(y) * ev.s(y))
    assert _first_error(separate, 2.0) == message
    # the fused read raises the first separate read's error; without the stock, only that of s M0,
    # at one threshold and on an array of them alike
    without_stock = _first_error(separate[:1], 2.0)
    for y in (2.0, np.array([2.0])):
        assert _first_error(separate, y) == message
        for order in (1, 2):
            assert _first_error((lambda y: ev.xi_derivatives(y, order, stock=True),), y) == message
            assert _first_error((lambda y: ev.xi_derivatives(y, order),), y) == without_stock


def test_point_read_raises_the_sigma2_overflow_of_xi_second():
    # sigma(y0) = 1e155: sigma^2 leaves double range at y0, where the table is not read
    ev = _Calculus(logistic_model(q=-1.0, b=0.5, beta=1e145, y0=1e10))
    with pytest.raises(DomainError) as separate:
        ev.xi_second(1e10)
    with pytest.raises(DomainError) as fused:
        ev.xi_derivatives(1e10)
    assert str(fused.value) == str(separate.value) == "sigma^2 overflows at x = 10000000000.0"


# every read writes one formula for floats and arrays: a component read without exp keeps its
# bits wherever np.log and math.log agree, and one through exp differs only by np.exp against
# math.exp, in the last bit; (read, points, the kind of each component it returns)
_XS = np.geomspace(0.01, 60.0, 400)   # on both sides of y0 = 1
_YS = np.geomspace(1.0, 60.0, 400)    # thresholds
_ACCESSORS = {
    "s": (lambda ev, x: ev.s(x), _XS, ("exp",)),
    "m": (lambda ev, x: ev.m(x), _XS, ("exp",)),
    "S": (lambda ev, x: ev.S(x), _XS, ("bits",)),
    "M0": (lambda ev, x: ev.M0(x), _XS, ("bits",)),
    "xm0": (lambda ev, x: ev.xm0(x), _XS, ("bits",)),
    "xi": (lambda ev, y: ev.xi(y), _YS, ("bits",)),
    "xi_prime": (lambda ev, y: ev.xi_prime(y), _YS, ("exp",)),
    "xi_second": (lambda ev, y: ev.xi_second(y), _YS, ("second",)),
    "cycle_stock": (lambda ev, y: ev.cycle_stock(y), _YS, ("bits",)),
    "xi_derivatives": (lambda ev, y: ev.xi_derivatives(y), _YS, ("bits", "exp", "second")),
    "xi_derivatives-stock": (
        lambda ev, y: ev.xi_derivatives(y, 1, stock=True), _YS, ("bits", "exp", "bits", "exp")
    ),
}


@pytest.mark.parametrize("name", _BUNDLED_RATE)
@pytest.mark.parametrize("accessor", list(_ACCESSORS))
def test_float_and_array_reads_agree(name, accessor):
    ev = _bundled_calculus(name)
    read, points, kinds = _ACCESSORS[accessor]
    same_log = np.log(points) == np.array([math.log(p) for p in points])
    assert np.count_nonzero(same_log) >= 0.9 * len(points)
    floats = [read(ev, float(p)) for p in points]
    array = read(ev, points)
    if len(kinds) == 1:
        floats, array = [(v,) for v in floats], (array,)
    assert all(type(v) is float for reads in floats for v in reads)
    for k, kind in enumerate(kinds):
        got, expected = array[k][same_log], np.array([v[k] for v in floats])[same_log]
        if kind == "bits":
            assert got.tobytes() == expected.tobytes(), k
            continue
        size = np.abs(expected)
        if kind == "second":   # xi'' = 2/sigma^2 (1 - mu xi') crosses 0: relative to its terms
            y = points[same_log]
            size = 2.0 / ev.volatility(y) ** 2 * (1.0 + np.abs(ev.drift(y) * ev.xi_prime(y)))
        assert np.all(np.abs(got - expected) <= 1e-15 * size), k


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
            solve_auxiliary(benchmark_model, 1.0, holding, 1.0)
    for price in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="price"):
            solve_auxiliary(benchmark_model, price, 0.0, 1.0)


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
