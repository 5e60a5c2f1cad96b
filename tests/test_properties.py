"""Property tests of the tabulated route and the threshold solves.

Over the ergodic logistic region, each example builds the same diffusion
twice, once as a logistic model and once through ``custom_model``; both read
the one scale/speed table, and both are checked against the closed forms and
series of :mod:`oracle`. Over the same region, both twins' threshold solves,
at zero and at positive cost, are checked against the root of the
first-order condition on the oracle's ``xi`` and ``xi'``, and the custom
twin's speed integrals from 0 and to infinity, read from the table's limits,
against the oracle's gamma forms. Over logistic-shaped custom coefficients,
ergodic or not, the solvers may fail only with the package's own errors.
"""

import math

import numpy as np
import pytest
from helpers import first_order_root
from oracle import LogisticOracle, gompertz_log_scale, gompertz_mass

from harvestfield.diffusion import _calculus, custom_model, logistic_model, validate_assumptions
from harvestfield.errors import HarvestFieldError
from harvestfield.impulse import best_response, optimal_threshold_basic
from harvestfield.meanfield import resolve_payoff
from harvestfield.payoff import Interaction, PayoffSpec
from harvestfield.stationary import stock_bounds

pytest.importorskip("hypothesis")
from hypothesis import event, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ergodic = st.fixed_dictionaries(
    {
        "q": st.floats(-2.0, -0.2),
        "b": st.floats(0.2, 1.0),
        "beta": st.floats(0.6, 1.4),
        "y0": st.floats(0.5, 2.0),
    }
)


def twins(q, b, beta, y0):
    closed = logistic_model(q=q, b=b, beta=beta, y0=y0)
    g = closed.logistic.growth
    tabulated = custom_model(lambda x: x * (g - b * x), lambda x: beta * x, y0=y0)
    return closed, tabulated


def assert_close(actual, expected, rel, scale=None):
    """Relative agreement; ``scale`` replaces |expected| where the value is a small difference."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    bound = rel * (np.abs(expected) if scale is None else np.maximum(np.abs(expected), scale))
    assert np.all(np.abs(actual - expected) <= bound), np.max(np.abs(actual - expected) / bound)


@given(ergodic)
def test_tabulated_route_matches_closed_forms(params):
    closed, tabulated = twins(**params)
    y0, beta = params["y0"], params["beta"]
    xs = np.geomspace(y0 / 10.0, 20.0 * y0, 15)
    exact = LogisticOracle(closed)
    growth = closed.logistic.growth
    ys = xs[xs > y0]
    mu, sigma2 = ys * (growth - params["b"] * ys), (beta * ys) ** 2
    for model in (closed, tabulated):
        table = _calculus(model)
        for name in ("s", "m", "S", "M0", "xm0"):
            assert_close(getattr(table, name)(xs), getattr(exact, name)(xs), 1e-8)
        assert_close(table.m(xs) * table.s(xs) * (beta * xs) ** 2, 2.0, 1e-12)

        ev = _calculus(model)
        assert_close(ev.xi(ys), exact.xi(ys), 1e-8)
        assert_close(ev.xi_prime(ys), exact.xi_prime(ys), 1e-8)
        # xi'' changes sign once: compare it on the scale of the two terms it subtracts
        terms = 2.0 * exact.s(ys) / sigma2 * (np.abs(exact.mum0(ys)) + np.abs(mu) * exact.M0(ys))
        assert_close(ev.xi_second(ys), exact.xi_second(ys), 1e-8, scale=terms)
        assert_close(table.cycle_stock(ys), exact.cycle_stock(ys), 1e-8)

        z1, z2 = stock_bounds(model)
        assert z1 <= z2


@given(ergodic)
def test_table_limits_match_gamma_forms(params):
    # the twin reads its speed integrals from 0 and its totals from the table's limits
    closed, tabulated = twins(**params)
    exact, calc, y0 = LogisticOracle(closed), _calculus(tabulated), params["y0"]
    assert_close(calc.M0(y0), exact.M0(y0), 1e-10)
    assert_close(calc.xm0(y0), exact.xm0(y0), 1e-10)
    assert_close(calc.speed_mass_total(), exact.gamma_moment(0.0, math.inf), 1e-10)
    assert_close(calc.xm_total(), exact.gamma_moment(1.0, math.inf), 1e-10)


@given(ergodic, st.floats(0.05, 3.0))
def test_threshold_solves_match_first_order_root(params, k):
    # both twins, at zero cost and two positive costs; the solver's bracket starts at
    # y0 + Kt whether xi is still concave there (left of the convexity switch) or not
    y0 = params["y0"]
    exact = LogisticOracle(logistic_model(**params))
    for model in twins(**params):
        for kt in (0.0, k, 2.0 * k):
            sol = optimal_threshold_basic(model, kt)
            corner = y0 + kt
            if sol.threshold == y0:   # zero cost with xi convex from y0 on: F < 0 past y0
                assert kt == 0.0 and exact.xi_second(y0) > -1e-12
                continue
            event("xi concave at y0 + Kt" if exact.xi_second(corner) < 0.0 else "xi convex at y0 + Kt")
            # F(y0) = xi(y0) = 0 at zero cost, so the oracle's bracket starts just past the corner
            left = corner + 1e-3 * (sol.threshold - corner)
            root = first_order_root(exact, kt, (left, sol.bracket[1]))
            assert_close(sol.threshold, root, 1e-9)


@given(
    st.floats(0.3, 3.0),     # growth / beta^2: at or below 1/2 the process is not ergodic
    st.floats(0.0, 1.0),     # crowding; 0 leaves the drift unsaturated
    st.floats(0.3, 1.5),     # beta
    st.floats(0.5, 2.0),     # cost K
)
def test_custom_models_raise_only_package_errors(growth_ratio, b, beta, cost):
    growth = growth_ratio * beta**2
    model = custom_model(lambda x: x * (growth - b * x), lambda x: beta * x, y0=1.0)
    assert isinstance(validate_assumptions(model).all_passed, bool)
    payoff = PayoffSpec(
        cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE,
        phi_source="1/(1+z)",
    )
    try:
        resolved = resolve_payoff(model, payoff)
        solution = best_response(model, resolved, 0.5 * resolved.domain[1])
    except HarvestFieldError:
        return
    assert math.isfinite(solution.threshold) and solution.threshold > 1.0
    try:
        z1, z2 = stock_bounds(model)
    except HarvestFieldError:
        return
    assert z1 <= z2


@given(
    st.floats(0.2, 1.5),     # a
    st.floats(0.2, 1.0),     # b
    st.floats(0.7, 1.4),     # beta
    st.floats(0.5, 2.0),     # y0
)
def test_tabulated_gompertz_matches_closed_form(a, b, beta, y0):
    # closed forms of drift x (a - b log x), vol beta x: see oracle.gompertz_log_scale
    model = custom_model(lambda x: x * (a - b * np.log(x)), lambda x: beta * x, y0=y0)
    calc = _calculus(model)
    xs = np.geomspace(y0 / 10.0, 20.0 * y0, 15)
    log_s = gompertz_log_scale(a, b, beta, y0, xs)
    assert_close(calc.s(xs), np.exp(log_s), 1e-10)
    assert_close(calc.m(xs), 2.0 / (beta * xs) ** 2 * np.exp(-log_s), 1e-10)
    mass = gompertz_mass(a, b, beta, y0, xs)
    # the table adds M[y0, x] to M0(y0): below y0 that sum rounds on the scale of M0(y0)
    floor = 1e-4 * calc.M0(y0)
    assert_close(calc.M0(xs), mass, 1e-10, scale=floor)
    for x, expected_s, expected_mass in zip(xs, np.exp(log_s), mass):
        assert_close(calc.s(float(x)), expected_s, 1e-10)
        assert_close(calc.M0(float(x)), expected_mass, 1e-10, scale=floor)


@given(
    st.sampled_from(["gompertz", "square-root noise"]),
    st.floats(0.1, 3.0),     # growth a (Gompertz) or g (square-root noise)
    st.floats(0.0, 1.0),     # b; 0 leaves the drift unsaturated
    st.floats(0.3, 1.5),     # beta
    st.floats(0.5, 2.0),     # cost K
)
def test_non_logistic_models_raise_only_package_errors(shape, growth, b, beta, cost):
    if shape == "gompertz":
        model = custom_model(lambda x: x * (growth - b * np.log(x)), lambda x: beta * x, y0=1.0)
    else:
        model = custom_model(lambda x: x * (growth - b * x), lambda x: beta * np.sqrt(x), y0=1.0)
    assert isinstance(validate_assumptions(model).all_passed, bool)
    payoff = PayoffSpec(
        cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE,
        phi_source="1/(1+z)",
    )
    try:
        resolved = resolve_payoff(model, payoff)
        solution = best_response(model, resolved, 0.5 * resolved.domain[1])
    except HarvestFieldError:
        return
    assert math.isfinite(solution.threshold) and solution.threshold > 1.0
    try:
        z1, z2 = stock_bounds(model)
    except HarvestFieldError:
        return
    assert z1 <= z2
