import math

import numpy as np
import pytest
from helpers import first_order_root, second_diff
from oracle import LogisticOracle
from scipy.optimize import brentq

from harvestfield.diffusion import _calculus, custom_model, logistic_model
from harvestfield.errors import DomainError, NoRootError
from harvestfield.impulse import (
    ThresholdSolution,
    best_response,
    critical_bounds,
    max_harvest_rate,
    optimal_threshold_basic,
    solve_auxiliary,
    stopping_value,
    verify_solution,
)
from harvestfield.meanfield import resolve_payoff
from harvestfield.payoff import Interaction, PayoffSpec


# ---------------------------------------------------------------------------
# basic problem
# ---------------------------------------------------------------------------

def test_threshold_monotone_in_cost(benchmark_model):
    costs = [0.0, 0.3, 1.0, 2.5]
    thresholds = [optimal_threshold_basic(benchmark_model, k).threshold for k in costs]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


def test_threshold_beats_brute_force_grid(benchmark_model, benchmark_evaluator):
    sol = optimal_threshold_basic(benchmark_model, 1.0)
    ys = np.linspace(1.0 + 1e-4, 40.0, 10_000)
    grid_vals = (ys - 1.0 - 1.0) / np.asarray(benchmark_evaluator.xi(ys))
    assert sol.value >= grid_vals.max() - 1e-12
    assert sol.threshold == pytest.approx(ys[np.argmax(grid_vals)], abs=2 * (ys[1] - ys[0]))


def test_objective_has_single_local_max(benchmark_evaluator):
    ys = np.linspace(1.0 + 1e-4, 40.0, 10_000)
    vals = (ys - 2.0) / np.asarray(benchmark_evaluator.xi(ys))
    d = np.diff(vals)
    switches = int(np.count_nonzero(np.diff(np.sign(d[d != 0.0]))))
    assert switches <= 1


def test_threshold_exceeds_restart_plus_cost(benchmark_model):
    for k in (0.0, 1.0, 4.0):
        assert optimal_threshold_basic(benchmark_model, k).threshold >= 1.0 + k


def test_solution_invariants(benchmark_model, benchmark_evaluator):
    sol = optimal_threshold_basic(benchmark_model, 1.0)
    lo, hi = sol.bracket
    assert lo < sol.threshold < hi
    assert abs(sol.residual) < 1e-10
    recomputed = (sol.threshold - 1.0 - 1.0) / benchmark_evaluator.xi(sol.threshold)
    assert sol.value == pytest.approx(recomputed, abs=1e-10)


def test_negative_cost_rejected(benchmark_model):
    for k in (-0.5, math.nan):   # NaN fails `k >= 0` too
        with pytest.raises(DomainError, match=f"got {k}"):
            optimal_threshold_basic(benchmark_model, k)


@pytest.mark.parametrize(
    "k, holding",
    [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0), (2.5, 0.0), (0.3, 0.5), (1.0, 0.05), (1.0, 5.0), (2.5, 0.5)],
    ids=["0.0", "0.3", "1.0", "2.5", "0.3-a0.5", "1.0-a0.05", "1.0-a5.0", "2.5-a0.5"],
)
def test_newton_solve_takes_few_steps(benchmark_model, k, holding):
    # Newton converges quadratically from the doubling bracket; bisection needs about 32 steps.
    # With a holding cost a the root lies in [y0, y0 + k] at a = 5
    if holding:
        sol = solve_auxiliary(benchmark_model, 1.0, holding, k)
    else:
        sol = optimal_threshold_basic(benchmark_model, k)
    assert sol.iterations <= 10
    assert sol.residual < 1e-10


def test_ratio_form_solve_takes_at_most_five_steps(benchmark_model):
    # Newton on xi/xi' - (y - y0 - Kt), close to linear where F = xi - (y - y0 - Kt) xi' grows
    # exponentially; on F, Kt = 20 took 16 steps from the bracket midpoint
    for k in np.geomspace(0.01, 20.0, 20):
        assert optimal_threshold_basic(benchmark_model, float(k)).iterations <= 5, k


def test_ratio_form_threshold_is_exact_to_rounding(benchmark_model):
    # against brentq on F over the independent series oracle; on F the Newton stopping rule
    # left up to about 1e-10
    exact = LogisticOracle(benchmark_model)
    for k in np.geomspace(0.01, 20.0, 7):
        sol = optimal_threshold_basic(benchmark_model, float(k))
        root = first_order_root(exact, float(k), (0.5 * (1.0 + k + sol.threshold), 2.0 * sol.threshold))
        assert sol.threshold == pytest.approx(root, rel=1e-14, abs=0.0), k


def test_zero_cost_threshold_is_exact_to_rounding():
    # against brentq on F over the series oracle, on 24 drawn logistic models whose zero-cost
    # maximizer is interior (at least 5% above y0 = 1); on F the solve left up to 1.4e-10.
    # Near the convex start g is flat at its root, and the table's own root sits up to 1e-13
    # from the oracle's
    rng = np.random.default_rng(20)
    solved = 0
    while solved < 24:
        q, b, beta = rng.uniform(-2.0, -0.2), rng.uniform(0.2, 1.0), rng.uniform(0.6, 1.4)
        model = logistic_model(q=q, b=b, beta=beta, y0=1.0)
        sol = optimal_threshold_basic(model, 0.0)
        if sol.threshold < 1.05:
            continue
        exact = LogisticOracle(model)
        root = first_order_root(exact, 0.0, (1.0 + 1e-3 * (sol.threshold - 1.0), 2.0 * sol.threshold))
        assert sol.threshold == pytest.approx(root, rel=1e-13, abs=0.0), (q, b, beta)
        solved += 1


def test_degenerate_zero_cost_maximizer():
    # drift saturating below the restart level: xi is convex from y0 on, the
    # zero-cost rate (y-y0)/xi(y) is decreasing, and its supremum 1/xi'(y0)
    # is only approached at the restart level itself
    from harvestfield.diffusion import _calculus, custom_model, logistic_model

    model = logistic_model(q=-0.55, b=0.85, beta=1.0, y0=1.0)
    ev = _calculus(model)
    assert ev.xi_second(1.0) > 0.0
    sol = optimal_threshold_basic(model, 0.0)
    assert sol.threshold == 1.0
    assert sol.value == pytest.approx(1.0 / ev.xi_prime(1.0), rel=1e-12)
    assert "maximizer degenerates to the restart level" in sol.flags
    ys = np.linspace(1.0 + 1e-6, 20.0, 500)
    rates = (ys - 1.0) / np.asarray(ev.xi(ys))
    assert np.all(rates <= sol.value + 1e-12)


# b at which xi''(1) = 0 for q = -1, beta = 1, y0 = 1: brentq on the oracle's xi''(1) in b
_B_CONVEX_AT_RESTART = 1.0745628999535315


@pytest.mark.parametrize("d", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
def test_zero_cost_solve_near_the_convex_start(d):
    # xi is barely concave at y0 = 1, so the zero-cost maximizer sits just right of y0 and
    # F = xi - (y - 1) xi' stays within rounding of 0 between them; the bracket starting
    # at y0 still holds the root
    model = logistic_model(q=-1.0, b=_B_CONVEX_AT_RESTART * (1.0 - d), beta=1.0, y0=1.0)
    sol = optimal_threshold_basic(model, 0.0)
    ev = _calculus(model)
    ys = np.linspace(1.0 + 1e-6, 1.1, 2000)
    # the rate is flat to about 1e-10 relative near y0, below the table's resolution there
    assert sol.value >= np.max((ys - 1.0) / ev.xi(ys)) * (1.0 - 1e-9)
    if d < 1e-2:
        # so flat an F fixes the threshold only to about 1e-8 (d = 1e-4) and worse below
        assert 1.0 <= sol.threshold <= 1.0 + max(2e-5, 2.0 * d)
    else:
        exact = LogisticOracle(model)
        root = first_order_root(exact, 0.0, (0.5 * (1.0 + sol.threshold), 2.0))
        assert sol.threshold == pytest.approx(root, rel=1e-9)


def test_max_harvest_rate(benchmark_model, benchmark_evaluator):
    rate = max_harvest_rate(benchmark_model)
    assert rate > 0.0
    y_hat = optimal_threshold_basic(benchmark_model, 0.0).threshold
    ys = np.linspace(1.0 + 1e-4, 30.0, 4000)
    rates = (ys - 1.0) / np.asarray(benchmark_evaluator.xi(ys))
    assert rate >= rates.max() - 1e-12
    # the rate decreases past its maximizer
    beyond = rates[ys > y_hat * 1.001]
    assert np.all(np.diff(beyond) < 0.0)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def test_constant_price_ignores_interaction(benchmark_model):
    payoff = PayoffSpec(
        cost=1.0, phi=lambda z: 0.8, interaction=Interaction.HARVEST_RATE, phi_source="0.8"
    )
    a = best_response(benchmark_model, payoff, 0.1)
    b = best_response(benchmark_model, payoff, 0.7)
    assert a.threshold == pytest.approx(b.threshold, rel=1e-12)


def test_best_response_fixed_point_of_benchmark(benchmark_model, benchmark_evaluator, rate_payoff):
    # at the equilibrium interaction level the best response reproduces it
    z = (5.130843093715409 - 1.0) / benchmark_evaluator.xi(5.130843093715409)
    sol = best_response(benchmark_model, rate_payoff, z)
    assert sol.threshold == pytest.approx(5.1308, abs=2e-3)
    assert sol.value == pytest.approx(0.2429, abs=1e-3)


def test_best_response_increasing_when_price_decays(benchmark_model, rate_payoff):
    thresholds = [best_response(benchmark_model, rate_payoff, z).threshold for z in (0.0, 0.4, 0.8)]
    assert thresholds[0] < thresholds[1] < thresholds[2]


def test_best_response_rejects_nonpositive_price(benchmark_model):
    payoff = PayoffSpec(
        cost=1.0, phi=lambda z: -1.0, interaction=Interaction.HARVEST_RATE, phi_source="-1"
    )
    with pytest.raises(DomainError):
        best_response(benchmark_model, payoff, 0.5)


def test_price_scaling_leaves_argmax(benchmark_model, benchmark_evaluator):
    base = PayoffSpec(
        cost=1.0, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
    )
    scaled = PayoffSpec(
        cost=1.0, phi=lambda z: 3.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
    )
    # scaling phi also scales the effective cost ratio K/phi, so compare at
    # matched ratios: phi -> c phi with K -> c K keeps the argmax identical
    scaled_cost = PayoffSpec(
        cost=3.0, phi=lambda z: 3.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
    )
    a = best_response(benchmark_model, base, 0.5)
    c = best_response(benchmark_model, scaled_cost, 0.5)
    assert a.threshold == pytest.approx(c.threshold, rel=1e-8)
    assert 3.0 * a.value == pytest.approx(c.value, rel=1e-8)
    # and with K fixed, scaling phi up moves the threshold down (cheaper impulses)
    b = best_response(benchmark_model, scaled, 0.5)
    assert b.threshold < a.threshold


def test_second_order_condition_at_critical_point(benchmark_model, benchmark_evaluator, rate_payoff):
    z = 0.5
    sol = best_response(benchmark_model, rate_payoff, z)
    price = rate_payoff.phi(z)

    def objective(y):
        return (price * (y - 1.0) - 1.0) / benchmark_evaluator.xi(y)

    curvature = second_diff(objective, sol.threshold, 1e-4)
    assert curvature < 0.0


def test_critical_bounds(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    y_lo, y_hi = critical_bounds(benchmark_model, payoff)
    y_hat0 = optimal_threshold_basic(benchmark_model, 0.0).threshold
    assert y_hat0 < y_lo <= y_hi
    flat = resolve_payoff(
        benchmark_model,
        PayoffSpec(cost=1.0, phi=lambda z: 0.5, interaction=Interaction.HARVEST_RATE),
    )
    lo, hi = critical_bounds(benchmark_model, flat)
    assert lo == pytest.approx(hi, rel=1e-9)


def test_critical_bounds_requires_domain(benchmark_model, rate_payoff):
    with pytest.raises(DomainError):
        critical_bounds(benchmark_model, rate_payoff)  # unresolved payoff


# ---------------------------------------------------------------------------
# auxiliary problem
# ---------------------------------------------------------------------------

def test_auxiliary_reduces_to_basic(benchmark_model):
    # with no holding cost the auxiliary problem is the basic solve, bit for bit
    aux = solve_auxiliary(benchmark_model, 1.0, 0.0, 1.0)
    basic = optimal_threshold_basic(benchmark_model, 1.0)
    assert aux.threshold == basic.threshold
    assert aux.value == basic.value


def test_auxiliary_scaled_reward_reduces_to_scaled_basic(benchmark_model):
    price = 0.6
    aux = solve_auxiliary(benchmark_model, price, 0.0, 1.0)
    basic = optimal_threshold_basic(benchmark_model, 1.0 / price)
    assert aux.threshold == basic.threshold
    assert aux.value == price * basic.value


def test_auxiliary_threshold_decreases_with_linear_running_cost(benchmark_model):
    # penalizing standing stock makes waiting costlier, so the threshold
    # shrinks toward y0 as the rate grows (and -> y0 in the limit)
    thresholds = [
        solve_auxiliary(benchmark_model, 1.0, holding, 1.0).threshold
        for holding in (0.0, 0.05, 0.1)
    ]
    assert thresholds[0] > thresholds[1] > thresholds[2]


@pytest.mark.parametrize("holding", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("price", [1.0, 0.6])
def test_auxiliary_matches_first_order_root(benchmark_model, holding, price):
    # brentq on G = (1 - a P') xi - (y - y0 - Kt - a P) xi' from the closed forms, with
    # Kt = K/p, a = holding/p and P' = xm0 s; at a = 5 the root lies left of y0 + Kt
    exact = LogisticOracle(benchmark_model)
    k_tilde, a = 1.0 / price, holding / price

    def g(y):
        stock_slope = exact.xm0(y) * exact.s(y)
        net = y - 1.0 - k_tilde - a * exact.cycle_stock(y)
        return float((1.0 - a * stock_slope) * exact.xi(y) - net * exact.xi_prime(y))

    lo, hi = 1.0, 1.0 + k_tilde
    while g(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
    root = brentq(g, lo, hi, xtol=1e-14, rtol=1e-14)
    sol = solve_auxiliary(benchmark_model, price, holding, 1.0)
    assert sol.threshold == pytest.approx(root, rel=1e-10)
    y = sol.threshold
    expected = (price * (y - 1.0) - 1.0 - holding * exact.cycle_stock(y)) / exact.xi(y)
    assert sol.value == pytest.approx(expected, rel=1e-10)


def test_auxiliary_is_exact_to_rounding_in_few_steps():
    # brentq on G over the series oracle, on 40 drawn logistic models restarting below their
    # carrying capacity, with drawn prices, costs and holding costs; in 4 draws the root lies
    # left of y0 + Kt. On G the solve took up to 8 steps and left up to 5e-11. A model that
    # restarts far above its capacity has xi of 1e3-1e5 at the root, where the table's own
    # root of G sits up to 1.6e-12 from the oracle's
    rng = np.random.default_rng(40)
    solved = 0
    while solved < 40:
        q, b, beta = rng.uniform(-2.0, -0.2), rng.uniform(0.2, 1.0), rng.uniform(0.6, 1.4)
        price, cost = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
        holding = float(np.exp(rng.uniform(math.log(0.01), math.log(5.0))))
        model = logistic_model(q=q, b=b, beta=beta, y0=1.0)
        if model.logistic.growth / b < 1.0:
            continue
        exact = LogisticOracle(model)
        k_tilde, a = cost / price, holding / price

        def g(y):
            net = y - 1.0 - k_tilde - a * exact.cycle_stock(y)
            return float((1.0 - a * exact.xm0(y) * exact.s(y)) * exact.xi(y) - net * exact.xi_prime(y))

        lo, hi = 1.0, 1.0 + k_tilde
        while g(hi) >= 0.0:
            lo, hi = hi, 2.0 * hi
        root = brentq(g, lo, hi, xtol=1e-15, rtol=1e-15)
        sol = solve_auxiliary(model, price, holding, cost)
        assert sol.threshold == pytest.approx(root, rel=1e-14, abs=0.0), (q, b, beta)
        assert sol.iterations <= 5, (q, b, beta)
        solved += 1


@pytest.mark.parametrize("holding", [0.05, 0.5, 5.0])
def test_auxiliary_twins_agree(benchmark_model, quadrature_twin, holding):
    logistic = solve_auxiliary(benchmark_model, 0.6, holding, 1.0)
    twin = solve_auxiliary(quadrature_twin, 0.6, holding, 1.0)
    assert twin.threshold == pytest.approx(logistic.threshold, rel=1e-12)
    assert twin.value == pytest.approx(logistic.value, rel=1e-12)


def test_auxiliary_flags_unprofitable(benchmark_model):
    # a stock-proportional running cost: the best achievable long-run rate is
    # interior but negative
    sol = solve_auxiliary(benchmark_model, 1.0, 0.5, 2.0)
    assert sol.value == pytest.approx(-0.335, abs=1e-3)
    assert not sol.profitable
    assert sol.flags == ("no profitable harvest",)


def test_auxiliary_ends_a_rounding_cycle():
    # Newton steps of 1.2e-10 cycle between two points where rounding holds |g|/y at
    # 3.7e-10, above the 1e-10 gate: a second step below 1e-8 y in a row ends the solve
    model = logistic_model(q=-0.46009279901824307, b=33.48535698610243, beta=0.7604054150704584,
                           y0=0.2621927118335913)
    sol = solve_auxiliary(model, 1.0, 2.093440462010641e-06, 0.04689679321483356)
    assert sol.iterations <= 10
    assert sol.threshold == 0.318192823909028
    assert sol.flags == ("no profitable harvest",)


def test_threshold_solve_raises_on_an_exhausted_budget():
    # xi/xi' jumps from 2 to 0.1 at y = 1.5, so g = xi/xi' - (y - 1) jumps from 1.5 to -0.4 there:
    # every Newton point leaves the bracket, and bisection never brings |g| below the gate
    from types import SimpleNamespace

    from harvestfield.errors import SolverError
    from harvestfield.impulse import _solve_threshold

    def xi_derivatives(y, order, stock):
        quotient = 2.0 if y < 1.5 else 0.1
        return 1.0, 1.0 / quotient, 1.0 / quotient
    calc = SimpleNamespace(y0=0.0, xi_derivatives=xi_derivatives)
    with pytest.raises(SolverError, match="did not converge in 400 Newton steps"):
        _solve_threshold(calc, 1.0, 0.0)


def test_auxiliary_reports_bracket_exhaustion():
    # a transient geometric Brownian motion drifts off to infinity: (y - y0 - Kt)/xi(y)
    # grows without bound, so neither solve finds a maximizer
    model = custom_model(drift=lambda x: 0.5 * x, volatility=lambda x: 0.3 * x, y0=1.0)
    with pytest.raises(NoRootError):
        optimal_threshold_basic(model, 1.0)
    with pytest.raises(NoRootError):
        solve_auxiliary(model, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# stopping-problem verification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_benchmark(benchmark_model, benchmark_evaluator, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    z = (5.130843093715409 - 1.0) / benchmark_evaluator.xi(5.130843093715409)
    sol = best_response(benchmark_model, payoff, z)
    return sol, float(payoff.phi(z))


def test_stopping_value_identities(benchmark_model, solved_benchmark):
    sol, price = solved_benchmark
    sv = stopping_value(benchmark_model, price, 0.0, 1.0, sol.value, sol.threshold)
    # the grid runs from y0 = 1 to 1.5 y, with the threshold on it
    assert sv.grid[0] == 1.0 and sv.grid[-1] == 1.5 * sol.threshold
    assert abs(sv.values[0]) < 1e-6
    i_star = np.searchsorted(sv.grid, sol.threshold)
    assert sv.grid[i_star] == sol.threshold
    assert sv.values[i_star] == pytest.approx(price * (sol.threshold - 1.0) - 1.0, abs=1e-8)
    assert np.all(sv.values >= price * (sv.grid - 1.0) - 1.0 - 1e-9)
    assert np.all(np.diff(sv.values) >= -1e-9)


def test_verification_passes_for_true_solution(benchmark_model, solved_benchmark):
    sol, price = solved_benchmark
    report = verify_solution(benchmark_model, sol, price, 0.0, 1.0)
    assert report.passed
    assert abs(report.g_at_restart) < 1e-6
    assert report.u_max_on_grid <= 1e-6
    assert abs(report.u_at_threshold) < 1e-6


@pytest.mark.parametrize("shift", [0.5, -0.5])
def test_verification_detects_perturbed_threshold(
    benchmark_model, benchmark_evaluator, solved_benchmark, shift
):
    sol, price = solved_benchmark
    y_fed = sol.threshold + shift
    value_fed = (price * (y_fed - 1.0) - 1.0) / benchmark_evaluator.xi(y_fed)
    fed = ThresholdSolution(
        threshold=y_fed, value=value_fed, residual=0.0, bracket=(0.0, 0.0), iterations=0
    )
    report = verify_solution(benchmark_model, fed, price, 0.0, 1.0)
    assert not report.passed
    # the sub-optimal renewal value leaves slack in the stopping problem
    assert report.g_at_restart > 1e-6
    if shift < 0.0:
        # a lowered threshold sits strictly inside the continuation region
        assert report.u_at_threshold < -1e-6


def test_verification_of_auxiliary_route(benchmark_model, solved_benchmark):
    _, price = solved_benchmark
    aux = solve_auxiliary(benchmark_model, price, 0.0, 1.0)
    report = verify_solution(benchmark_model, aux, price, 0.0, 1.0)
    assert report.passed


@pytest.mark.parametrize("shift", [0.0, 0.5, -0.5])
def test_verification_with_a_holding_cost(benchmark_model, solved_benchmark, shift):
    # the stopping problem charges a X + rho through the potential rho xi + a P, with P the
    # cycle stock; the auxiliary maximizer passes and a shifted threshold fails
    from harvestfield.diffusion import _calculus

    _, price = solved_benchmark
    holding = 0.05
    aux = solve_auxiliary(benchmark_model, price, holding, 1.0)
    y = aux.threshold + shift
    calc = _calculus(benchmark_model)
    value = (price * (y - 1.0) - 1.0 - holding * calc.cycle_stock(y)) / calc.xi(y)
    fed = ThresholdSolution(threshold=y, value=value, residual=0.0, bracket=(0.0, 0.0), iterations=0)
    report = verify_solution(benchmark_model, fed, price, holding, 1.0)
    assert report.passed is (shift == 0.0)
