import math

import numpy as np
import pytest
from helpers import first_order_root, second_diff
from oracle import LogisticOracle

from harvestfield.diffusion import _calculus, logistic_model
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


@pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 2.5])
def test_newton_solve_takes_few_steps(benchmark_model, k):
    # Newton converges quadratically from the doubling bracket; bisection needs about 32 steps
    sol = optimal_threshold_basic(benchmark_model, k)
    assert sol.iterations <= 10
    assert sol.residual < 1e-10


def test_degenerate_zero_cost_maximizer():
    # drift saturating below the restart level: xi is convex from y0 on, the
    # zero-cost rate (y-y0)/xi(y) is decreasing, and its supremum 1/xi'(y0)
    # is only approached at the restart level itself
    from harvestfield.diffusion import _calculus, logistic_model

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
    aux = solve_auxiliary(benchmark_model, lambda y: y - 1.0, 0.0, 1.0)
    basic = optimal_threshold_basic(benchmark_model, 1.0)
    assert aux.threshold == pytest.approx(basic.threshold, rel=1e-6)
    assert aux.value == pytest.approx(basic.value, rel=1e-9)


def test_auxiliary_scaled_reward_reduces_to_scaled_basic(benchmark_model):
    price = 0.6
    aux = solve_auxiliary(benchmark_model, lambda y: price * (y - 1.0), 0.0, 1.0)
    basic = optimal_threshold_basic(benchmark_model, 1.0 / price)
    assert aux.threshold == pytest.approx(basic.threshold, rel=1e-6)
    assert aux.value == pytest.approx(price * basic.value, rel=1e-9)


def test_auxiliary_threshold_decreases_with_linear_running_cost(benchmark_model):
    # penalizing standing stock makes waiting costlier, so the threshold
    # shrinks toward y0 as the rate grows (and -> y0 in the limit)
    thresholds = [
        solve_auxiliary(benchmark_model, lambda y: y - 1.0, holding, 1.0).threshold
        for holding in (0.0, 0.05, 0.1)
    ]
    assert thresholds[0] > thresholds[1] > thresholds[2]


def test_auxiliary_flags_unprofitable(benchmark_model):
    # bounded reward plus a stock-proportional running cost: the best
    # achievable long-run rate is interior but negative
    sol = solve_auxiliary(benchmark_model, lambda y: 1.0 - 1.0 / y, 0.5, 2.0)
    assert not sol.profitable
    assert sol.value < 0.0
    assert "no profitable harvest" in sol.flags


def test_auxiliary_reports_bracket_exhaustion(benchmark_model):
    # reward growing super-exponentially: no interior maximizer exists
    with pytest.raises(NoRootError):
        solve_auxiliary(benchmark_model, lambda y: math.exp(y * y) - 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# stopping-problem verification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_benchmark(benchmark_model, benchmark_evaluator, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    z = (5.130843093715409 - 1.0) / benchmark_evaluator.xi(5.130843093715409)
    sol = best_response(benchmark_model, payoff, z)
    price = float(payoff.phi(z))
    reward = lambda y: price * (y - 1.0)
    return sol, reward


def test_stopping_value_identities(benchmark_model, solved_benchmark):
    sol, reward = solved_benchmark
    sv = stopping_value(benchmark_model, reward, 0.0, 1.0, sol.value, sol.threshold)
    g0 = sv.values[np.argmin(np.abs(sv.grid - 1.0))]
    assert abs(g0) < 1e-6
    i_star = np.argmin(np.abs(sv.grid - sol.threshold))
    assert sv.values[i_star] == pytest.approx(reward(sol.threshold) - 1.0, abs=1e-8)
    on_grid = sv.grid >= 1.0
    assert np.all(
        sv.values[on_grid] >= np.array([reward(x) for x in sv.grid[on_grid]]) - 1.0 - 1e-9
    )
    assert np.all(np.diff(sv.values) >= -1e-9)


def test_verification_passes_for_true_solution(benchmark_model, solved_benchmark):
    sol, reward = solved_benchmark
    report = verify_solution(benchmark_model, sol, reward, 0.0, 1.0)
    assert report.passed
    assert abs(report.g_at_restart) < 1e-6
    assert report.u_max_on_grid <= 1e-6
    assert abs(report.u_at_threshold) < 1e-6


@pytest.mark.parametrize("shift", [0.5, -0.5])
def test_verification_detects_perturbed_threshold(
    benchmark_model, benchmark_evaluator, solved_benchmark, shift
):
    sol, reward = solved_benchmark
    y_fed = sol.threshold + shift
    value_fed = (reward(y_fed) - 1.0) / benchmark_evaluator.xi(y_fed)
    fed = ThresholdSolution(
        threshold=y_fed, value=value_fed, residual=0.0, bracket=(0.0, 0.0), iterations=0
    )
    report = verify_solution(benchmark_model, fed, reward, 0.0, 1.0)
    assert not report.passed
    # the sub-optimal renewal value leaves slack in the stopping problem
    assert report.g_at_restart > 1e-6
    if shift < 0.0:
        # a lowered threshold sits strictly inside the continuation region
        assert report.u_at_threshold < -1e-6


def test_verification_of_auxiliary_route(benchmark_model, solved_benchmark):
    _, reward = solved_benchmark
    aux = solve_auxiliary(benchmark_model, reward, 0.0, 1.0)
    report = verify_solution(benchmark_model, aux, reward, 0.0, 1.0)
    assert report.passed


@pytest.mark.parametrize("shift", [0.0, 0.5, -0.5])
def test_verification_with_a_holding_cost(benchmark_model, solved_benchmark, shift):
    # the stopping problem charges a X + rho through the potential rho xi + a P, with P the
    # cycle stock; the auxiliary maximizer passes and a shifted threshold fails
    from harvestfield.diffusion import _calculus

    _, reward = solved_benchmark
    holding = 0.05
    aux = solve_auxiliary(benchmark_model, reward, holding, 1.0)
    y = aux.threshold + shift
    calc = _calculus(benchmark_model)
    value = (reward(y) - 1.0 - holding * calc.cycle_stock(y)) / calc.xi(y)
    fed = ThresholdSolution(threshold=y, value=value, residual=0.0, bracket=(0.0, 0.0), iterations=0)
    report = verify_solution(benchmark_model, fed, reward, holding, 1.0)
    assert report.passed is (shift == 0.0)
