"""Acceptance suite: every criterion at its pinned tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines
as they complete. Each test prints its line before asserting, so the summary
is complete even when a criterion fails.
"""

import time

import numpy as np
import pytest
from helpers import equilibria_oracle
from oracle import LogisticOracle, integrate, integrate_to_zero

from harvestfield.diffusion import _calculus, logistic_model
from harvestfield.impulse import ThresholdSolution, best_response, verify_solution
from harvestfield.meanfield import (
    mfc_optimum,
    mfg_equilibrium,
    ordering_sweep,
    phi_map,
    resolve_payoff,
)
from harvestfield.payoff import Interaction, PayoffSpec
from harvestfield.simulation import (
    SimConfig,
    estimate_hitting_time,
    estimate_stationary_mean,
    estimate_value,
)
from harvestfield.stationary import (
    controlled_cdf,
    controlled_density,
    expected_stock,
    stock_bounds,
)

# independent 40-digit references (mpmath series / tanh-sinh quadrature)
XI_2 = 1.2038881223660562
ESTOCK_4 = 1.2451224070965399


def _report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def model():
    return logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)


@pytest.fixture(scope="module")
def evaluator(model):
    return _calculus(model)


@pytest.fixture(scope="module")
def rate_payoff():
    return PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + z),
        interaction=Interaction.HARVEST_RATE,
        phi_source="1/(z+1)",
    )


@pytest.fixture(scope="module")
def stock_payoff():
    return PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + np.exp(10.0 * (z - 1.9))),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source="1/(1+exp(10*(z-1.9)))",
    )


def test_criterion_1_equilibrium_reproduction(capsys, model, rate_payoff):
    start = time.monotonic()
    eq = mfg_equilibrium(model, rate_payoff)
    elapsed = time.monotonic() - start
    unique = len(eq) == 1
    threshold = eq.equilibria[0].threshold
    value = eq.equilibria[0].value
    ok = (
        unique
        and abs(threshold - 5.13) <= 0.05
        and abs(value - 0.243) <= 0.003
        and elapsed < 10.0
    )
    _report(
        capsys,
        1,
        "competitive equilibrium",
        ok,
        f"y={threshold:.4f} (5.13+-0.05), value={value:.4f} (0.243+-0.003), "
        f"unique={unique}, {elapsed:.2f}s < 10s",
    )
    assert unique
    assert threshold == pytest.approx(5.13, abs=0.05)
    assert value == pytest.approx(0.243, abs=0.003)
    assert elapsed < 10.0


def test_criterion_2_planner_reproduction(capsys, model, rate_payoff):
    start = time.monotonic()
    planner = mfc_optimum(model, rate_payoff)
    elapsed = time.monotonic() - start
    equilibrium = mfg_equilibrium(model, rate_payoff).equilibria[0]
    ordered = planner.threshold >= equilibrium.threshold - 1e-9
    ok = (
        abs(planner.threshold - 5.9) <= 0.1
        and abs(planner.value - 0.254) <= 0.003
        and ordered
        and elapsed < 10.0
    )
    _report(
        capsys,
        2,
        "planner optimum",
        ok,
        f"y={planner.threshold:.4f} (5.9+-0.1), value={planner.value:.4f} (0.254+-0.003), "
        f"planner>=equilibrium={ordered}, {elapsed:.2f}s < 10s",
    )
    assert planner.threshold == pytest.approx(5.9, abs=0.1)
    assert planner.value == pytest.approx(0.254, abs=0.003)
    assert ordered
    assert elapsed < 10.0


def _stock_equilibria_oracle(model, phi, cost):
    """Expected-stock equilibria and sup Phi from the first-order-condition oracle."""
    _, z2 = stock_bounds(model)
    return equilibria_oracle(model, phi, cost, lambda y: expected_stock(model, y), z2)


def test_criterion_3_multiple_equilibria(capsys, model, stock_payoff):
    # (a) The stated sigmoid has one equilibrium. The pinned triple
    # {4.55, 6.8, 55.5} is the Phi orbit from 55.5, not three fixed points:
    # Phi never exceeds sup Phi = 6.8475 because c(y) < z2 = 2. At 55.5, c
    # lies within rounding of z2, so the first step prices at the top of the domain.
    # (b) A flatter, floored sigmoid on the same model and K has three.
    triple_payoff = PayoffSpec(
        cost=stock_payoff.cost,
        phi=lambda z: 0.1 + 0.9 / (1.0 + np.exp(40.0 * (z - 1.7))),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source="0.1+0.9/(1+exp(40*(z-1.7)))",
    )
    start = time.monotonic()
    eq = mfg_equilibrium(model, stock_payoff)
    eq3 = mfg_equilibrium(model, triple_payoff)
    elapsed = time.monotonic() - start
    roots, sup_phi = _stock_equilibria_oracle(model, stock_payoff.phi, stock_payoff.cost)
    roots3, _ = _stock_equilibria_oracle(model, triple_payoff.phi, triple_payoff.cost)

    orbit_steps = [phi_map(model, stock_payoff, 55.5)]
    orbit_steps.append(phi_map(model, stock_payoff, orbit_steps[0].threshold))
    orbit = [55.5] + [s.threshold for s in orbit_steps]
    c_top, z2 = expected_stock(model, 55.5), stock_bounds(model)[1]
    at_top = abs(c_top - z2) <= 1e-14 * z2

    def matches(found, expected):
        return len(found) == len(expected) and all(
            abs(f - r) <= 1e-6 * r for f, r in zip(found, expected)
        )

    one_ok = (
        len(roots) == 1
        and matches(eq.thresholds, roots)
        and [p.stability for p in eq.equilibria] == ["stable"]
        and abs(eq.equilibria[0].map_slope) < 1.0
    )
    orbit_ok = (
        at_top
        and abs(orbit[1] - 6.8) <= 0.02 * 6.8
        and abs(orbit[2] - 4.55) <= 0.02 * 4.55
        and sup_phi < 55.5
    )
    labels3 = ["stable", "unstable", "stable"]
    three_ok = (
        len(roots3) == 3
        and matches(eq3.thresholds, roots3)
        and [p.stability for p in eq3.equilibria] == labels3
    )
    ok = one_ok and orbit_ok and three_ok and elapsed < 60.0
    detail = (
        f"stated curve: {len(eq)} at {[round(t, 6) for t in eq.thresholds]} "
        f"{[p.stability for p in eq.equilibria]}, oracle {[round(r, 6) for r in roots]}; "
        f"orbit from 55.5 {[round(y, 4) for y in orbit]} (c(55.5) = {c_top!r}, z2 = {z2!r}), "
        f"sup Phi {sup_phi:.4f} < 55.5; three-root curve: "
        f"{len(eq3)} at {[round(t, 6) for t in eq3.thresholds]} "
        f"{[p.stability for p in eq3.equilibria]}, oracle {[round(r, 6) for r in roots3]}; "
        f"{elapsed:.2f}s < 60s"
    )
    _report(capsys, 3, "multiple equilibria", ok, detail)
    assert elapsed < 60.0
    assert len(roots) == 1, detail
    assert len(eq) == 1, detail
    assert eq.equilibria[0].threshold == pytest.approx(roots[0], rel=1e-6), detail
    assert eq.equilibria[0].stability == "stable", detail
    assert abs(eq.equilibria[0].map_slope) < 1.0, detail
    assert at_top, detail
    assert orbit[1] == pytest.approx(6.8, rel=0.02), detail
    assert orbit[2] == pytest.approx(4.55, rel=0.02), detail
    assert orbit[1] == pytest.approx(sup_phi, rel=1e-6), detail
    assert sup_phi < 55.5, detail
    assert len(roots3) == 3, detail
    assert len(eq3) == 3, detail
    for found, root in zip(eq3.thresholds, roots3):
        assert found == pytest.approx(root, rel=1e-6), detail
    assert [p.stability for p in eq3.equilibria] == labels3, detail


def test_criterion_4_ordering_sweeps(capsys):
    start = time.monotonic()
    rate_rows = ordering_sweep(Interaction.HARVEST_RATE, 100, seed=2024)
    stock_rows = ordering_sweep(Interaction.EXPECTED_STOCK, 100, seed=2025)
    elapsed = time.monotonic() - start
    rate_ok = sum(r.ok and r.margin >= -1e-6 for r in rate_rows)
    stock_ok = sum(r.ok and r.margin >= -1e-6 for r in stock_rows)
    ok = rate_ok == 100 and stock_ok == 100
    _report(
        capsys,
        4,
        "threshold ordering sweeps",
        ok,
        f"harvest-rate {rate_ok}/100, expected-stock {stock_ok}/100, "
        f"worst margins {min(r.margin for r in rate_rows):.2e} / "
        f"{min(r.margin for r in stock_rows):.2e}, {elapsed:.1f}s",
    )
    assert rate_ok == 100
    assert stock_ok == 100


def test_criterion_5_series_vs_quadrature(capsys, model):
    oracle = LogisticOracle(model)
    worst = 0.0
    for y in (1.5, 2.0, 5.0, 10.0, 55.5):
        series = oracle.xi(y)
        quad = oracle.xi_by_quadrature(y)
        worst = max(worst, abs(series - quad) / series)
    ok = worst < 1e-6
    _report(
capsys,
5, "hitting-time series vs quadrature", ok, f"worst relative gap {worst:.2e} < 1e-6")
    assert worst < 1e-6


def test_criterion_6_monte_carlo_cross_validation(capsys, model, rate_payoff):
    start = time.monotonic()
    tau = estimate_hitting_time(model, 2.0, SimConfig(dt=1e-3, seed=101), n_paths=100_000)
    stock = estimate_stationary_mean(model, 4.0, SimConfig(dt=1e-3, horizon=1e5, seed=103))
    payoff = resolve_payoff(model, rate_payoff)
    ev = _calculus(model)
    z_eq = (5.13 - 1.0) / ev.xi(5.13)
    analytic_value = (payoff.phi(z_eq) * (5.13 - 1.0) - 1.0) / ev.xi(5.13)
    value = estimate_value(model, payoff, 5.13, SimConfig(dt=1e-3, horizon=1e5, seed=107))
    elapsed = time.monotonic() - start
    z_tau = (tau.value - XI_2) / tau.std_error
    z_stock = (stock.value - ESTOCK_4) / stock.std_error
    z_value = (value.value - analytic_value) / value.std_error
    ok = all(abs(z) <= 3.0 for z in (z_tau, z_stock, z_value))
    _report(
        capsys,
        6,
        "Monte-Carlo cross-validation",
        ok,
        f"hitting z={z_tau:+.2f}, stock z={z_stock:+.2f}, value z={z_value:+.2f} "
        f"(all within 3 SE), {elapsed:.0f}s",
    )
    assert abs(z_tau) <= 3.0
    assert abs(z_stock) <= 3.0
    assert abs(z_value) <= 3.0


def test_criterion_7_identity_suite(capsys, model, evaluator):
    grid = np.linspace(1.0, 10.0, 50)
    drift_identity = max(
        abs(
            _calculus(model).s(float(x))
            * integrate_to_zero(lambda u: model.drift(u) * _calculus(model).m(u), float(x))
            - 1.0
        )
        for x in grid
    )
    density_identity = max(
        abs(_calculus(model).m(float(x)) * _calculus(model).s(float(x)) * float(x) ** 2 - 2.0)
        for x in grid
    )
    ys = np.geomspace(1.0, 100.0, 400)
    signs = np.sign(evaluator.xi_second(ys))
    sign_changes = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
    norm = integrate_to_zero(lambda x: controlled_density(model, 5.0, x), 1.0) + integrate(
        lambda x: controlled_density(model, 5.0, x), 1.0, 5.0
    )
    cdf_ok = True
    for y_low, y_high in ((3.0, 6.0), (5.0, 20.0)):
        xs = np.geomspace(1e-3, y_high, 2000)
        cdf_ok &= bool(
            np.all(controlled_cdf(model, y_low, xs) >= controlled_cdf(model, y_high, xs) - 1e-8)
        )
    ok = (
        drift_identity < 1e-6
        and density_identity < 1e-8
        and sign_changes <= 1
        and abs(norm - 1.0) < 1e-8
        and cdf_ok
    )
    _report(
        capsys,
        7,
        "identity suite",
        ok,
        f"|s*int(mu m)-1|={drift_identity:.1e}<1e-6, |m s sigma^2-2|={density_identity:.1e}<1e-8, "
        f"sign changes={sign_changes}<=1, |norm-1|={abs(norm - 1.0):.1e}<1e-8, cdf ordering={cdf_ok}",
    )
    assert drift_identity < 1e-6
    assert density_identity < 1e-8
    assert sign_changes <= 1
    assert abs(norm - 1.0) < 1e-8
    assert cdf_ok


def test_criterion_8_stopping_verification(capsys, model, evaluator, rate_payoff):
    payoff = resolve_payoff(model, rate_payoff)
    equilibrium = mfg_equilibrium(model, payoff).equilibria[0]
    z = equilibrium.interaction_level
    price = float(payoff.phi(z))
    solution = best_response(model, payoff, z)
    good = verify_solution(model, solution, price, 0.0, 1.0)

    def perturbed(shift):
        y_fed = solution.threshold + shift
        fed = ThresholdSolution(
            threshold=y_fed,
            value=(price * (y_fed - 1.0) - 1.0) / evaluator.xi(y_fed),
            residual=0.0,
            bracket=(0.0, 0.0),
            iterations=0,
        )
        return verify_solution(model, fed, price, 0.0, 1.0)

    bad_up = perturbed(+0.5)
    bad_down = perturbed(-0.5)
    detected = (not bad_up.passed) and (not bad_down.passed)
    ok = (
        good.passed
        and abs(good.g_at_restart) < 1e-6
        and good.u_max_on_grid <= 1e-6
        and abs(good.u_at_threshold) < 1e-6
        and detected
    )
    _report(
        capsys,
        8,
        "stopping-problem verification",
        ok,
        f"g(y0)={good.g_at_restart:.1e}<1e-6, u_max={good.u_max_on_grid:.1e}<=1e-6, "
        f"u(y*)={good.u_at_threshold:.1e}<1e-6; perturbed +-0.5 rejected={detected}",
    )
    assert good.passed
    assert abs(good.g_at_restart) < 1e-6
    assert good.u_max_on_grid <= 1e-6
    assert abs(good.u_at_threshold) < 1e-6
    # a lifted threshold leaves positive slack at the restart level; a lowered
    # one additionally lands strictly inside the continuation region
    assert not bad_up.passed and bad_up.g_at_restart > 1e-6
    assert not bad_down.passed and bad_down.u_at_threshold < -1e-6
