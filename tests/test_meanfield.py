import math
from importlib import resources

import numpy as np
import pytest
from helpers import central_diff, equilibria_oracle, full_scan_planner, phi_route_equilibria
from oracle import LogisticOracle
from scipy.optimize import brentq

from harvestfield import meanfield
from harvestfield.diffusion import _calculus, _Calculus, custom_model, logistic_model
from harvestfield.errors import DomainError, SolverError
from harvestfield.expressions import parse_expression
from harvestfield.impulse import max_harvest_rate, optimal_threshold_basic
from harvestfield.meanfield import (
    _FIXED_POINT_TOL,
    classify_stability,
    compare,
    interaction_level,
    mfc_optimum,
    mfg_equilibrium,
    ordering_sweep,
    phi_map,
    resolve_payoff,
)
from harvestfield.payoff import Interaction, PayoffSpec
from harvestfield.scenario import load_scenario


def flat_payoff(kind=Interaction.HARVEST_RATE, price=0.7, cost=1.0):
    return PayoffSpec(cost=cost, phi=lambda z: price, interaction=kind, phi_source=str(price))


# ---------------------------------------------------------------------------
# payoff resolution and the interaction channel
# ---------------------------------------------------------------------------

def test_resolve_rate_domain(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    lo, hi = payoff.domain
    assert lo == 0.0
    assert hi == pytest.approx(max_harvest_rate(benchmark_model), rel=1e-12)


def test_resolve_stock_domain(benchmark_model, stock_payoff):
    payoff = resolve_payoff(benchmark_model, stock_payoff)
    lo, hi = payoff.domain
    assert lo == pytest.approx(0.6077888088226672, rel=1e-9)
    assert hi == pytest.approx(2.0, rel=1e-12)


def test_resolve_rejects_increasing_price(benchmark_model):
    bad = PayoffSpec(cost=1.0, phi=lambda z: 1.0 + z, interaction=Interaction.HARVEST_RATE)
    with pytest.raises(DomainError):
        resolve_payoff(benchmark_model, bad)


def test_resolve_rejects_nonpositive_price(benchmark_model):
    bad = PayoffSpec(cost=1.0, phi=lambda z: z - 10.0, interaction=Interaction.HARVEST_RATE)
    with pytest.raises(DomainError):
        resolve_payoff(benchmark_model, bad)


def test_rate_interaction_decreasing_past_single_agent_threshold(benchmark_model, rate_payoff):
    y_hat0 = optimal_threshold_basic(benchmark_model, 0.0).threshold
    ys = np.linspace(y_hat0, 5.0 * y_hat0, 50)
    rates = interaction_level(benchmark_model, rate_payoff, ys)
    assert np.all(np.diff(rates) < 0.0)
    assert rates[0] == pytest.approx(max_harvest_rate(benchmark_model), rel=1e-6)


def test_stock_interaction_increasing(benchmark_model, stock_payoff):
    ys = np.geomspace(1.1, 20.0, 40)
    stocks = interaction_level(benchmark_model, stock_payoff, ys)
    assert np.all(np.diff(stocks) > 0.0)


@pytest.mark.parametrize(
    "y", [1.0 + 1e-7, 1.0 + 1e-6, np.array([1.5, 1.0 + 1e-7])], ids=["inside", "edge", "array"]
)
def test_stock_channel_refuses_thresholds_next_to_y0(benchmark_model, stock_payoff, y):
    # the controlled law degenerates within a relative 1e-6 of y0 = 1, on the interaction
    # level's scalar and array reads as in expected_stock
    from harvestfield.stationary import expected_stock

    for read in (lambda v: interaction_level(benchmark_model, stock_payoff, v),
                 lambda v: expected_stock(benchmark_model, v)):
        with pytest.raises(DomainError, match="controlled-law threshold must exceed"):
            read(y)


# ---------------------------------------------------------------------------
# the best-response composition Phi
# ---------------------------------------------------------------------------

def test_phi_map_constant_price_is_constant(benchmark_model):
    payoff = resolve_payoff(benchmark_model, flat_payoff())
    values = [phi_map(benchmark_model, payoff, y).threshold for y in (4.6, 5.5, 7.0)]
    assert max(values) - min(values) < 1e-10
    single = optimal_threshold_basic(benchmark_model, 1.0 / 0.7).threshold
    assert values[0] == pytest.approx(single, rel=1e-9)


def test_phi_map_decreasing_for_rate_channel(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    lo, hi = 4.6, 5.2
    ys = np.linspace(lo, hi, 7)
    phis = [phi_map(benchmark_model, payoff, float(y)).threshold for y in ys]
    assert all(a > b for a, b in zip(phis, phis[1:]))


def test_phi_map_nondecreasing_for_stock_channel(benchmark_model, stock_payoff):
    payoff = resolve_payoff(benchmark_model, stock_payoff)
    ys = np.geomspace(1.5, 20.0, 8)
    phis = [phi_map(benchmark_model, payoff, float(y)).threshold for y in ys]
    assert all(b >= a - 1e-9 for a, b in zip(phis, phis[1:]))


def test_phi_map_fixed_point_at_equilibrium(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    assert phi_map(benchmark_model, payoff, 5.1308431).threshold == pytest.approx(
        5.1308431, abs=1e-4
    )


def test_phi_map_flags_clamped_interaction(benchmark_model, rate_payoff):
    # artificially narrow domain forces the clamp diagnostic
    payoff = resolve_payoff(benchmark_model, rate_payoff).with_domain(0.0, 0.2)
    sol = phi_map(benchmark_model, payoff, 5.0)  # c(5.0) ~ 0.72 > 0.2
    assert "interaction level clamped to domain" in sol.flags


def test_clamp_flags_interaction_on_either_edge():
    from harvestfield.meanfield import _clamp_to_domain

    domain = (0.5, 2.0)
    assert _clamp_to_domain(0.5, domain) == (0.5, True)
    assert _clamp_to_domain(2.0, domain) == (2.0, True)
    assert _clamp_to_domain(0.4, domain) == (0.5, True)
    assert _clamp_to_domain(2.1, domain) == (2.0, True)
    assert _clamp_to_domain(1.0, domain) == (1.0, False)
    assert _clamp_to_domain(np.nextafter(2.0, 0.0), domain) == (np.nextafter(2.0, 0.0), False)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_unique_equilibrium_rate_channel(benchmark_model, rate_payoff):
    eq = mfg_equilibrium(benchmark_model, rate_payoff)
    assert len(eq) == 1
    point = eq.equilibria[0]
    assert point.threshold == pytest.approx(5.13, abs=0.05)
    assert point.value == pytest.approx(0.243, abs=0.003)
    assert point.residual < 1e-7 * point.threshold
    y_lo, y_hi = eq.bounds
    assert y_lo <= point.threshold <= y_hi
    assert point.stability == "stable"
    assert point.map_slope < 0.0  # Phi is decreasing under this channel


def _sweep_draws(n, seed=11):
    rng = np.random.default_rng(seed)
    return [
        (rng.uniform(-2.0, -0.2), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)) for _ in range(n)
    ]


@pytest.mark.parametrize("q, b, cost", [(-1.0, 0.5, 1.0)] + _sweep_draws(5))
def test_rate_equilibrium_matches_first_order_oracle(q, b, cost):
    model = logistic_model(q=q, b=b, beta=1.0, y0=1.0)
    payoff = PayoffSpec(
        cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
    )
    ev = _calculus(model)

    def rate(y):
        return (y - 1.0) / ev.xi(y)

    # the largest harvest rate, from a dense grid; the oracle only needs it
    # to bound its scan, and scans to twice the bound it implies
    c_max = max(rate(y) for y in np.geomspace(1.001, 50.0, 4000))
    roots, _ = equilibria_oracle(model, payoff.phi, cost, rate, c_max)
    eq = mfg_equilibrium(model, payoff)
    assert len(roots) == 1
    assert len(eq) == 1
    assert eq.equilibria[0].threshold == pytest.approx(roots[0], rel=1e-6)


def test_rate_channel_rejects_two_fixed_points(benchmark_model, rate_payoff, monkeypatch):
    # a synthetic scan whose first-order gap G turns negative again at its last point
    import harvestfield.meanfield as mf

    real = mf._Scan.prices

    def low_last_price(self, lo=0, hi=None):
        prices = real(self, lo, hi)
        prices[-1] = 1e-12
        return prices

    monkeypatch.setattr(mf._Scan, "prices", low_last_price)
    with pytest.raises(SolverError, match="found 2"):
        mfg_equilibrium(benchmark_model, rate_payoff)


def test_fixed_point_refinement_failure_is_solver_error(benchmark_model, rate_payoff, monkeypatch):
    import harvestfield.impulse as impulse

    def exhausted(*args, **kwargs):
        raise RuntimeError("Failed to converge after 200 iterations")

    monkeypatch.setattr(impulse, "zeroin", exhausted)
    with pytest.raises(SolverError, match="fixed-point refinement"):
        mfg_equilibrium(benchmark_model, rate_payoff)
    with pytest.raises(SolverError, match="planner refinement"):
        mfc_optimum(benchmark_model, rate_payoff)


def _phi_route_cases():
    sigmoid = PayoffSpec(
        cost=1.0, phi=lambda z: 1.0 / (1.0 + np.exp(10.0 * (z - 1.9))),
        interaction=Interaction.EXPECTED_STOCK,
    )
    three_roots = PayoffSpec(
        cost=1.0, phi=lambda z: 0.1 + 0.9 / (1.0 + np.exp(40.0 * (z - 1.7))),
        interaction=Interaction.EXPECTED_STOCK,
    )
    bundled = logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)
    cases = [
        pytest.param(bundled, PayoffSpec(
            cost=1.0, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
        ), id="bundled-rate"),
        pytest.param(bundled, sigmoid, id="stated-stock"),
        pytest.param(bundled, three_roots, id="three-roots"),
    ]
    for kind in Interaction:
        for i, (q, b, cost) in enumerate(_sweep_draws(10, seed=23)):
            payoff = PayoffSpec(cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=kind)
            cases.append(pytest.param(
                logistic_model(q=q, b=b, beta=1.0, y0=1.0), payoff, id=f"{kind.value}-{i}"
            ))
    return cases


@pytest.mark.parametrize("model, payoff", _phi_route_cases())
def test_equilibria_match_phi_route_oracle(model, payoff):
    # roots of the first-order gap G against sign changes of Phi(y) - y
    expected = phi_route_equilibria(model, payoff)
    eq = mfg_equilibrium(model, payoff)
    assert len(eq) == len(expected) >= 1
    for point, (y, slope, label) in zip(eq.equilibria, expected):
        assert point.stability == label
        assert point.threshold == pytest.approx(y, abs=2.0 * _FIXED_POINT_TOL)
        assert point.map_slope == pytest.approx(slope, abs=1e-5)


def _rescaled(kind: str, channel: Interaction, scale: float):
    """Drift ``x (1 - x/scale)``, noise ``0.5 x``, ``y0 = 0.1 scale``, ``K = 0.05 scale`` and the
    price ``1/(1 + z/scale)``: the model at scale 1 with the state measured in units of 1/scale."""
    if kind == "logistic":
        model = logistic_model(growth=1.0, b=1.0 / scale, beta=0.5, y0=0.1 * scale)
    else:
        model = custom_model(lambda x: x * (1.0 - x / scale), lambda x: 0.5 * x, y0=0.1 * scale)
    payoff = PayoffSpec(cost=0.05 * scale, phi=lambda z: 1.0 / (1.0 + z / scale), interaction=channel)
    return model, payoff


@pytest.mark.parametrize("kind", ["logistic", "custom"])
@pytest.mark.parametrize("channel", list(Interaction), ids=lambda kind: kind.value)
def test_thresholds_scale_with_the_model(kind, channel):
    # the fixed-point tolerances are relative to y0, so a model rescaled by a factor has its
    # equilibria and planner optimum scaled by it; with absolute tolerances the equilibria at
    # a scale of 1e-6 were off by 4e-3 (rate) and 1e-3 (stock) relative
    def thresholds(scale):
        report = compare(*_rescaled(kind, channel, scale))
        return [p.threshold / scale for p in report.equilibria.equilibria], report.planner.threshold / scale

    equilibria, planner = thresholds(1.0)
    for scale in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6):
        scaled, scaled_planner = thresholds(scale)
        assert scaled == pytest.approx(equilibria, rel=1e-13), scale
        assert scaled_planner == pytest.approx(planner, rel=1e-10), scale


@pytest.mark.parametrize("kind", list(Interaction), ids=lambda kind: kind.value)
def test_map_slope_matches_phi_route_where_scale_is_finite_at_0(kind):
    # 1/s(0+) > 0 here, so xi'' must come from xi' itself, not from int_0^y mu m = 1/s
    model = custom_model(lambda x: 1.0 - 0.5 * x, lambda x: 1.0, y0=1.0)
    payoff = PayoffSpec(cost=0.5, phi=lambda z: 1.0 / (1.0 + z), interaction=kind)
    expected = phi_route_equilibria(model, payoff)
    eq = mfg_equilibrium(model, payoff)
    assert len(eq) == len(expected) >= 1
    for point, (y, slope, label) in zip(eq.equilibria, expected):
        assert point.map_slope == pytest.approx(slope, rel=1e-6)
        assert point.stability == label


def _record_priced_grids(monkeypatch):
    # the scan prices its grid points through one array read per batch
    real = _Calculus.xi_derivatives
    priced: list[float] = []

    def recording(self, y, order=2, stock=False):
        if not isinstance(y, float):
            priced.extend(np.asarray(y, dtype=float))
        return real(self, y, order, stock)

    monkeypatch.setattr(_Calculus, "xi_derivatives", recording)
    return priced


@pytest.mark.parametrize("payoff_fixture", ["rate_payoff", "stock_payoff"])
def test_equilibrium_search_prices_only_cells_meeting_the_bounds(
    benchmark_model, payoff_fixture, request, monkeypatch
):
    priced = _record_priced_grids(monkeypatch)
    eq = mfg_equilibrium(benchmark_model, request.getfixturevalue(payoff_fixture))
    y_lo, y_hi = eq.bounds
    lo, hi = eq.diagnostics["scan"]["searched"]
    assert len(priced) == hi - lo < eq.diagnostics["scan"]["points"]
    assert priced[0] < y_lo <= priced[1]
    assert priced[-2] <= y_hi < priced[-1]


def test_constant_price_equilibrium_prices_no_grid(benchmark_model, monkeypatch):
    priced = _record_priced_grids(monkeypatch)
    assert len(mfg_equilibrium(benchmark_model, flat_payoff())) == 1
    assert priced == []


def test_constant_price_equilibrium_is_single_agent(benchmark_model):
    eq = mfg_equilibrium(benchmark_model, flat_payoff())
    single = optimal_threshold_basic(benchmark_model, 1.0 / 0.7)
    assert len(eq) == 1
    assert eq.equilibria[0].threshold == pytest.approx(single.threshold, rel=1e-7)
    assert eq.equilibria[0].value == pytest.approx(0.7 * single.value, rel=1e-6)


def test_stock_channel_equilibria_are_fixed_points(benchmark_model, stock_payoff):
    eq = mfg_equilibrium(benchmark_model, stock_payoff)
    payoff = resolve_payoff(benchmark_model, stock_payoff)
    assert len(eq) >= 1
    for point in eq.equilibria:
        assert point.residual < 1e-7 * point.threshold
        assert eq.bounds[0] - 1e-6 <= point.threshold <= eq.bounds[1] + 1e-6
        again = phi_map(benchmark_model, payoff, point.threshold).threshold
        assert again == pytest.approx(point.threshold, abs=1e-5)
    assert list(eq.thresholds) == sorted(eq.thresholds)


def test_mild_stock_price_has_unique_equilibrium(benchmark_model):
    payoff = PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + z),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source="1/(1+z)",
    )
    eq = mfg_equilibrium(benchmark_model, payoff)
    assert len(eq) == 1
    assert eq.equilibria[0].residual < 1e-7 * eq.equilibria[0].threshold


def test_classify_stability_constant_price(benchmark_model):
    payoff = resolve_payoff(benchmark_model, flat_payoff())
    eq = mfg_equilibrium(benchmark_model, payoff)
    label, slope = classify_stability(benchmark_model, payoff, eq.equilibria[0].threshold)
    assert label == "stable"
    assert abs(slope) < 1e-6


@pytest.mark.parametrize(
    "slope, expected",
    [(0.5, "stable"), (-0.8, "stable"), (2.0, "unstable"), (-1.6, "unstable")],
)
def test_classify_stability_by_map_slope(benchmark_model, rate_payoff, monkeypatch, slope, expected):
    # the label rule on synthetic map slopes
    import harvestfield.meanfield as mf

    payoff = resolve_payoff(benchmark_model, rate_payoff)
    monkeypatch.setattr(mf, "_map_slope", lambda model, pay, y: slope)
    assert classify_stability(benchmark_model, payoff, 5.0) == (expected, slope)


def test_classify_stability_refuses_threshold_below_restart(benchmark_model, rate_payoff):
    # the threshold reads of xi, xi' and xi'' are its only domain check
    with pytest.raises(DomainError):
        classify_stability(benchmark_model, rate_payoff, 0.9)


def test_classify_stability_rate_equilibrium(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    eq = mfg_equilibrium(benchmark_model, payoff)
    label, slope = classify_stability(benchmark_model, payoff, eq.equilibria[0].threshold)
    assert slope < 0.0
    assert label == "stable"


# ---------------------------------------------------------------------------
# planner optimum and comparison
# ---------------------------------------------------------------------------

def test_planner_benchmark_values(benchmark_model, rate_payoff):
    sol = mfc_optimum(benchmark_model, rate_payoff)
    assert sol.threshold == pytest.approx(5.9, abs=0.1)
    assert sol.value == pytest.approx(0.254, abs=0.003)
    assert not sol.ties


def test_planner_constant_price_matches_single_agent(benchmark_model):
    sol = mfc_optimum(benchmark_model, flat_payoff())
    single = optimal_threshold_basic(benchmark_model, 1.0 / 0.7)
    assert sol.threshold == pytest.approx(single.threshold, rel=1e-6)
    assert sol.value == pytest.approx(0.7 * single.value, rel=1e-8)


def test_planner_value_dominates_equilibrium(benchmark_model, rate_payoff):
    eq = mfg_equilibrium(benchmark_model, rate_payoff)
    sol = mfc_optimum(benchmark_model, rate_payoff)
    assert sol.value >= eq.equilibria[0].value - 1e-12


def test_planner_first_order_condition(benchmark_model, quadrature_twin):
    # the planner threshold is the root of G_P = (p + p' (y - y0)) xi - (p (y - y0) - K) xi',
    # which has the sign of H', here by brentq on the closed forms with phi'(z) = -1/(1+z)^2
    exact = LogisticOracle(benchmark_model)

    def level(kind, y):
        """``(c, c')`` at y from the closed forms."""
        xi, xi_prime = exact.xi(y), exact.xi_prime(y)
        if kind is Interaction.HARVEST_RATE:
            return (y - 1.0) / xi, (xi - (y - 1.0) * xi_prime) / xi**2
        stock = exact.cycle_stock(y)
        return stock / xi, (exact.xm0(y) * exact.s(y) * xi - stock * xi_prime) / xi**2

    def condition(kind, y):
        c, dc = level(kind, y)
        price, dprice = 1.0 / (1.0 + c), -dc / (1.0 + c) ** 2
        return float(
            (price + dprice * (y - 1.0)) * exact.xi(y)
            - (price * (y - 1.0) - 1.0) * exact.xi_prime(y)
        )

    for kind in Interaction:
        payoff = resolve_payoff(
            benchmark_model, PayoffSpec(cost=1.0, phi=lambda z: 1.0 / (1.0 + z), interaction=kind)
        )
        planners = [mfc_optimum(model, payoff) for model in (benchmark_model, quadrature_twin)]
        y = planners[0].threshold
        root = brentq(lambda v: condition(kind, v), 0.99 * y, 1.01 * y, xtol=1e-14, rtol=1e-14)
        lo, hi = payoff.domain
        assert lo < level(kind, root)[0] < hi   # the price is not clamped there
        for planner in planners:
            assert planner.threshold == pytest.approx(root, rel=1e-10), kind

    # the bundled logistic scenario and its twin of expressions
    bundled = [
        load_scenario(str(resources.files("harvestfield") / "scenarios" / f"{name}.json"))
        for name in ("logistic-harvest-rate", "custom-logistic-harvest-rate")
    ]
    logistic, custom = (mfc_optimum(s.model, s.require_payoff()).threshold for s in bundled)
    assert custom == pytest.approx(logistic, rel=5e-11)


def test_equilibrium_partial_condition(benchmark_model, benchmark_evaluator, rate_payoff):
    # the equilibrium solves the partial-derivative condition of the
    # two-variable reward surface (fixed-point route equivalence)
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    eq = mfg_equilibrium(benchmark_model, payoff).equilibria[0]
    z = eq.interaction_level

    def section(x1):
        return (payoff.phi(z) * (x1 - 1.0) - 1.0) / benchmark_evaluator.xi(x1)

    slope = central_diff(section, eq.threshold, 1e-5 * eq.threshold)
    assert abs(slope) < 1e-6


def test_compare_rate_channel(benchmark_model, rate_payoff):
    report = compare(benchmark_model, rate_payoff)
    assert report.ok
    assert all(m >= -1e-6 for m in report.margins)
    assert report.planner.threshold >= report.equilibria.equilibria[0].threshold


def test_compare_constant_price_is_tight(benchmark_model):
    report = compare(benchmark_model, flat_payoff())
    assert report.ok
    assert report.margins[0] == pytest.approx(0.0, abs=1e-5)


def test_compare_stock_channel_reversed(benchmark_model):
    payoff = PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + z),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source="1/(1+z)",
    )
    report = compare(benchmark_model, payoff)
    assert report.ok
    for point in report.equilibria.equilibria:
        assert report.planner.threshold <= point.threshold + 1e-6


def _scaled_stock_compare(lam):
    """compare on drift x (1 - x/lam), noise 0.5 x, y0 = 0.1 lam, K = 0.05 lam, phi = 1/(1 + z/lam)."""
    model = custom_model(lambda x: x * (1.0 - x / lam), lambda x: 0.5 * x, y0=0.1 * lam)
    payoff = PayoffSpec(
        cost=0.05 * lam,
        phi=lambda z: 1.0 / (1.0 + z / lam),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source=f"1/(1+z/{lam})",
    )
    return compare(model, payoff)


@pytest.mark.parametrize("lam", [1e-2, 1e-3])
def test_stock_compare_scales_with_the_model(lam):
    # the controlled law's gap above y0 is relative to y0, so a model rescaled by lam
    # has its thresholds rescaled by lam
    unit, scaled = _scaled_stock_compare(1.0), _scaled_stock_compare(lam)
    assert scaled.ok
    assert len(scaled.equilibria) == len(unit.equilibria) == 1
    assert scaled.equilibria.equilibria[0].threshold / lam == pytest.approx(
        unit.equilibria.equilibria[0].threshold, rel=1e-8
    )
    assert scaled.planner.threshold / lam == pytest.approx(unit.planner.threshold, rel=1e-10)


@pytest.mark.parametrize("kind", [Interaction.HARVEST_RATE, Interaction.EXPECTED_STOCK])
def test_overflowing_planner_objective_names_the_threshold(benchmark_model, kind):
    # phi = 1e308: phi(c) (y - y0) overflows once y - y0 > 1.8
    payoff = flat_payoff(kind, price=1e308)
    message = r"H overflows: phi\(c\) \(y - y0\) is not finite at the threshold y = "
    with pytest.raises(SolverError, match=message) as info:
        mfc_optimum(benchmark_model, payoff)
    y = float(str(info.value).rsplit("= ", 1)[1])
    assert 1e308 * (y - 1.0) == math.inf


def test_ordering_sweep_smoke():
    rows = ordering_sweep(Interaction.HARVEST_RATE, 6, seed=7)
    assert len(rows) == 6
    assert all(row.ok for row in rows)
    assert all(row.margin >= -1e-6 for row in rows)
    rows_stock = ordering_sweep(Interaction.EXPECTED_STOCK, 3, seed=11)
    assert all(row.ok for row in rows_stock)


def test_sweep_is_deterministic():
    a = ordering_sweep(Interaction.HARVEST_RATE, 3, seed=5)
    b = ordering_sweep(Interaction.HARVEST_RATE, 3, seed=5)
    assert a == b


def test_concurrent_evaluation_matches_serial(benchmark_model, rate_payoff):
    # solves are pure and caches are copy-on-write: hammering the same model
    # from several threads must reproduce the serial answers exactly
    from concurrent.futures import ThreadPoolExecutor

    from harvestfield.stationary import expected_stock

    fresh = logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)
    ev = _calculus(fresh)
    ys = list(np.linspace(1.1, 9.0, 40)) * 4

    def work(y):
        return ev.xi(y), ev.xi_prime(y), expected_stock(fresh, y)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, ys))
    serial = [work(y) for y in ys]
    for got, want in zip(results, serial):
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the tabulated route and the shared scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("payoff_fixture", ["rate_payoff", "stock_payoff"])
def test_twin_routes_agree_on_market_solutions(
    benchmark_model, quadrature_twin, payoff_fixture, request
):
    payoff = request.getfixturevalue(payoff_fixture)
    exact, twin = mfg_equilibrium(benchmark_model, payoff), mfg_equilibrium(quadrature_twin, payoff)
    assert len(twin) == len(exact) >= 1
    for a, b in zip(twin.equilibria, exact.equilibria):
        assert a.threshold == pytest.approx(b.threshold, rel=1e-6)
        assert a.value == pytest.approx(b.value, rel=1e-6)
        assert a.interaction_level == pytest.approx(b.interaction_level, rel=1e-6)
        assert a.stability == b.stability
    planner = mfc_optimum(benchmark_model, payoff)
    planner_twin = mfc_optimum(quadrature_twin, payoff)
    assert planner_twin.threshold == pytest.approx(planner.threshold, rel=1e-6)
    assert planner_twin.value == pytest.approx(planner.value, rel=1e-6)


def test_rate_compare_solves_zero_cost_threshold_once(rate_payoff, monkeypatch):
    import harvestfield.impulse as impulse

    real = impulse.optimal_threshold_basic
    zero_cost = []

    def counting(model, k_tilde, **kwargs):
        if k_tilde == 0.0:
            zero_cost.append(k_tilde)
        return real(model, k_tilde, **kwargs)

    monkeypatch.setattr(impulse, "optimal_threshold_basic", counting)
    compare(logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0), rate_payoff)
    assert len(zero_cost) == 1


@pytest.mark.parametrize("payoff_fixture", ["rate_payoff", "stock_payoff"])
def test_compare_computes_xi_once_per_grid_point(payoff_fixture, request, monkeypatch):
    # each grid point is priced at most once; the planner stops pricing one point past the
    # first grid point beyond 2 y_hi (the check point and its bracket neighbour), so every
    # point up to there is priced exactly once and none past it
    real = _Calculus.xi_derivatives
    points: list[float] = []

    def recording(self, y, order=2, stock=False):
        if not isinstance(y, float):
            points.extend(np.asarray(y, dtype=float))
        return real(self, y, order, stock)

    monkeypatch.setattr(_Calculus, "xi_derivatives", recording)
    report = compare(logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0),
                     request.getfixturevalue(payoff_fixture))
    scan = report.equilibria.diagnostics["scan"]
    grid = np.geomspace(1.0 + 1e-3, scan["cap"], scan["points"])
    end = int(np.searchsorted(grid, 2.0 * report.equilibria.bounds[1], side="right")) + 2
    assert end < len(grid)
    seen = np.array(points)
    per_point = [int(np.count_nonzero(seen == y)) for y in grid]
    assert max(per_point) == 1
    assert per_point[:end] == [1] * end
    assert per_point[end:] == [0] * (len(grid) - end)


# ---------------------------------------------------------------------------
# the planner's cutoff against the full-grid scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(Interaction), ids=lambda kind: kind.value)
def test_planner_matches_full_scan_on_drawn_scenarios(kind, monkeypatch):
    priced = _record_priced_grids(monkeypatch)
    draws = _sweep_draws(40, seed=31)
    stopped = 0
    for q, b, cost in draws:
        payoff = PayoffSpec(cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=kind)
        del priced[:]
        solution = mfc_optimum(logistic_model(q=q, b=b, beta=1.0, y0=1.0), payoff)
        stopped += len(priced) < meanfield._SCAN_POINTS
        full = full_scan_planner(logistic_model(q=q, b=b, beta=1.0, y0=1.0), payoff)
        assert solution == full, (q, b, cost)
    assert stopped > len(draws) // 2


def _benchmark():
    return logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)


def _special_planner_cases():
    bundled = str(
        resources.files("harvestfield") / "scenarios" / "custom-logistic-harvest-rate.json"
    )
    cases = [pytest.param(lambda: load_scenario(bundled).model,
                          load_scenario(bundled).require_payoff(), False, id="bundled-custom")]
    for kind in Interaction:
        constant = PayoffSpec(cost=1.0, phi=parse_expression("2", "z"), interaction=kind)
        scalar_only = PayoffSpec(cost=1.0, phi=lambda z: math.exp(-z), interaction=kind)
        cases += [
            pytest.param(_benchmark, constant, False, id=f"constant-{kind.value}"),
            pytest.param(_benchmark, scalar_only, False, id=f"scalar-only-{kind.value}"),
        ]
    # the whole grid is priced where the zero-cost bound at the check point is above the best
    # priced maximum (a drawn scenario whose H peaks at y = 14 with 2 y_hi = 20.9), and where
    # a large K makes 2 y_hi the grid's cap
    def weak_crowding():
        return logistic_model(q=-1.9774901935255111, b=0.306515578754639, beta=1.0, y0=1.0)

    cases += [
        pytest.param(weak_crowding, PayoffSpec(
            cost=0.5209473390156748, phi=lambda z: 1.0 / (1.0 + z),
            interaction=Interaction.HARVEST_RATE,
        ), True, id="bound-above-best"),
        pytest.param(_benchmark, PayoffSpec(
            cost=20.0, phi=lambda z: 1.0 / (1.0 + z), interaction=Interaction.HARVEST_RATE
        ), True, id="cap-is-2-y_hi"),
    ]
    return cases


@pytest.mark.parametrize("make_model, payoff, whole_grid", _special_planner_cases())
def test_planner_matches_full_scan(make_model, payoff, whole_grid, monkeypatch):
    priced = _record_priced_grids(monkeypatch)
    solution = mfc_optimum(make_model(), payoff)
    assert (len(priced) == meanfield._SCAN_POINTS) == whole_grid
    assert solution == full_scan_planner(make_model(), payoff)


@pytest.mark.parametrize("text", ["1/(1+z)", "exp(-z)", "2/(1+z)^2"])
def test_array_pricing_matches_per_level_pricing(text):
    phi = parse_expression(text, "z")
    z = np.concatenate([np.linspace(0.0, 3.0, 1001), np.geomspace(1e-6, 50.0, 500)])
    per_level = np.array([float(phi(v)) for v in z])
    assert meanfield._phi_levels(phi, z).tobytes() == per_level.tobytes()


def test_rate_compare_keeps_the_table_below_the_scan_cap():
    # the planner stops pricing near 2 y_hi, so the table is not grown to the grid's cap
    for q, b, cost in _sweep_draws(5, seed=31):
        model = logistic_model(q=q, b=b, beta=1.0, y0=1.0)
        payoff = PayoffSpec(cost=cost, phi=lambda z: 1.0 / (1.0 + z),
                            interaction=Interaction.HARVEST_RATE)
        report = compare(model, payoff)
        right_edge = _calculus(model)._table._state[2][-1]   # in log x
        assert right_edge < math.log(report.equilibria.diagnostics["scan"]["cap"])


def test_logistic_stock_compare_makes_no_quadpack_call(monkeypatch):
    # xi, the cycle stock and the speed limits come from the table, and the speed integrals
    # below y0 from closed forms: a logistic compare needs no quadrature. scipy's quad
    # looks its QUADPACK routines up on each call, so this sees every caller of quad
    from scipy.integrate import _quadpack

    calls = []

    def refusing(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"QUADPACK routine {name} called")

        return refuse

    for name in [name for name in dir(_quadpack) if name.startswith("_qa")]:
        monkeypatch.setattr(_quadpack, name, refusing(name))
    scenario = load_scenario(
        str(resources.files("harvestfield") / "scenarios" / "logistic-expected-stock.json")
    )
    report = compare(scenario.model, scenario.require_payoff())
    assert report.ok
    assert calls == []
