import numpy as np
import pytest
from helpers import central_diff, equilibria_oracle, phi_route_equilibria

from harvestfield.diffusion import logistic_model
from harvestfield.errors import DomainError, SolverError
from harvestfield.hitting import XiEvaluator
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
    point = eq.points[0]
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
    ev = XiEvaluator(model)

    def rate(y):
        return (y - 1.0) / ev.xi(y)

    # the largest harvest rate, from a dense grid; the oracle only needs it
    # to bound its scan, and scans to twice the bound it implies
    c_max = max(rate(y) for y in np.geomspace(1.001, 50.0, 4000))
    roots, _ = equilibria_oracle(model, payoff.phi, cost, rate, c_max)
    eq = mfg_equilibrium(model, payoff)
    assert len(roots) == 1
    assert len(eq) == 1
    assert eq.points[0].threshold == pytest.approx(roots[0], rel=1e-6)


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
    import harvestfield.meanfield as mf

    def exhausted(*args, **kwargs):
        raise RuntimeError("Failed to converge after 200 iterations")

    monkeypatch.setattr(mf, "zeroin", exhausted)
    with pytest.raises(SolverError, match="fixed-point refinement"):
        mfg_equilibrium(benchmark_model, rate_payoff)


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
    for point, (y, slope, label) in zip(eq.points, expected):
        assert point.stability == label
        assert point.threshold == pytest.approx(y, abs=2.0 * _FIXED_POINT_TOL)
        assert point.map_slope == pytest.approx(slope, abs=1e-5)


def _record_priced_grids(monkeypatch):
    import harvestfield.meanfield as mf

    real = mf._interaction
    priced: list[float] = []

    def recording(model, payoff, y, xi):
        if np.ndim(y) > 0:
            priced.extend(np.asarray(y, dtype=float))
        return real(model, payoff, y, xi)

    monkeypatch.setattr(mf, "_interaction", recording)
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
    assert eq.points[0].threshold == pytest.approx(single.threshold, rel=1e-7)
    assert eq.points[0].value == pytest.approx(0.7 * single.value, rel=1e-6)


def test_stock_channel_equilibria_are_fixed_points(benchmark_model, stock_payoff):
    eq = mfg_equilibrium(benchmark_model, stock_payoff)
    payoff = resolve_payoff(benchmark_model, stock_payoff)
    assert len(eq) >= 1
    for point in eq.points:
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
    assert eq.points[0].residual < 1e-7 * eq.points[0].threshold


def test_classify_stability_constant_price(benchmark_model):
    payoff = resolve_payoff(benchmark_model, flat_payoff())
    eq = mfg_equilibrium(benchmark_model, payoff)
    label, slope = classify_stability(benchmark_model, payoff, eq.points[0].threshold)
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


def test_classify_stability_rate_equilibrium(benchmark_model, rate_payoff):
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    eq = mfg_equilibrium(benchmark_model, payoff)
    label, slope = classify_stability(benchmark_model, payoff, eq.points[0].threshold)
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
    assert sol.value >= eq.points[0].value - 1e-12


def test_planner_first_order_condition(benchmark_model, benchmark_evaluator, rate_payoff):
    # d/dy H(y) = 0 at the planner optimum (total-derivative route)
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    sol = mfc_optimum(benchmark_model, payoff)

    def H(y):
        z = interaction_level(benchmark_model, payoff, y)
        return (payoff.phi(z) * (y - 1.0) - 1.0) / benchmark_evaluator.xi(y)

    slope = central_diff(H, sol.threshold, 1e-5 * sol.threshold)
    curvature_scale = abs(H(sol.threshold)) / sol.threshold
    assert abs(slope) < 1e-4 * max(curvature_scale, 1e-3)


def test_equilibrium_partial_condition(benchmark_model, benchmark_evaluator, rate_payoff):
    # the equilibrium solves the partial-derivative condition of the
    # two-variable reward surface (fixed-point route equivalence)
    payoff = resolve_payoff(benchmark_model, rate_payoff)
    eq = mfg_equilibrium(benchmark_model, payoff).points[0]
    z = eq.interaction

    def section(x1):
        return (payoff.phi(z) * (x1 - 1.0) - 1.0) / benchmark_evaluator.xi(x1)

    slope = central_diff(section, eq.threshold, 1e-5 * eq.threshold)
    assert abs(slope) < 1e-6


def test_compare_rate_channel(benchmark_model, rate_payoff):
    report = compare(benchmark_model, rate_payoff)
    assert report.ok
    assert all(m >= -1e-6 for m in report.margins)
    assert report.planner.threshold >= report.equilibria.points[0].threshold


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
    for point in report.equilibria.points:
        assert report.planner.threshold <= point.threshold + 1e-6


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
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_concurrent_evaluation_matches_serial(benchmark_model, rate_payoff):
    # solves are pure and caches are copy-on-write: hammering the same model
    # from several threads must reproduce the serial answers exactly
    from concurrent.futures import ThreadPoolExecutor

    from harvestfield.hitting import XiEvaluator
    from harvestfield.stationary import expected_stock

    fresh = logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)
    ev = XiEvaluator(fresh)
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
    for a, b in zip(twin.points, exact.points):
        assert a.threshold == pytest.approx(b.threshold, rel=1e-6)
        assert a.value == pytest.approx(b.value, rel=1e-6)
        assert a.interaction == pytest.approx(b.interaction, rel=1e-6)
        assert a.stability == b.stability
    planner = mfc_optimum(benchmark_model, payoff)
    planner_twin = mfc_optimum(quadrature_twin, payoff)
    assert planner_twin.threshold == pytest.approx(planner.threshold, rel=1e-6)
    assert planner_twin.value == pytest.approx(planner.value, rel=1e-6)


def test_rate_compare_solves_zero_cost_threshold_once(rate_payoff, monkeypatch):
    import harvestfield.impulse as impulse

    real = impulse.optimal_threshold_basic
    zero_cost = []

    def counting(model_or_ev, k_tilde, **kwargs):
        if k_tilde == 0.0:
            zero_cost.append(k_tilde)
        return real(model_or_ev, k_tilde, **kwargs)

    monkeypatch.setattr(impulse, "optimal_threshold_basic", counting)
    compare(logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0), rate_payoff)
    assert len(zero_cost) == 1


@pytest.mark.parametrize("payoff_fixture", ["rate_payoff", "stock_payoff"])
def test_compare_computes_xi_once_per_grid_point(payoff_fixture, request, monkeypatch):
    real = XiEvaluator.xi
    points: list[float] = []

    def recording(self, y):
        points.extend(np.atleast_1d(np.asarray(y, dtype=float)))
        return real(self, y)

    monkeypatch.setattr(XiEvaluator, "xi", recording)
    report = compare(logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0),
                     request.getfixturevalue(payoff_fixture))
    scan = report.equilibria.diagnostics["scan"]
    grid = np.geomspace(1.0 + 1e-3, scan["cap"], scan["points"])
    seen = np.array(points)
    per_point = [int(np.count_nonzero(seen == y)) for y in grid]
    assert max(per_point) == 1
    assert sum(per_point) == len(grid)


def test_logistic_stock_compare_makes_no_quadpack_call(monkeypatch):
    # xi and the cycle stock come from the table, and the speed integrals below y0 from
    # closed forms: a logistic compare needs no quadrature
    from importlib import resources

    import harvestfield.hitting as hitting
    import harvestfield.quadrature as quadrature
    from harvestfield.scenario import load_scenario

    real = quadrature.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    for module in (quadrature, hitting):
        monkeypatch.setattr(module, "integrate", counting)
    scenario = load_scenario(
        str(resources.files("harvestfield") / "scenarios" / "logistic-expected-stock.json")
    )
    report = compare(scenario.model, scenario.require_payoff(), numerics=scenario.numerics)
    assert report.ok
    assert calls == []
