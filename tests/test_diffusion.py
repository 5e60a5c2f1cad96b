import math

import numpy as np
import pytest
from helpers import simpson_refine
from oracle import LogisticOracle, integrate, integrate_to_zero

from harvestfield.diffusion import (
    _calculus,
    custom_model,
    logistic_model,
    model_from_dict,
    validate_assumptions,
)
from harvestfield.errors import DomainError

E = math.e


# ---------------------------------------------------------------------------
# scale density
# ---------------------------------------------------------------------------

def test_scale_density_at_reference_is_one(benchmark_model, quadrature_twin):
    # the calculus is normalized at y0 = 1 exactly, for floats and arrays, logistic and custom
    for model in (benchmark_model, quadrature_twin):
        assert _calculus(model).s(1.0) == 1.0
        assert _calculus(model).S(1.0) == 0.0
        assert _calculus(model).s(np.array([1.0, 2.0]))[0] == 1.0
        assert _calculus(model).S(np.array([1.0, 2.0]))[0] == 0.0


def test_scale_density_closed_form_at_two(benchmark_model):
    # closed form x^(-3) e^(x-1); the exponent oracle below recomputes it
    assert _calculus(benchmark_model).s(2.0) == pytest.approx(E / 8.0, rel=1e-12)
    exponent = simpson_refine(lambda y: 2.0 * y * (1.5 - 0.5 * y) / y**2, 1.0, 2.0, tol=1e-12)
    assert _calculus(benchmark_model).s(2.0) == pytest.approx(math.exp(-exponent), rel=1e-9)


def test_speed_density_values(benchmark_model):
    assert _calculus(benchmark_model).m(1.0) == pytest.approx(2.0, rel=1e-12)
    assert _calculus(benchmark_model).m(3.0) == pytest.approx(6.0 * math.exp(-2.0), rel=1e-12)


@pytest.mark.parametrize("x", [0.11, 0.5, 1.0, 2.7, 9.0, 40.0])
def test_speed_scale_volatility_identity(benchmark_model, quadrature_twin, x):
    for model in (benchmark_model, quadrature_twin):
        sigma2 = model.volatility(x) ** 2
        product = _calculus(model).m(x) * _calculus(model).s(x) * sigma2
        assert abs(product - 2.0) < 1e-8


def test_closed_forms_match_generic_quadrature_route(benchmark_model, quadrature_twin):
    xs = np.geomspace(0.1, 100.0, 25)
    for x in xs:
        assert _calculus(quadrature_twin).s(float(x)) == pytest.approx(
            _calculus(benchmark_model).s(float(x)), rel=1e-8
        )
        assert _calculus(quadrature_twin).m(float(x)) == pytest.approx(
            _calculus(benchmark_model).m(float(x)), rel=1e-8
        )


def test_drift_weighted_speed_identity(benchmark_model):
    # s(x) * int_0^x mu m du = 1 on [y0, 10 y0], with the integral by quadrature
    for x in np.linspace(1.0, 10.0, 50):
        mu_m = integrate_to_zero(
            lambda u: benchmark_model.drift(u) * _calculus(benchmark_model).m(u), float(x)
        )
        assert abs(_calculus(benchmark_model).s(float(x)) * mu_m - 1.0) < 1e-6


@pytest.mark.parametrize(
    "params",
    [
        dict(q=-1.0, b=0.5, beta=1.0, y0=1.0),
        dict(q=-3.0, b=1.5, beta=0.7, y0=2.0),
        dict(q=-0.2, b=0.05, beta=1.3, y0=0.5),
    ],
)
def test_logistic_cycle_stock_series_matches_quadrature(params):
    # the table's cycle stock against the oracle series (A(rho y) - A(rho y0)) / b, and the
    # series against a direct quadrature of the oracle's closed-form xm0 s
    from scipy.integrate import quad

    model = logistic_model(**params)
    calc, oracle = _calculus(model), LogisticOracle(model)
    y0 = params["y0"]
    ys = y0 * np.array([1.01, 1.7, 4.0, 11.0, 25.0])
    table = calc.cycle_stock(ys)
    for y, value, series in zip(ys, table, oracle.cycle_stock(ys)):
        direct = quad(lambda u: float(oracle.xm0(u) * oracle.s(u)), y0, float(y), epsabs=1e-14, epsrel=1e-12)[0]
        assert series == pytest.approx(direct, rel=1e-9)
        assert value == pytest.approx(series, rel=1e-9)
        assert calc.cycle_stock(float(y)) == pytest.approx(value, rel=1e-13)
    assert calc.cycle_stock(y0) == 0.0
    assert calc.cycle_stock(np.array([y0, 2.0 * y0]))[0] == 0.0


def test_cycle_stock_vanishes_at_restart_on_the_twin(quadrature_twin):
    # every table component is 0 at y0 by construction: no rounding residue of either sign
    calc = _calculus(quadrature_twin)
    assert calc.cycle_stock(1.0) == 0.0
    assert calc.cycle_stock(np.array([1.0, 2.0]))[0] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logistic_overflow_raises_divergence():
    # an array read past double range raises DivergenceError without a numpy RuntimeWarning
    from harvestfield.errors import DivergenceError

    # s(x) = x^-3 exp(100 (x - 1)) leaves double range just past x = 8.1; the cycle stock,
    # about xm0(y0) s(x) / 100 with xm0(y0) = 1.1e38, near 1.2e294 at x = 7 and 1e315 at 7.5
    calc = _calculus(logistic_model(q=-1.0, b=50.0, beta=1.0, y0=1.0))
    with pytest.raises(DivergenceError, match="scale density overflows"):
        calc.s(12.0)
    with pytest.raises(DivergenceError, match="scale density overflows: s"):
        calc.s(np.array([2.0, 12.0]))
    # sigma^2 = x^2 turns subnormal below x = 1.5e-154, where it counts as vanishing
    assert math.isfinite(calc.m(1e-153))
    for x in (1e-156, 1e-300, np.array([1e-300, 1.0]), np.array([1e-170, 1.0])):
        with pytest.raises(DomainError, match="volatility vanishes"):
            calc.m(x)
    assert calc.cycle_stock(7.0) == pytest.approx(1.188e294, rel=1e-3)
    with pytest.raises(DivergenceError, match="scale density overflows: cycle stock"):
        calc.cycle_stock(7.5)
    with pytest.raises(DivergenceError, match="scale density overflows: cycle stock"):
        calc.cycle_stock(np.array([2.0, 7.5]))
    with pytest.raises(DivergenceError, match="scale density overflows: xi"):
        calc.xi(np.array([2.0, 7.5]))
    with pytest.raises(DivergenceError, match="scale density overflows: S"):
        calc.S(np.array([2.0, 12.0]))


def test_scalar_only_coefficients_are_wrapped():
    # math.exp raises TypeError on an array, so the drift is vectorized instead
    from harvestfield.diffusion import _vector_coefficients

    model = custom_model(lambda x: x * (1.5 - 0.5 * math.exp(math.log(x))), lambda x: x, y0=1.0)
    drift, _ = _vector_coefficients(model)
    assert drift(np.array([1.0, 2.0])) == pytest.approx([1.0, 1.0], rel=1e-12)
    assert _calculus(model).S(np.array([2.0, 3.0])) == pytest.approx(
        [_calculus(model).S(2.0), _calculus(model).S(3.0)], rel=1e-12
    )


def test_unexpected_coefficient_errors_propagate():
    from harvestfield.diffusion import _vector_coefficients

    def drift(x):
        if np.ndim(x):
            raise RuntimeError("broken drift")
        return x * (1.5 - 0.5 * x)

    with pytest.raises(RuntimeError, match="broken drift"):
        _vector_coefficients(custom_model(drift, lambda x: x, y0=1.0))


def test_tabulated_values_do_not_depend_on_query_order():
    def twin():
        return custom_model(lambda x: x * (1.5 - 0.5 * x), lambda x: x, y0=1.0)

    xs = np.geomspace(0.05, 60.0, 40)
    forward, backward = twin(), twin()
    values = [_calculus(forward).S(float(x)) for x in xs]
    values_reversed = [_calculus(backward).S(float(x)) for x in xs[::-1]][::-1]
    assert values == values_reversed
    assert _calculus(twin()).S(xs) == pytest.approx(values, rel=1e-14)


def test_concurrent_table_growth_matches_serial():
    # threads extend one model's table to both sides at once; copy-on-write
    # under the lock must leave one consistent table with the serial values
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def twin():
        return custom_model(lambda x: x * (1.5 - 0.5 * x), lambda x: x, y0=1.0)

    xs = np.random.default_rng(5).permutation(np.geomspace(1e-3, 200.0, 400))
    shared = _calculus(twin())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda x: (shared.S(x), shared.M0(x)), xs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    serial = _calculus(twin())
    assert results == [(serial.S(x), serial.M0(x)) for x in xs]
    bounds, coef, _, _ = shared._table._state
    assert np.all(np.diff(bounds) > 0.0) and len(coef) == len(bounds) - 1


def test_calculus_is_freed_with_its_model(rate_payoff):
    import dataclasses
    import weakref

    from harvestfield import get_evaluator
    from harvestfield.meanfield import compare

    model = custom_model(lambda x: x * (1.5 - 0.5 * x), lambda x: x, y0=1.0)
    compare(model, rate_payoff)
    # xi, its derivatives and the zero-cost solve share one object
    cached = set(vars(model)) - {f.name for f in dataclasses.fields(model)}
    assert cached == {"_calculus"}
    assert get_evaluator(model) is _calculus(model)
    assert get_evaluator(model) is get_evaluator(model)
    calc = weakref.ref(_calculus(model))
    del model
    assert calc() is None


def test_cold_queries_build_the_table_in_few_drift_calls():
    # one batch per growth: a sample of the grid, the panels' nodes, and the halved panels
    calls = []

    def drift(x):
        calls.append(np.size(x))
        return x * (1.5 - 0.5 * x)

    calc = _calculus(custom_model(drift, lambda x: x, y0=1.0))
    calc.xi(3.0)
    calc.M0(1e-9)
    calc.S(60.0)
    assert len(calls) <= 40


def test_scalar_lookup_matches_array_element():
    table = _calculus(custom_model(lambda x: x * (1.5 - 0.5 * x), lambda x: x, y0=1.0))._table
    xs = np.geomspace(2.0**-40, 60.0, 200)
    components = tuple(range(6))
    array = table(xs, components)
    bounds, coef, _, _ = table._state
    panel = np.clip(np.searchsorted(bounds, np.log(xs), side="right") - 1, 0, len(bounds) - 2)
    for c in components:
        scalar = np.array([table.at(float(x), c) for x in xs])
        # relative to the size of the terms summed, since several components cross 0
        size = np.abs(coef[panel, c]).sum(axis=1)
        assert np.all(np.abs(scalar - array[c]) <= 2e-15 * size)
        assert table(float(xs[77]), c) == scalar[77]


def test_singular_drift_stops_at_the_panel_guard(tmp_path, capsys):
    # drift (1.5 - 0.5 x)/(x - 2): s falls like exp(-1.5/x) toward 0, and the table
    # gives up below y0 * 2^-40 once it needs more than 20000 panels
    import json

    from harvestfield.cli import main

    scenario = tmp_path / "singular.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "custom", "drift": "(1.5 - 0.5*x)/(x - 2)", "vol": "x", "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"},
                "single": {"z": 0.1},
            }
        )
    )
    with np.errstate(divide="ignore"):
        code = main(["solve-single", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "exceeds 20000 panels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scale function
# ---------------------------------------------------------------------------

def test_scale_function_zero_at_reference(benchmark_model):
    assert _calculus(benchmark_model).S(1.0) == 0.0


def test_scale_function_monotone(benchmark_model):
    xs = np.geomspace(0.2, 30.0, 12)
    vals = [_calculus(benchmark_model).S(float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_scale_function_against_simpson_oracle(benchmark_model):
    # independent composite-Simpson refinement; mpmath gives 0.5433373558694929
    oracle = simpson_refine(lambda u: u**-3 * math.exp(u - 1.0), 1.0, 2.0, tol=1e-11)
    assert oracle == pytest.approx(0.5433373558694929, rel=1e-10)
    diff = _calculus(benchmark_model).S(2.0) - _calculus(benchmark_model).S(1.0)
    assert diff == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# speed measure
# ---------------------------------------------------------------------------

def test_speed_measure_total_mass(benchmark_model, quadrature_twin):
    # Gamma-integral reduction: int_0^inf 2 x e^(1-x) dx = 2e
    assert _calculus(benchmark_model).speed_mass_total() == pytest.approx(2.0 * E, rel=1e-12)
    assert _calculus(quadrature_twin).speed_mass_total() == pytest.approx(2.0 * E, rel=1e-8)


def test_speed_measure_below_restart(benchmark_model):
    oracle = simpson_refine(lambda u: 2.0 * u * math.exp(1.0 - u), 1e-9, 1.0, tol=1e-11)
    assert _calculus(benchmark_model).M0(1.0) == pytest.approx(oracle, rel=1e-8)
    assert _calculus(benchmark_model).M0(1.0) == pytest.approx(2.0 * E - 4.0, rel=1e-12)


def test_speed_mass_differences_match_explicit_density(benchmark_model):
    # M0(b) - M0(a) against QUADPACK on the benchmark's explicit speed density 2u e^(1-u)
    M0 = _calculus(benchmark_model).M0

    def m(u):
        return 2.0 * u * math.exp(1.0 - u)

    for hi in (7.0, 2.0):
        expected = integrate(m, 0.5, hi, abs_tol=0.0, rel_tol=1e-13)
        assert M0(hi) - M0(0.5) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# assumption probes
# ---------------------------------------------------------------------------

def test_validate_benchmark(benchmark_model):
    report = validate_assumptions(benchmark_model)
    assert report.speed_mass_finite and report.first_moment_finite
    assert report.speed_mass == pytest.approx(2.0 * E, rel=1e-10)
    assert report.turning_point_ok
    assert report.turning_point == pytest.approx(1.5, rel=0.05)
    assert report.scale_diverges
    # 0 is a natural boundary for the logistic family: the entrance integral
    # int_0 (S(y0)-S(u)) m(u) du picks up a u^(-1) tail and diverges, and the
    # probe must report that honestly.
    assert not report.entrance_finite


def test_validate_reports_numbers_with_flags(benchmark_model):
    report = validate_assumptions(benchmark_model)
    d = report.to_dict()
    assert math.isfinite(d["speed_mass"])
    assert math.isfinite(d["first_moment"])
    assert d["turning_point"] is not None
    assert math.isfinite(d["scale_probe_value"])


def test_validate_unsaturated_drift_fails_turning_point():
    model = custom_model(lambda x: 0.5 * x, lambda x: x, y0=1.0)
    report = validate_assumptions(model)
    assert not report.turning_point_ok


def test_validate_gbm_positive_drift_fails_speed_mass():
    # geometric Brownian motion with positive drift: m(x) ~ x^(2 mu/sigma^2 - 2)
    model = custom_model(lambda x: 0.5 * x, lambda x: 0.4 * x, y0=1.0)
    report = validate_assumptions(model)
    assert not report.speed_mass_finite


def test_entrance_boundary_finite_for_sublinear_noise():
    # mean-reverting drift with sqrt volatility: 0 is a genuine entrance boundary
    model = custom_model(lambda x: 1.5 - x, lambda x: math.sqrt(x), y0=1.0)
    report = validate_assumptions(model)
    assert report.entrance_finite
    assert math.isfinite(report.entrance_value)


def test_entrance_probe_matches_fubini_form_on_sublinear_noise():
    # s = x^-3 e^(2(x-1)) and M[0, x] = (e^2/2) P(3, 2x), so by Fubini the probe
    # int_0^1 (S(1) - S(u)) m(u) du is int_0^1 s(v) M[0, v] dv, whose integrand is bounded
    from scipy.integrate import quad
    from scipy.special import gammainc

    model = custom_model(lambda x: 1.5 - x, lambda x: np.sqrt(x), y0=1.0)
    expected = quad(
        lambda v: v**-3 * math.exp(2.0 * v) / 2.0 * gammainc(3.0, 2.0 * v),
        0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
    )[0]
    assert validate_assumptions(model).entrance_value == pytest.approx(expected, rel=1e-12)


def test_table_limit_reports_a_divergent_speed_mass_toward_0():
    # q = 0 (growth = beta^2 / 2): m ~ 1/x near 0, so every segment adds the same mass
    model = custom_model(lambda x: x * (0.5 - 0.5 * x), lambda x: x, y0=1.0)
    report = validate_assumptions(model)
    assert not report.speed_mass_finite
    assert any("toward 0 diverges" in note for note in report.notes)


# ---------------------------------------------------------------------------
# model construction and serialization
# ---------------------------------------------------------------------------

def test_logistic_requires_ergodic_q():
    with pytest.raises(DomainError):
        logistic_model(q=0.25, b=0.5, beta=1.0, y0=1.0)


def test_logistic_growth_parameterization():
    by_q = logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)
    by_growth = logistic_model(growth=1.5, b=0.5, beta=1.0, y0=1.0)
    assert by_q.logistic.q == pytest.approx(by_growth.logistic.q)


def test_rejects_vanishing_volatility():
    with pytest.raises(DomainError):
        custom_model(lambda x: 1.0 - x, lambda x: 0.0, y0=1.0)


def test_model_from_dict_builds_both_kinds(benchmark_model):
    logistic = model_from_dict({"kind": "logistic", "q": -1.0, "b": 0.5, "beta": 1.0, "y0": 1.0})
    assert _calculus(logistic).s(2.0) == pytest.approx(_calculus(benchmark_model).s(2.0))
    custom = model_from_dict({"kind": "custom", "drift": "x*(1.5 - 0.5*x)", "vol": "x", "y0": 1.0})
    assert _calculus(custom).m(1.0) == pytest.approx(2.0, rel=1e-9)


def test_model_from_dict_rejects_junk():
    with pytest.raises(DomainError):
        model_from_dict({"kind": "pareto"})
    with pytest.raises(DomainError):
        model_from_dict({"kind": "logistic", "q": -1.0})
