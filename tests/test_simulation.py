import math
import sys
import threading

import numpy as np
import pytest

from harvestfield import simulation
from harvestfield.diffusion import custom_model, logistic_model
from harvestfield.errors import DomainError
from harvestfield.expressions import parse_expression
from harvestfield.meanfield import mfc_optimum
from harvestfield.simulation import (
    SimConfig,
    estimate_hitting_time,
    estimate_stationary_mean,
    estimate_value,
    simulate_path,
)
from harvestfield.simulation import _first_passages, _sample_report
from harvestfield.stationary import controlled_cdf, expected_stock, stock_bounds

XI_2 = 1.2038881223660562


def test_path_restarts_exactly_at_restart_level(benchmark_model):
    record = simulate_path(benchmark_model, 4.0, SimConfig(seed=1), horizon=40.0)
    assert record.impulse_count > 0
    idx = np.searchsorted(record.times, record.impulse_times)
    assert np.all(record.states[idx] == benchmark_model.restart_level)


def test_pre_impulse_states_near_threshold(benchmark_model):
    config = SimConfig(seed=2, dt=1e-3)
    record = simulate_path(benchmark_model, 4.0, config, horizon=40.0)
    slack = 0.5826 * benchmark_model.volatility(4.0) * math.sqrt(config.dt)
    assert np.all(record.pre_impulse_states >= 4.0 - slack - 1e-12)


def test_infinite_threshold_is_uncontrolled(benchmark_model):
    a = simulate_path(benchmark_model, math.inf, SimConfig(seed=3), horizon=10.0)
    b = simulate_path(benchmark_model, math.inf, SimConfig(seed=3), horizon=10.0)
    assert a.impulse_count == 0
    assert np.array_equal(a.states, b.states)


def test_paths_reproducible_and_seed_sensitive(benchmark_model):
    a = simulate_path(benchmark_model, 4.0, SimConfig(seed=5), horizon=5.0)
    b = simulate_path(benchmark_model, 4.0, SimConfig(seed=5), horizon=5.0)
    c = simulate_path(benchmark_model, 4.0, SimConfig(seed=6), horizon=5.0)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_impulse_frequency_matches_renewal_rate(benchmark_model, benchmark_evaluator):
    # mean impulse count over [0, T] across paths vs T / xi(y), within 3 SE
    horizon, threshold = 150.0, 3.0
    counts = [
        simulate_path(benchmark_model, threshold, SimConfig(seed=s, dt=2e-3), horizon=horizon).impulse_count
        for s in range(24)
    ]
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    expected = horizon / benchmark_evaluator.xi(threshold)
    assert abs(counts.mean() - expected) <= 3.0 * se


def test_hitting_time_estimator_matches_analytic(benchmark_model):
    report = estimate_hitting_time(benchmark_model, 2.0, SimConfig(dt=1e-3, seed=11), n_paths=20_000)
    assert report.n == 20_000
    assert report.details["capped"] == 0
    assert report.details["floor_activations"] == 0
    assert report.within(XI_2, 3.0)


def test_hitting_time_estimator_is_deterministic(benchmark_model):
    config = SimConfig(dt=2e-3, seed=11)
    a = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=4000)
    b = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=4000)
    assert a.value == b.value and a.std_error == b.std_error


def test_standard_error_scales_with_paths(benchmark_model):
    config = SimConfig(dt=2e-3, seed=13)
    small = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=10_000)
    large = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=40_000)
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_time_step_consistency(benchmark_model):
    # halving dt moves the corrected estimate by less than 2 combined SEs
    coarse = estimate_hitting_time(benchmark_model, 2.0, SimConfig(dt=2e-3, seed=17), n_paths=20_000)
    fine = estimate_hitting_time(benchmark_model, 2.0, SimConfig(dt=1e-3, seed=19), n_paths=20_000)
    combined = math.hypot(coarse.std_error, fine.std_error)
    assert abs(coarse.value - fine.value) <= 2.0 * combined


def test_barrier_correction_removes_crossing_bias(benchmark_model, monkeypatch):
    # the uncorrected estimator overshoots xi(2) by O(sqrt(dt)), many SEs at
    # this sample size; the corrected one stays within 3
    config = SimConfig(dt=1e-3, seed=23)
    corrected = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=20_000)
    monkeypatch.setattr(simulation, "_BARRIER_BETA", 0.0)   # detect at the threshold itself
    raw = estimate_hitting_time(benchmark_model, 2.0, config, n_paths=20_000)
    assert corrected.within(XI_2, 3.0)
    assert raw.value - XI_2 > 3.0 * raw.std_error


def test_capped_paths_are_flagged(benchmark_model, monkeypatch):
    monkeypatch.setattr(simulation, "_TIME_CAP", 5.0)
    report = estimate_hitting_time(benchmark_model, 6.0, SimConfig(dt=5e-3, seed=29), n_paths=500)
    assert report.details["capped"] > 0
    assert report.flags


def _assert_stacking_changes_nothing(model):
    # chunk 0 alone and stacked with two more chunks draws and steps identically
    config = SimConfig(dt=2e-3, seed=61, chunk_size=400)
    alone = _first_passages(model, 3.0, 400, config, running=lambda x: x)
    stacked = _first_passages(model, 3.0, 1100, config, running=lambda x: x)
    assert np.array_equal(alone.times, stacked.times[:400])
    assert np.array_equal(alone.integrals, stacked.integrals[:400])
    assert np.array_equal(alone.pre_states, stacked.pre_states[:400])
    assert not np.array_equal(stacked.times[:400], stacked.times[400:800])


def test_chunk_cycles_do_not_depend_on_stacking(benchmark_model):
    _assert_stacking_changes_nothing(benchmark_model)


@pytest.mark.parametrize("vol", ["0.3*x^0.5", "0.3*x^1.5"])
def test_chunk_cycles_do_not_depend_on_stacking_under_power_noise(vol):
    # a chunk leaves the array on its own live count, whatever the coefficients
    model = custom_model(parse_expression("x*(1.5 - 0.5*x)"), parse_expression(vol), y0=1.0)
    _assert_stacking_changes_nothing(model)


def _tail_case(case, benchmark_model):
    """(model, threshold, n, config, running) of each finisher case."""
    if case == "bundled":
        return benchmark_model, 4.0, 700, SimConfig(dt=2e-3, seed=71, chunk_size=300), lambda x: x
    if case == "floor":
        # x drifts up from 0 at unit rate under unit noise, so steps below 0 are clamped
        model = custom_model(lambda x: 1.0 - 0.5 * x, lambda x: 1.0 + 0.0 * x, y0=1.0)
        return model, 2.5, 300, SimConfig(dt=2e-3, seed=3), lambda x: x
    if case == "power":
        # a parsed ``^`` rounds alike on floats and arrays, so the tail agrees here too
        model = custom_model(parse_expression("x*(1.5 - 0.5*x)"), parse_expression("0.3*x^1.5"), y0=1.0)
        return model, 3.0, 1100, SimConfig(dt=2e-3, seed=61, chunk_size=400), lambda x: x
    # with a cycle cap of 10, about 18 of 300 cycles outlast it, all after the
    # chunk has left the array
    return benchmark_model, 4.0, 300, SimConfig(dt=5e-3, seed=3), np.sqrt


@pytest.mark.parametrize("case", ["bundled", "floor", "power", "cap"])
def test_tail_finisher_matches_the_array_engine(benchmark_model, monkeypatch, case):
    model, threshold, n, config, running = _tail_case(case, benchmark_model)
    if case == "cap":
        monkeypatch.setattr(simulation, "_TIME_CAP", 10.0)
    finished = []

    def spy(*args, _finish=simulation._finish_chunk):
        finished.append(_finish(*args))
        return finished[-1]

    monkeypatch.setattr(simulation, "_finish_chunk", spy)
    tail = _first_passages(model, threshold, n, config, running=running)
    monkeypatch.setattr(simulation, "_TAIL_PATHS", 0)   # every step in the array
    array = _first_passages(model, threshold, n, config, running=running)
    for field, got, want in zip(tail._fields, tail, array):
        assert np.array_equal(got, want), field
    floored, capped = (sum(counts) for counts in zip(*finished))
    assert {
        "bundled": len(finished) >= 2, "floor": floored > 0, "power": len(finished) >= 2, "cap": capped > 0
    }[case]


@pytest.mark.parametrize("case", ["logistic", "scalar-only"])
def test_cycles_do_not_depend_on_the_worker_count(benchmark_model, monkeypatch, case):
    # 1 to 5 chunks of 40 paths, the last one partial, on 1, 2 and 3 groups; every
    # chunk's last live paths go through the tail finisher, on whichever thread
    if case == "logistic":
        model, threshold, running = benchmark_model, 2.5, lambda x: x
        monkeypatch.setattr(simulation, "_TIME_CAP", 3.0)   # some cycles are capped
    else:
        # math.fabs refuses arrays, so the array engine steps np.vectorize wrappers;
        # x drifts up from 0 at unit rate under unit noise, so steps below 0 are clamped
        model = custom_model(lambda x: 1.0 - 0.5 * math.fabs(x), lambda x: 1.0, y0=1.0)
        threshold, running = 1.8, np.sqrt
    config = SimConfig(dt=2e-3, seed=17, chunk_size=40)
    finishers = set()

    def spy(*args, _finish=simulation._finish_chunk):
        finishers.add(threading.current_thread().name)
        return _finish(*args)

    monkeypatch.setattr(simulation, "_finish_chunk", spy)
    monkeypatch.setattr(simulation, "_GROUP_PATHS", 1)
    counted = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # hand the interpreter lock over as often as it goes
    try:
        for chunks in range(1, 6):
            n = 40 * chunks - 13
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
                runs.append(_first_passages(model, threshold, n, config, running=running))
            for cycles in runs[1:]:
                for field, got, want in zip(cycles._fields, cycles, runs[0]):
                    assert np.array_equal(got, want), (chunks, field)
            counted += runs[0].capped if case == "logistic" else runs[0].floored
    finally:
        sys.setswitchinterval(interval)
    assert counted > 0
    assert threading.main_thread().name in finishers and len(finishers) > 1


def test_groups_take_at_least_group_paths_each(benchmark_model, monkeypatch):
    # 5 chunks of 50 paths on 4 CPUs, but 100 paths a group at least: 2 groups
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(simulation, "_GROUP_PATHS", 100)
    finishers = set()

    def spy(*args, _finish=simulation._finish_chunk):
        finishers.add(threading.current_thread().name)
        return _finish(*args)

    monkeypatch.setattr(simulation, "_finish_chunk", spy)
    _first_passages(benchmark_model, 2.0, 250, SimConfig(dt=2e-3, seed=3, chunk_size=50))
    assert len(finishers) == 2


def _fail_off_the_calling_thread(fail):
    """A running integrand that is ``x`` on the calling thread and ``fail(x)`` on any other."""
    def running(x):
        return x if threading.current_thread() is threading.main_thread() else fail(x)
    return running


def test_worker_error_reaches_the_caller_and_every_thread_ends(benchmark_model, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_GROUP_PATHS", 100)
    config = SimConfig(dt=2e-3, seed=5, chunk_size=100)

    def fail(x):
        raise KeyError("worker integrand")

    before = threading.active_count()
    with pytest.raises(KeyError, match="worker integrand"):
        _first_passages(benchmark_model, 3.0, 200, config, running=_fail_off_the_calling_thread(fail))
    assert threading.active_count() == before
    # the caller's np.errstate reaches the worker group
    overflow = _fail_off_the_calling_thread(lambda x: np.exp(x + 1e3))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _first_passages(benchmark_model, 3.0, 200, config, running=overflow)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "params", [dict(q=-1.0, b=0.5, beta=1.0, y0=1.0), dict(q=-0.37, b=0.123, beta=0.71, y0=0.9)]
)
def test_logistic_coefficients_agree_bitwise_on_floats_and_arrays(params):
    # the plain-float tail reproduces the array engine only if they do
    model = logistic_model(**params)
    xs = np.concatenate([np.geomspace(1e-8, 1e3, 2000), np.random.default_rng(5).uniform(0.0, 20.0, 2000)])
    for coefficient in (model.drift, model.volatility):
        assert np.array_equal(coefficient(xs), [coefficient(x) for x in xs.tolist()])


def test_long_run_capped_cycles_are_flagged(benchmark_model, rate_payoff, monkeypatch):
    monkeypatch.setattr(simulation, "_TIME_CAP", 5.0)
    config = SimConfig(dt=5e-3, seed=31, horizon=100.0)
    for report in (
        estimate_stationary_mean(benchmark_model, 6.0, config),
        estimate_value(benchmark_model, rate_payoff, 6.0, config, z=0.3),
    ):
        assert report.details["capped"] > 0
        assert report.flags


def test_stationary_standard_error_scales_with_horizon(benchmark_model):
    small = estimate_stationary_mean(benchmark_model, 4.0, SimConfig(dt=2e-3, seed=13, horizon=2e3))
    large = estimate_stationary_mean(benchmark_model, 4.0, SimConfig(dt=2e-3, seed=13, horizon=8e3))
    assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.25)


def test_long_run_details_count_euler_steps(benchmark_model, rate_payoff):
    # chunks * (burn_in + window) / dt is how traces count the steps of a long-run estimate
    config = SimConfig(dt=2e-3, seed=67, horizon=300.0)
    for report in (
        estimate_stationary_mean(benchmark_model, 4.0, config),
        estimate_value(benchmark_model, rate_payoff, 4.0, config, z=0.3),
    ):
        d = report.details
        cycles = _first_passages(benchmark_model, 4.0, report.n, config)
        steps = np.rint(cycles.times / config.dt)
        assert np.allclose(cycles.times / config.dt, steps, rtol=0.0, atol=1e-6)
        assert d["chunks"] == report.n and d["burn_in"] == 0.0 and d["dt"] == config.dt
        assert d["chunks"] * (d["burn_in"] + d["window"]) / d["dt"] == pytest.approx(steps.sum(), rel=1e-12)


def test_stationary_mean_estimator(benchmark_model):
    config = SimConfig(dt=1e-3, seed=31, horizon=4e3)
    report = estimate_stationary_mean(benchmark_model, 4.0, config)
    target = expected_stock(benchmark_model, 4.0)
    assert report.within(target, 3.0)
    z1, z2 = stock_bounds(benchmark_model)
    assert z1 - 3.0 * report.std_error <= report.value <= z2 + 3.0 * report.std_error


def test_value_estimator_self_consistent(benchmark_model, rate_payoff):
    config = SimConfig(dt=1e-3, seed=37, horizon=4e3)
    report = estimate_value(benchmark_model, rate_payoff, 5.13, config)
    assert report.within(0.2429, 3.0)


def test_value_estimator_fixed_interaction(benchmark_model, benchmark_evaluator, rate_payoff):
    # fixed z decouples the price from the threshold; compare to the renewal ratio
    z = 0.3
    threshold = 4.0
    price = rate_payoff.phi(z)
    analytic = (price * (threshold - 1.0) - 1.0) / benchmark_evaluator.xi(threshold)
    config = SimConfig(dt=1e-3, seed=41, horizon=4e3)
    report = estimate_value(benchmark_model, rate_payoff, threshold, config, z=z)
    assert report.within(analytic, 3.0)


def test_value_estimator_negative_when_cost_dominates(benchmark_model, benchmark_evaluator):
    from harvestfield.payoff import Interaction, PayoffSpec

    payoff = PayoffSpec(
        cost=6.0, phi=lambda z: 1.0, interaction=Interaction.HARVEST_RATE, phi_source="1"
    )
    threshold = 2.0
    analytic = (threshold - 1.0 - 6.0) / benchmark_evaluator.xi(threshold)
    assert analytic < 0.0
    report = estimate_value(
        benchmark_model, payoff, threshold, SimConfig(dt=1e-3, seed=43, horizon=3e3), z=0.1
    )
    assert report.value < 0.0
    assert report.within(analytic, 3.0)


def test_planner_value_cross_validated(benchmark_model, rate_payoff):
    # renewal-reward simulation of the planner threshold reproduces H(y^p)
    sol = mfc_optimum(benchmark_model, rate_payoff)
    report = estimate_value(
        benchmark_model, rate_payoff, sol.threshold, SimConfig(dt=1e-3, seed=47, horizon=4e3)
    )
    assert report.within(sol.value, 3.0)


def test_running_cost_estimator(benchmark_model):
    # E_1[int_0^{tau_3} X dt] frozen from a 40-digit Green-kernel evaluation
    config = SimConfig(dt=1e-3, seed=53)
    cycles = _first_passages(benchmark_model, 3.0, 20_000, config, running=lambda x: x)
    report = _sample_report(cycles.integrals, cycles, config)
    assert report.within(2.4550772022054387, 3.0)


def test_running_cost_takes_an_array_only_integrand(benchmark_model):
    # the tail calls the integrand on arrays too, never on a float
    config = SimConfig(dt=2e-3, seed=53)
    reports = []
    for h in (lambda x: x, lambda x: x.clip(min=0.0)):
        cycles = _first_passages(benchmark_model, 3.0, 300, config, running=h)
        reports.append(_sample_report(cycles.integrals, cycles, config))
    plain, clipped = reports
    assert clipped.value == plain.value and clipped.std_error == plain.std_error


def test_occupation_histogram_matches_stationary_density(benchmark_model):
    # binwise occupation frequencies of a long controlled path vs the
    # stationary CDF increments, within 3 between-chunk standard errors
    threshold = 5.0
    config = SimConfig(dt=1e-3, seed=59, horizon=8e3)
    from harvestfield.simulation import _rng, _vector_coefficients

    drift, vol = _vector_coefficients(benchmark_model)
    rng = _rng(config.seed, 1)
    n_chunks, window, burn = 80, 100.0, 40.0
    dt = config.dt
    sqdt = math.sqrt(dt)
    edges = np.array([0.0, 0.6, 1.0, 1.5, 2.0, 2.7, 3.5, 4.3, threshold])
    counts = np.zeros((n_chunks, len(edges) - 1))
    x = np.full(n_chunks, benchmark_model.restart_level)
    steps_burn = int(burn / dt)
    steps_window = int(window / dt)
    detect = threshold - 0.5826 * benchmark_model.volatility(threshold) * sqdt
    for k in range(steps_burn + steps_window):
        z = rng.standard_normal(n_chunks)
        x = x + drift(x) * dt + vol(x) * sqdt * z
        x = np.maximum(x, simulation._EPS_FLOOR)
        hit = x >= detect
        if np.any(hit):
            x[hit] = benchmark_model.restart_level
        if k >= steps_burn:
            idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)
            counts[np.arange(n_chunks), idx] += 1.0
    freq = counts / counts.sum(axis=1, keepdims=True)
    cdf_at_edges = np.asarray(controlled_cdf(benchmark_model, threshold, edges[1:]))
    target = np.diff(np.concatenate([[0.0], cdf_at_edges]))
    mean = freq.mean(axis=0)
    se = freq.std(axis=0, ddof=1) / math.sqrt(n_chunks)
    assert np.all(np.abs(mean - target) <= 3.0 * np.maximum(se, 1e-6))


def test_rejects_threshold_at_restart(benchmark_model):
    with pytest.raises(DomainError):
        estimate_hitting_time(benchmark_model, 1.0, SimConfig(), n_paths=10)
    with pytest.raises(DomainError):
        simulate_path(benchmark_model, 0.8, SimConfig(), horizon=1.0)


@pytest.mark.parametrize(
    "run",
    [
        # NaN never triggers an impulse: the uncontrolled path
        lambda m, y, payoff: simulate_path(m, y, SimConfig(), horizon=1.0),
        # every path would step to the time cap
        lambda m, y, payoff: estimate_hitting_time(m, y, SimConfig(), n_paths=10),
        lambda m, y, payoff: estimate_stationary_mean(m, y, SimConfig()),
        lambda m, y, payoff: estimate_value(m, payoff, y, SimConfig(), z=0.3),
    ],
    ids=["simulate_path", "estimate_hitting_time", "estimate_stationary_mean", "estimate_value"],
)
def test_entry_points_refuse_nan_threshold(benchmark_model, rate_payoff, run):
    with pytest.raises(DomainError, match="got nan"):
        run(benchmark_model, math.nan, rate_payoff)


@pytest.mark.parametrize(
    "field, value",
    [("horizon", math.nan), ("horizon", -1.0), ("horizon", math.inf), ("seed", -1), ("chunk_size", 0)],
)
def test_config_refuses_run_lengths_it_cannot_run(field, value):
    with pytest.raises(DomainError, match=field):
        SimConfig(**{field: value})


@pytest.mark.parametrize("horizon", [-5.0, math.nan, 1e300])
def test_path_length_is_bounded(benchmark_model, horizon):
    with pytest.raises(DomainError, match="steps"):
        simulate_path(benchmark_model, 4.0, SimConfig(), horizon=horizon)


def test_cycle_count_is_bounded(benchmark_model, rate_payoff):
    # a threshold just above y0 asks for about 1.1e9 cycles of a 1e4 horizon
    with pytest.raises(DomainError, match="cycles"):
        estimate_value(benchmark_model, rate_payoff, 1.0001, SimConfig(), z=0.3)
    with pytest.raises(DomainError, match=r"^1e\+06 cycles requested"):
        estimate_hitting_time(benchmark_model, 2.0, SimConfig(), n_paths=simulation._MAX_CYCLES + 1)
    with pytest.raises(DomainError, match=r"^0 cycles requested"):
        estimate_hitting_time(benchmark_model, 2.0, SimConfig(), n_paths=0)
