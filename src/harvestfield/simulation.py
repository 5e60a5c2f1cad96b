"""Euler-Maruyama Monte-Carlo engine with threshold impulses.

Paths step on a fixed dt grid; when the state reaches the threshold it is
reset to ``y0`` and the pre-impulse value is recorded. Crossings are checked
at grid times only, which by itself overestimates hitting times by O(sqrt(dt))
because excursions inside a step are missed. The engine therefore detects
crossings against a barrier lowered by the standard continuity correction
``0.5826 * sigma(y) * sqrt(dt)``; the recorded pre-impulse state then also has
mean ``y`` up to O(dt). The correction can be disabled per config.

Every estimator samples independent cycles from ``y0`` to the detection level
with one first-passage engine: the passage time, the running integral and the
pre-impulse state of each cycle. Since the controlled process regenerates at
``y0`` at every impulse, the long-run stock and reward rate are renewal-reward
ratios over ``ceil(horizon / xi(y))`` cycles, ``E[int_0^tau X] / E[tau]`` and
``(E[gamma] - K) / E[tau]``, with delta-method standard errors and no burn-in
(Asmussen & Glynn, *Stochastic Simulation*, ch. IV).

Estimators are deterministic per chunk: cycles are split into chunks, each
chunk draws its normals from its own generator seeded by
``(seed, chunk_index)`` in fixed blocks of steps for its own live paths, so a
chunk's cycles are bit-identical whether it runs alone or stacked with others,
and results are aggregated in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .diffusion import DiffusionModel, _vector_coefficients
from .errors import DomainError
from .hitting import get_evaluator
from .payoff import PayoffSpec

__all__ = [
    "SimConfig",
    "PathRecord",
    "EstimateReport",
    "simulate_path",
    "estimate_hitting_time",
    "estimate_running_cost",
    "estimate_value",
    "estimate_stationary_mean",
]

# continuity correction for discretely monitored barriers: -zeta(1/2)/sqrt(2 pi)
_BARRIER_BETA = 0.5825971579390107

# Euler steps per block of normals; finished paths are dropped at block ends
_BLOCK_STEPS = 16


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 1e4          # long-run estimators average ceil(horizon / xi(y)) cycles
    n_paths: int = 100_000        # independent paths for first-passage estimators
    seed: int = 0
    eps_floor: float = 1e-8       # positivity floor; activations are counted
    time_cap: float = 1e4         # hard cap on each sampled cycle; capped cycles are counted
    barrier_correction: bool = True
    chunk_size: int = 8192

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DomainError("dt must be positive")


@dataclass(frozen=True)
class PathRecord:
    times: np.ndarray
    states: np.ndarray
    impulse_times: np.ndarray
    pre_impulse_states: np.ndarray
    threshold: float
    restart_level: float
    floor_activations: int

    @property
    def impulse_count(self) -> int:
        return len(self.impulse_times)


@dataclass(frozen=True)
class EstimateReport:
    value: float
    std_error: float
    n: int
    details: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def within(self, target: float, k_std_errors: float = 3.0) -> bool:
        return abs(self.value - target) <= k_std_errors * self.std_error

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n": self.n,
            "details": self.details,
            "flags": list(self.flags),
        }


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _detection_level(model: DiffusionModel, threshold: float, config: SimConfig) -> float:
    if not config.barrier_correction or not math.isfinite(threshold):
        return threshold
    shift = _BARRIER_BETA * float(model.volatility(threshold)) * math.sqrt(config.dt)
    return max(threshold - shift, model.restart_level * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# single recorded path
# ---------------------------------------------------------------------------

def simulate_path(
    model: DiffusionModel,
    threshold: float,
    config: SimConfig,
    *,
    horizon: Optional[float] = None,
) -> PathRecord:
    """One Euler path on [0, horizon] with impulses back to y0 at the threshold.

    ``threshold=inf`` yields the uncontrolled path for the same seed.
    """
    if threshold <= model.restart_level and math.isfinite(threshold):
        raise DomainError("threshold must exceed the restart level")
    horizon = config.horizon if horizon is None else float(horizon)
    dt = config.dt
    n_steps = int(round(horizon / dt))
    drift, vol = model.drift, model.volatility
    y0 = model.restart_level
    detect = _detection_level(model, threshold, config)
    rng = _rng(config.seed, 0)
    normals = rng.standard_normal(n_steps)
    sqdt = math.sqrt(dt)

    states = np.empty(n_steps + 1)
    states[0] = y0
    impulse_times: list[float] = []
    pre_states: list[float] = []
    floor_hits = 0
    x = y0
    for k in range(n_steps):
        x = x + float(drift(x)) * dt + float(vol(x)) * sqdt * float(normals[k])
        if x < config.eps_floor:
            x = config.eps_floor
            floor_hits += 1
        if x >= detect:
            impulse_times.append((k + 1) * dt)
            pre_states.append(x)
            x = y0
        states[k + 1] = x
    return PathRecord(
        times=np.arange(n_steps + 1) * dt,
        states=states,
        impulse_times=np.asarray(impulse_times),
        pre_impulse_states=np.asarray(pre_states),
        threshold=threshold,
        restart_level=y0,
        floor_activations=floor_hits,
    )


# ---------------------------------------------------------------------------
# first-passage cycles: the one engine behind every estimator
# ---------------------------------------------------------------------------

class _Cycles(NamedTuple):
    times: np.ndarray       # passage times; ``time_cap`` for capped cycles
    integrals: np.ndarray   # left-Riemann ``int_0^tau running(X) dt`` (zeros without ``running``)
    pre_states: np.ndarray  # state at the crossing step; the state reached for capped cycles
    capped: int
    floored: int


def _first_passages(
    model: DiffusionModel,
    threshold: float,
    n: int,
    config: SimConfig,
    running: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> _Cycles:
    """``n`` independent cycles from y0 to the detection level of ``threshold``.

    Paths are split into chunks of ``config.chunk_size``; chunk ``c`` draws its
    normals from ``_rng(seed, c)`` in blocks of ``_BLOCK_STEPS`` steps for its
    live paths only, and every operation on a path is elementwise, so a chunk's
    cycles are bit-identical whether it runs alone or stacked with others. All
    chunks step together in one array; paths that cross keep stepping to the
    end of the block, where they are recorded at their first crossing and
    dropped.
    """
    drift, vol = _vector_coefficients(model)
    detect = _detection_level(model, threshold, config)
    dt, sqdt, floor = config.dt, math.sqrt(config.dt), config.eps_floor
    rngs = [_rng(config.seed, c) for c in range(-(-n // config.chunk_size))]
    ids = np.arange(n)
    live = np.bincount(ids // config.chunk_size, minlength=len(rngs))
    x = np.full(n, model.restart_level)
    acc = np.zeros(n)
    times = np.full(n, config.time_cap)
    integrals = np.zeros(n)
    pre_states = np.empty(n)
    floored = 0
    max_steps = int(math.ceil(config.time_cap / dt))
    # one buffer for the stacked block, one for a chunk's draws; both reused
    buffer = np.empty(_BLOCK_STEPS * n)
    draws = np.empty(_BLOCK_STEPS * min(n, config.chunk_size))
    done = 0
    while ids.size and done < max_steps:
        steps = min(_BLOCK_STEPS, max_steps - done)
        path = buffer[: steps * ids.size].reshape(steps, ids.size)
        lo = 0
        for rng, count in zip(rngs, live):
            if count:
                block = draws[: steps * count].reshape(steps, count)
                path[:, lo : lo + count] = rng.standard_normal(out=block)
                lo += count
        path *= sqdt
        start = x
        for row in path:
            row *= vol(x)
            row += drift(x) * dt
            row += x
            x = np.maximum(row, floor)
        # ``path`` now holds the unclamped state after each step
        cols = np.flatnonzero(path.max(axis=0) >= detect)
        last = np.full(ids.size, steps - 1)
        last[cols] = (path[:, cols] >= detect).argmax(axis=0)
        if path.min() < floor:
            taken = np.arange(steps)[:, None] <= last
            floored += int(np.count_nonzero((path < floor) & taken))
        if running is not None:
            left = np.empty_like(path)
            left[0] = start
            np.maximum(path[:-1], floor, out=left[1:])
            gains = running(left.ravel()).reshape(left.shape) * dt
            np.cumsum(gains, axis=0, out=gains)
            acc = acc + gains[last, np.arange(ids.size)]
        if cols.size:
            out = ids[cols]
            times[out] = (done + last[cols] + 1) * dt
            integrals[out] = acc[cols]
            pre_states[out] = path[last[cols], cols]
            keep = np.ones(ids.size, dtype=bool)
            keep[cols] = False
            ids, x, acc = ids[keep], x[keep], acc[keep]
            live = np.bincount(ids // config.chunk_size, minlength=len(rngs))
        done += steps
    integrals[ids] = acc
    pre_states[ids] = x
    return _Cycles(times, integrals, pre_states, int(ids.size), floored)


def _check_threshold(model: DiffusionModel, threshold: float) -> None:
    if threshold <= model.restart_level:
        raise DomainError("threshold must exceed the restart level")


def _cap_flags(capped: int, n: int, what: str) -> tuple[str, ...]:
    if capped > 0.001 * n:
        return (f"more than 0.1% of {what} hit the time cap; estimate is biased low",)
    return ()


def _sample_report(samples: np.ndarray, cycles: _Cycles, config: SimConfig) -> EstimateReport:
    n = len(samples)
    return EstimateReport(
        value=float(np.mean(samples)),
        std_error=float(np.std(samples, ddof=1) / math.sqrt(n)),
        n=n,
        details={"capped": cycles.capped, "floor_activations": cycles.floored, "dt": config.dt},
        flags=_cap_flags(cycles.capped, n, "paths"),
    )


def estimate_hitting_time(
    model: DiffusionModel,
    threshold: float,
    config: SimConfig,
    *,
    n_paths: Optional[int] = None,
) -> EstimateReport:
    """Sample mean and standard error of the first passage time from y0 to the threshold."""
    _check_threshold(model, threshold)
    n = config.n_paths if n_paths is None else int(n_paths)
    cycles = _first_passages(model, threshold, n, config)
    return _sample_report(cycles.times, cycles, config)


def estimate_running_cost(
    model: DiffusionModel,
    h: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    config: SimConfig,
    *,
    n_paths: Optional[int] = None,
) -> EstimateReport:
    """Sample mean of ``int_0^{tau_y} h(X_s) ds`` over first passages from y0."""
    _check_threshold(model, threshold)
    n = config.n_paths if n_paths is None else int(n_paths)
    cycles = _first_passages(model, threshold, n, config, running=h)
    return _sample_report(cycles.integrals, cycles, config)


# ---------------------------------------------------------------------------
# long-run averages as renewal-reward ratios
# ---------------------------------------------------------------------------

def _long_run_cycles(
    model: DiffusionModel,
    threshold: float,
    config: SimConfig,
    running: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> _Cycles:
    """``ceil(horizon / xi(y))`` cycles: on average they span the configured horizon."""
    _check_threshold(model, threshold)
    xi_y = float(get_evaluator(model).xi(threshold))
    n = max(2, int(math.ceil(config.horizon / xi_y)))
    return _first_passages(model, threshold, n, config, running)


def _ratio_report(rewards: np.ndarray, cycles: _Cycles, config: SimConfig) -> EstimateReport:
    """``sum(rewards) / sum(times)`` with its delta-method standard error."""
    n = len(rewards)
    mean_time = float(np.mean(cycles.times))
    value = float(np.mean(rewards)) / mean_time
    residuals = rewards - value * cycles.times
    details = {
        # ``chunks * (burn_in + window) / dt`` counts the Euler steps taken
        "chunks": n,
        "burn_in": 0.0,
        "window": mean_time,
        "dt": config.dt,
        "capped": cycles.capped,
        "floor_activations": cycles.floored,
    }
    return EstimateReport(
        value=value,
        std_error=float(np.std(residuals, ddof=1) / (math.sqrt(n) * mean_time)),
        n=n,
        details=details,
        flags=_cap_flags(cycles.capped, n, "cycles"),
    )


def estimate_stationary_mean(
    model: DiffusionModel, threshold: float, config: SimConfig
) -> EstimateReport:
    """Long-run time average of the controlled state: ``E[int_0^tau X] / E[tau]``."""
    cycles = _long_run_cycles(model, threshold, config, running=lambda x: x)
    return _ratio_report(cycles.integrals, cycles, config)


def estimate_value(
    model: DiffusionModel,
    payoff: PayoffSpec,
    threshold: float,
    config: SimConfig,
    *,
    z: Optional[float] = None,
) -> EstimateReport:
    """Long-run average reward rate of the threshold strategy: ``(E[gamma] - K) / E[tau]``.

    ``z`` fixes the interaction level; ``z=None`` computes it analytically
    from the threshold itself (the self-consistent value J(R(y), R(y))).
    A capped cycle is harvested at the state it reached.
    """
    _check_threshold(model, threshold)
    if z is None:
        from .meanfield import interaction_level, resolve_payoff

        if payoff.domain is None:
            payoff = resolve_payoff(model, payoff)
        z = float(np.clip(interaction_level(model, payoff, threshold), *payoff.domain))
    cycles = _long_run_cycles(model, threshold, config)
    rewards = float(payoff.phi(z)) * (cycles.pre_states - model.restart_level) - payoff.cost
    report = _ratio_report(rewards, cycles, config)
    report.details["interaction_level"] = z
    return report
