"""Euler-Maruyama Monte-Carlo engine with threshold impulses.

Paths step on a fixed dt grid; when the state reaches the threshold it is
reset to ``y0`` and the pre-impulse value is recorded. Crossings are checked
at grid times only, which by itself overestimates hitting times by O(sqrt(dt))
because excursions inside a step are missed. The engine therefore detects
crossings against a barrier lowered by the standard continuity correction
``0.5826 * sigma(y) * sqrt(dt)``; the recorded pre-impulse state then also has
mean ``y`` up to O(dt). The correction can be disabled per config.

Estimators are deterministic for a fixed config: work is split into chunks,
each chunk draws from its own generator seeded by ``(seed, chunk_index)``,
and results are aggregated in index order, so any parallel schedule would
produce identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 1e4          # total averaged time for long-run estimators
    n_paths: int = 100_000        # independent paths for first-passage estimators
    seed: int = 0
    eps_floor: float = 1e-8       # positivity floor; activations are counted
    time_cap: float = 1e4         # hard per-path cap for first-passage sampling
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
    cumulative_reward: Optional[float] = None

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
    payoff: Optional[PayoffSpec] = None,
    z: Optional[float] = None,
) -> PathRecord:
    """One Euler path on [0, horizon] with impulses back to y0 at the threshold.

    ``threshold=inf`` yields the uncontrolled path for the same seed. When a
    payoff (and interaction level z) is supplied the cumulative impulse reward
    is accumulated alongside.
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
    reward = 0.0
    x = y0
    for k in range(n_steps):
        x = x + float(drift(x)) * dt + float(vol(x)) * sqdt * float(normals[k])
        if x < config.eps_floor:
            x = config.eps_floor
            floor_hits += 1
        if x >= detect:
            impulse_times.append((k + 1) * dt)
            pre_states.append(x)
            if payoff is not None and z is not None:
                reward += payoff.gamma(x, z, y0) - payoff.cost
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
        cumulative_reward=reward if payoff is not None and z is not None else None,
    )


# ---------------------------------------------------------------------------
# first-passage sampling
# ---------------------------------------------------------------------------

def _first_passage_chunk(
    model: DiffusionModel,
    detect: float,
    n: int,
    config: SimConfig,
    stream: int,
    running: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """First passages from y0 to the detection level for n paths.

    Returns ``(taus, costs, capped, floored)`` where ``costs`` accumulates
    ``int_0^tau running(X) dt`` (zeros when ``running`` is None).
    """
    drift, vol = _vector_coefficients(model)
    rng = _rng(config.seed, stream)
    dt, sqdt = config.dt, math.sqrt(config.dt)
    x = np.full(n, model.restart_level)
    taus = np.full(n, np.nan)
    costs = np.zeros(n)
    acc = np.zeros(n)
    alive = np.arange(n)
    t = 0.0
    capped = 0
    floored = 0
    max_steps = int(math.ceil(config.time_cap / dt))
    for _ in range(max_steps):
        if running is not None:
            acc += running(x) * dt
        z = rng.standard_normal(len(alive))
        x = x + drift(x) * dt + vol(x) * sqdt * z
        low = x < config.eps_floor
        if np.any(low):
            floored += int(np.count_nonzero(low))
            x[low] = config.eps_floor
        t += dt
        hit = x >= detect
        if np.any(hit):
            taus[alive[hit]] = t
            costs[alive[hit]] = acc[hit]
            keep = ~hit
            alive = alive[keep]
            x = x[keep]
            acc = acc[keep]
            if len(alive) == 0:
                return taus, costs, capped, floored
    capped = len(alive)
    taus[alive] = config.time_cap
    costs[alive] = acc
    return taus, costs, capped, floored


def estimate_hitting_time(
    model: DiffusionModel,
    threshold: float,
    config: SimConfig,
    *,
    n_paths: Optional[int] = None,
) -> EstimateReport:
    """Sample mean and standard error of the first passage time from y0 to the threshold."""
    if threshold <= model.restart_level:
        raise DomainError("threshold must exceed the restart level")
    n = config.n_paths if n_paths is None else int(n_paths)
    detect = _detection_level(model, threshold, config)
    taus = np.empty(n)
    capped = 0
    floored = 0
    start = 0
    stream = 0
    while start < n:
        count = min(config.chunk_size, n - start)
        chunk, _, c_capped, c_floored = _first_passage_chunk(model, detect, count, config, stream)
        taus[start : start + count] = chunk
        capped += c_capped
        floored += c_floored
        start += count
        stream += 1
    mean = float(np.mean(taus))
    se = float(np.std(taus, ddof=1) / math.sqrt(n))
    flags: tuple[str, ...] = ()
    if capped > 0.001 * n:
        flags = ("more than 0.1% of paths hit the time cap; estimate is biased low",)
    return EstimateReport(
        value=mean,
        std_error=se,
        n=n,
        details={"capped": capped, "floor_activations": floored, "dt": config.dt},
        flags=flags,
    )


def estimate_running_cost(
    model: DiffusionModel,
    h: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    config: SimConfig,
    *,
    n_paths: Optional[int] = None,
) -> EstimateReport:
    """Sample mean of ``int_0^{tau_y} h(X_s) ds`` over first passages from y0."""
    if threshold <= model.restart_level:
        raise DomainError("threshold must exceed the restart level")
    n = config.n_paths if n_paths is None else int(n_paths)
    detect = _detection_level(model, threshold, config)
    costs = np.empty(n)
    capped = 0
    start = 0
    stream = 0
    while start < n:
        count = min(config.chunk_size, n - start)
        _, chunk, c_capped, _ = _first_passage_chunk(
            model, detect, count, config, stream, running=h
        )
        costs[start : start + count] = chunk
        capped += c_capped
        start += count
        stream += 1
    flags: tuple[str, ...] = ()
    if capped > 0.001 * n:
        flags = ("more than 0.1% of paths hit the time cap; estimate is biased low",)
    return EstimateReport(
        value=float(np.mean(costs)),
        std_error=float(np.std(costs, ddof=1) / math.sqrt(n)),
        n=n,
        details={"capped": capped, "dt": config.dt},
        flags=flags,
    )


# ---------------------------------------------------------------------------
# long-run averages over regenerative chunks
# ---------------------------------------------------------------------------

def _long_run_chunks(
    model: DiffusionModel,
    threshold: float,
    config: SimConfig,
    per_impulse: Optional[Callable[[np.ndarray], np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Parallel chunks of time averages after burn-in.

    Returns (state_time_averages, impulse_reward_rates, details); the reward
    rate entry is only meaningful when ``per_impulse`` is given (it maps an
    array of pre-impulse states to per-impulse rewards).
    """
    ev = get_evaluator(model)
    xi_y = float(ev.xi(threshold))
    burn = 10.0 * xi_y
    window = max(100.0, 2.0 * burn)
    n_chunks = max(8, int(round(config.horizon / window)))
    window = config.horizon / n_chunks
    drift, vol = _vector_coefficients(model)
    detect = _detection_level(model, threshold, config)
    dt, sqdt = config.dt, math.sqrt(config.dt)
    y0 = model.restart_level
    burn_steps = int(round(burn / dt))
    window_steps = int(round(window / dt))

    x = np.full(n_chunks, y0)
    rng = _rng(config.seed, 1)
    occupancy = np.zeros(n_chunks)
    reward = np.zeros(n_chunks)
    floored = 0
    for k in range(burn_steps + window_steps):
        z = rng.standard_normal(n_chunks)
        x = x + drift(x) * dt + vol(x) * sqdt * z
        low = x < config.eps_floor
        if np.any(low):
            floored += int(np.count_nonzero(low))
            x[low] = config.eps_floor
        hit = x >= detect
        in_window = k >= burn_steps
        if np.any(hit):
            if in_window and per_impulse is not None:
                reward[hit] += per_impulse(x[hit])
            x[hit] = y0
        if in_window:
            occupancy += x * dt
    details = {
        "chunks": n_chunks,
        "window": window,
        "burn_in": burn,
        "dt": dt,
        "floor_activations": floored,
    }
    return occupancy / window, reward / window, details


def estimate_stationary_mean(
    model: DiffusionModel, threshold: float, config: SimConfig
) -> EstimateReport:
    """Long-run time average of the controlled state after a 10*xi(y) burn-in."""
    if threshold <= model.restart_level:
        raise DomainError("threshold must exceed the restart level")
    means, _, details = _long_run_chunks(model, threshold, config, None)
    value = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return EstimateReport(value=value, std_error=se, n=len(means), details=details)


def estimate_value(
    model: DiffusionModel,
    payoff: PayoffSpec,
    threshold: float,
    config: SimConfig,
    *,
    z: Optional[float] = None,
) -> EstimateReport:
    """Long-run average reward rate of the threshold strategy.

    ``z`` fixes the interaction level; ``z=None`` computes it analytically
    from the threshold itself (the self-consistent value J(R(y), R(y))).
    """
    if threshold <= model.restart_level:
        raise DomainError("threshold must exceed the restart level")
    if z is None:
        from .meanfield import interaction_level, resolve_payoff

        if payoff.domain is None:
            payoff = resolve_payoff(model, payoff)
        z = float(np.clip(interaction_level(model, payoff, threshold), *payoff.domain))
    price = float(payoff.phi(z))
    y0 = model.restart_level

    def per_impulse(pre_states: np.ndarray) -> np.ndarray:
        return price * (pre_states - y0) - payoff.cost

    _, rates, details = _long_run_chunks(model, threshold, config, per_impulse)
    value = float(np.mean(rates))
    se = float(np.std(rates, ddof=1) / math.sqrt(len(rates)))
    details["interaction_level"] = z
    return EstimateReport(value=value, std_error=se, n=len(rates), details=details)
