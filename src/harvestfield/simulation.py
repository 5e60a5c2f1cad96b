"""Euler-Maruyama Monte-Carlo engine with threshold impulses.

Paths step on a fixed dt grid; when the state reaches the threshold it is
reset to ``y0`` and the pre-impulse value is recorded. Crossings are checked
at grid times only, which by itself overestimates hitting times by O(sqrt(dt))
because excursions inside a step are missed. The engine therefore detects
crossings against a barrier lowered by the standard continuity correction
``0.5826 * sigma(y) * sqrt(dt)``; the recorded pre-impulse state then also has
mean ``y`` up to O(dt).

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
and results are written at each cycle's own index. The chunks are dealt
round-robin into one group per usable CPU (fewer when a group would get
fewer than 8192 paths), and each group steps on its own thread (numpy
releases the interpreter lock while it draws and while it works on whole
rows), so the output does not depend on the CPU count. Within a group all
chunks step together in one array until a chunk is down to a few live paths;
it then finishes in plain floats, where a step costs far less than a numpy
row. The finisher draws the same blocks and does the same float operations
in the same order, so it changes no result where the scalar and array
coefficients agree to the last bit (they do for the logistic model), and
since a chunk leaves on its own live count, stacking changes nothing for any
model. On 2 vCPUs, 1e5 hitting-time cycles to y = 5.13 (13 chunks) take
7.9-8.1 s against 13.6-14.0 s on one thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .diffusion import DiffusionModel, _calculus, _vector_coefficients
from .errors import DomainError
from .payoff import PayoffSpec

__all__ = [
    "SimConfig",
    "PathRecord",
    "EstimateReport",
    "simulate_path",
    "estimate_hitting_time",
    "estimate_value",
    "estimate_stationary_mean",
]

# continuity correction for discretely monitored barriers: -zeta(1/2)/sqrt(2 pi)
_BARRIER_BETA = 0.5825971579390107

# Euler steps per block of normals; finished paths are dropped at block ends
_BLOCK_STEPS = 16

# a chunk with this many live paths or fewer leaves the stacked array at a block
# end and finishes in plain floats, where a step costs far less than a numpy row
_TAIL_PATHS = 24

# chunks step in one group per usable CPU, each on a thread of its own, but in
# no more groups than leave this many paths to each: on shorter rows, handing
# the interpreter lock back and forth around every numpy call costs more than
# a second CPU gains (on 2 vCPUs, two groups took 1.1-1.4x as long as one for
# 1709 or 8192 paths in 512- to 4096-path chunks, and 0.7-0.8x for 24576)
_GROUP_PATHS = 8192

_EPS_FLOOR = 1e-8   # positivity floor of every Euler step; activations are counted
_TIME_CAP = 1e4     # hard cap on each sampled cycle; capped cycles are counted
_MAX_PATH_STEPS = 10**7   # bounds on the work of one call, checked before anything is allocated
_MAX_CYCLES = 10**6


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 1e4     # long-run estimators average ceil(horizon / xi(y)) cycles
    seed: int = 0
    chunk_size: int = 8192   # paths per chunk; each chunk draws from its own generator

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("horizon", self.horizon)):
            if not 0.0 < value < math.inf:   # also rejects NaN
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.chunk_size < 1:
            raise DomainError(f"chunk_size must be at least 1, got {self.chunk_size}")


@dataclass(frozen=True)
class PathRecord:
    times: np.ndarray
    states: np.ndarray
    impulse_times: np.ndarray
    pre_impulse_states: np.ndarray
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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _detection_level(model: DiffusionModel, threshold: float, config: SimConfig) -> float:
    if not math.isfinite(threshold):
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
    horizon: float,
) -> PathRecord:
    """One Euler path on [0, horizon] with impulses back to y0 at the threshold.

    ``threshold=inf`` yields the uncontrolled path for the same seed.
    """
    _check_threshold(model, threshold)
    dt = config.dt
    steps = horizon / dt
    if not 0.0 <= steps <= _MAX_PATH_STEPS:   # also rejects NaN
        raise DomainError(f"horizon {horizon} takes {steps:.4g} steps; at most {_MAX_PATH_STEPS} allowed")
    n_steps = int(round(steps))
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
        if x < _EPS_FLOOR:
            x = _EPS_FLOOR
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
        floor_activations=floor_hits,
    )


# ---------------------------------------------------------------------------
# first-passage cycles: the one engine behind every estimator
# ---------------------------------------------------------------------------

class _Cycles(NamedTuple):
    times: np.ndarray       # passage times; ``_TIME_CAP`` for capped cycles
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
    cycles are bit-identical whether it runs alone or stacked with others.
    The chunks are dealt round-robin into one group per usable CPU, or fewer
    so that each group has ``_GROUP_PATHS`` paths (chunk ``c`` to group
    ``c % groups``), and each group steps on its own thread with
    :func:`_step_group`; as no chunk's cycles depend on its company, the result
    does not depend on the CPU count either.
    """
    if not 1 <= n <= _MAX_CYCLES:   # also rejects NaN
        raise DomainError(f"{n:.4g} cycles requested; at least 1 and at most {_MAX_CYCLES} allowed")
    size = min(config.chunk_size, n)   # a chunk of n paths or more is the one chunk
    rngs = [_rng(config.seed, c) for c in range(-(-n // size))]
    groups = max(1, min(_usable_cpus(), len(rngs), n // _GROUP_PATHS))
    ids = np.arange(n)
    out = (np.full(n, _TIME_CAP), np.zeros(n), np.empty(n))   # times, integrals, pre-states
    coefficients = _vector_coefficients(model)
    detect = _detection_level(model, threshold, config)

    def step(group: int) -> tuple[int, int]:
        own = ids[ids // size % groups == group]
        return _step_group(model, coefficients, own, size, rngs, detect, config, running, out)

    counts = _on_threads(step, groups)
    floored = sum(f for f, _ in counts)
    capped = sum(cap for _, cap in counts)
    return _Cycles(*out, capped, floored)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _on_threads(task: Callable[[int], object], count: int) -> list:
    """``[task(0), ..., task(count - 1)]``: task 0 on this thread, each other on a thread of its own.

    Every thread runs in a copy of the caller's context, so ``np.errstate``
    and other context variables carry over. All threads are joined before
    this returns or raises; an error of the calling thread's own task comes
    first, then that of the lowest failing task.
    """
    results: list = [None] * count
    errors: list = [None] * count

    def run(i: int) -> None:
        try:
            results[i] = task(i)
        except BaseException as exc:   # re-raised on the calling thread
            errors[i] = exc

    started = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            thread.start()
            started.append(thread)
        results[0] = task(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _step_group(
    model: DiffusionModel,
    coefficients: tuple[Callable, Callable],
    ids: np.ndarray,
    size: int,
    rngs: list[np.random.Generator],
    detect: float,
    config: SimConfig,
    running: Optional[Callable[[np.ndarray], np.ndarray]],
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, int]:
    """Step the cycles ``ids`` (whole chunks of ``size``, in chunk order) to the end.

    All the group's chunks step together in one array; paths that cross keep
    stepping to the end of the block, where they are recorded at their first
    crossing and dropped. A chunk down to ``_TAIL_PATHS`` live paths at a
    block end leaves the array for :func:`_finish_chunk`, which draws and
    steps exactly as the array would; since the switch depends on the chunk's
    own live count only, stacking still changes nothing. Results go to
    ``out`` (times, integrals, pre-states) at ``ids``; returns the clamp count
    and the number of capped paths.
    """
    times, integrals, pre_states = out
    drift, vol = coefficients
    dt, sqdt, floor = config.dt, math.sqrt(config.dt), _EPS_FLOOR
    live = np.bincount(ids // size, minlength=len(rngs))
    x = np.full(ids.size, model.restart_level)
    acc = np.zeros(ids.size)
    floored = capped = 0
    max_steps = int(math.ceil(_TIME_CAP / dt))
    # one buffer for the stacked block, one for a chunk's draws; both reused
    buffer = np.empty(_BLOCK_STEPS * ids.size)
    draws = np.empty(_BLOCK_STEPS * size)
    done = 0
    while ids.size and done < max_steps:
        tail = (live > 0) & (live <= _TAIL_PATHS)
        if tail.any():
            chunk = ids // size
            for c in np.flatnonzero(tail):
                sel = chunk == c
                f, cap = _finish_chunk(
                    model, rngs[c], ids[sel], x[sel], acc[sel], done, max_steps,
                    detect, config, running, out,
                )
                floored += f
                capped += cap
            keep = ~tail[chunk]
            ids, x, acc = ids[keep], x[keep], acc[keep]
            live[tail] = 0
            continue   # every chunk may have left
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
            acc = acc + _running_gains(running, left, dt)[last, np.arange(ids.size)]
        if cols.size:
            crossed = ids[cols]
            times[crossed] = (done + last[cols] + 1) * dt
            integrals[crossed] = acc[cols]
            pre_states[crossed] = path[last[cols], cols]
            keep = np.ones(ids.size, dtype=bool)
            keep[cols] = False
            ids, x, acc = ids[keep], x[keep], acc[keep]
            live = np.bincount(ids // size, minlength=len(rngs))
        done += steps
    integrals[ids] = acc
    pre_states[ids] = x
    return floored, capped + int(ids.size)


def _running_gains(running: Callable, left: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative ``running(X) dt`` down each column of a block of left states."""
    gains = running(left.ravel()).reshape(left.shape) * dt
    return np.cumsum(gains, axis=0, out=gains)


def _finish_chunk(
    model: DiffusionModel,
    rng: np.random.Generator,
    ids: np.ndarray,
    x: np.ndarray,
    acc: np.ndarray,
    done: int,
    max_steps: int,
    detect: float,
    config: SimConfig,
    running: Optional[Callable[[np.ndarray], np.ndarray]],
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, int]:
    """Step one chunk's last live paths in plain floats from step ``done`` on.

    The stacked engine's twin, bit for bit: the same ``(steps, live)`` blocks
    from the chunk's generator with the live count shrinking only at block
    ends, the same float operations in the same order, the first unclamped
    state at or above ``detect`` recorded, each clamp at ``_EPS_FLOOR`` counted
    up to the crossing, and the running integrand called once per block on the
    matrix of left states. Results go to ``out`` (times, integrals, pre-states)
    at ``ids``; returns the clamp count and the number of capped paths.
    """
    times, integrals, pre_states = out
    drift, vol = model.drift, model.volatility
    dt, sqdt, floor = config.dt, math.sqrt(config.dt), _EPS_FLOOR
    ids, xs, accs = ids.tolist(), x.tolist(), acc.tolist()
    floored = 0
    while ids and done < max_steps:
        steps = min(_BLOCK_STEPS, max_steps - done)
        normals = (rng.standard_normal((steps, len(ids))) * sqdt).T.tolist()
        lasts, crossed, stay, lefts = [], [], [], []
        for j, (row, y) in enumerate(zip(normals, xs)):
            left = [y]
            for last, v in enumerate(row):
                v = v * vol(y) + drift(y) * dt + y
                if v < floor:
                    floored += 1
                    y = floor
                else:
                    y = v
                if v >= detect:
                    crossed.append((j, v))
                    break
                left.append(y)
            else:
                stay.append(j)
            xs[j] = y
            lasts.append(last)
            if running is not None:
                # rows past the crossing are never summed; repeat a state they can take
                lefts.append(left[:steps] + left[-1:] * (steps - len(left)))
        if running is not None:
            gains = _running_gains(running, np.array(lefts).T, dt)
            accs = (np.array(accs) + gains[lasts, range(len(ids))]).tolist()
        for j, v in crossed:
            times[ids[j]] = (done + lasts[j] + 1) * dt
            integrals[ids[j]] = accs[j]
            pre_states[ids[j]] = v
        ids, xs, accs = [ids[j] for j in stay], [xs[j] for j in stay], [accs[j] for j in stay]
        done += steps
    integrals[ids] = accs
    pre_states[ids] = xs
    return floored, len(ids)


def _check_threshold(model: DiffusionModel, threshold: float) -> None:
    if not threshold > model.restart_level:   # also rejects NaN; inf is the uncontrolled path
        raise DomainError(f"threshold must exceed the restart level, got {threshold}")


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
    n_paths: int = 100_000,
) -> EstimateReport:
    """Sample mean and standard error of the first passage time from y0 to the threshold."""
    _check_threshold(model, threshold)
    cycles = _first_passages(model, threshold, int(n_paths), config)
    return _sample_report(cycles.times, cycles, config)


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
    xi_y = float(_calculus(model).xi(threshold))
    n = config.horizon / xi_y   # inf past double range, which the cycle bound refuses
    n = max(2, math.ceil(n)) if n < math.inf else n
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
