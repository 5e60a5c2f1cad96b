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
it then finishes on the same blocks in the plain-float loop of
``simulate_path``, where a step costs far less than a numpy row.

A logistic model steps as ``((n beta sqrt(dt) + (1 + g dt)) - b dt y) y``,
the Euler-Maruyama step in multiplicative form: a row takes four numpy calls
and the plain-float loop calls no coefficient. Any other model steps as
``(n sqrt(dt)) sigma(y) + mu(y) dt + y``. Every step is clamped at
``1e-8 y0`` (the clamps are counted) and detects a crossing on the unclamped
state. Floats and arrays evaluate the same expression in the same order, so
the finisher changes no result for a logistic model, nor for any other whose
scalar and array coefficients agree to the last bit (every parsed expression
does); since a chunk leaves on its own live count, stacking changes nothing
for any model. On 2 vCPUs, 1e5 hitting-time cycles to y = 5.13 (13 chunks)
take 5.9-6.4 s against 10.5-10.8 s on one thread.

When all chunks step in one group (fewer than two groups' worth of paths,
as for the long-run estimators of the bundled scenarios) and a second CPU is
usable, a worker thread draws each chunk's normals ahead, in its generator's
order, into two buffers per chunk that the stepping thread allocated, and
the stepping thread copies each block out of them. The buffers hold 2**16
normals each, or one block of a whole chunk if that is more, and 2**20 in
all (8 MB); a group that would need more draws inline, as do groups on a
host with one usable CPU and every group of a run with two or more. A
generator's normal stream does not depend on how many normals each call
draws, so every block, and every estimate, keeps its bits.
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

# when the chunks step in one group and another CPU is free, a worker thread
# draws each chunk's normals ahead into two buffers of this many, or of one
# block of a whole chunk if that is more (2 x 2**16 normals is 1 MB a chunk)
_AHEAD_NORMALS = 2**16
# all look-ahead buffers of a run hold at most this many normals (8 MB); a
# group that would need more draws inline. Smaller buffers for more chunks did
# not pay: on 2 vCPUs, 24 chunks of 512 paths with 21845 normals a buffer took
# as long as inline draws, and 300 chunks of 16 with 1747 took 1.15x as long
_AHEAD_CAP = 2**20

_EPS_FLOOR = 1e-8   # positivity floor of every Euler step, times y0; activations are counted
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


class _Step(NamedTuple):
    """A model's Euler step at ``dt``, as both engines take it.

    A logistic model steps in multiplicative form, ``((n beta sqrt(dt) +
    (1 + g dt)) - b dt y) y``, without calling its coefficients: ``scale`` is
    ``beta sqrt(dt)``, ``shift`` is ``1 + g dt`` and ``crowding`` is ``b dt``.
    Any other model steps as ``(n sqrt(dt)) sigma(y) + mu(y) dt + y`` with
    ``scale = sqrt(dt)`` and no ``shift``. Every step is clamped at ``floor``.
    """

    dt: float
    floor: float
    scale: float                     # multiplies each normal
    shift: Optional[float] = None    # added to each scaled normal; None for the generic step
    crowding: float = 0.0
    drift: Optional[Callable] = None  # the generic step's scalar coefficients
    vol: Optional[Callable] = None


def _step_of(model: DiffusionModel, dt: float) -> _Step:
    floor = _EPS_FLOOR * model.restart_level
    p = model.logistic
    if p is None:
        return _Step(dt, floor, math.sqrt(dt), drift=model.drift, vol=model.volatility)
    return _Step(dt, floor, p.beta * math.sqrt(dt), 1.0 + p.growth * dt, p.crowding * dt)


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
    y0 = model.restart_level
    detect = _detection_level(model, threshold, config)
    step = _step_of(model, dt)
    normals = iter((_rng(config.seed, 0).standard_normal(n_steps) * step.scale).tolist())
    states, impulse_times, pre_states, floor_hits = [y0], [], [], 0
    while True:
        crossing, clamps = _euler_steps(step, normals, detect, states)
        floor_hits += clamps
        if crossing is None:
            break
        impulse_times.append(len(states) * dt)
        pre_states.append(crossing)
        states.append(y0)
    return PathRecord(
        times=np.arange(n_steps + 1) * dt,
        states=np.asarray(states, dtype=float),
        impulse_times=np.asarray(impulse_times),
        pre_impulse_states=np.asarray(pre_states),
        floor_activations=floor_hits,
    )


def _euler_steps(step: _Step, normals, detect, states) -> tuple[Optional[float], int]:
    """Euler steps in plain floats from ``states[-1]`` over ``normals`` (times ``step.scale``).

    Each step is ``step``'s expression, evaluated in the order the stacked
    engine evaluates it on rows, so both round alike: ``((n + shift) -
    crowding y) y`` for a logistic model, else ``n sigma(y) + mu(y) dt + y``.
    It is clamped at ``step.floor``, and each state short of the crossing is
    appended to ``states``. Returns the first unclamped state at or above
    ``detect`` (or ``None``) and the clamp count; an iterator of normals is
    left just past the crossing step.
    """
    y, floored, append, floor = states[-1], 0, states.append, step.floor
    if step.shift is None:
        drift, vol, dt = step.drift, step.vol, step.dt
        for v in normals:
            v = v * vol(y) + drift(y) * dt + y
            if v < floor:
                floored += 1
                y = floor
            else:
                y = v
            if v >= detect:
                return v, floored
            append(y)
        return None, floored
    shift, crowding = step.shift, step.crowding
    for v in normals:
        v = (v + shift - crowding * y) * y
        if v < floor:
            floored += 1
            y = floor
        else:
            y = v
        if v >= detect:
            return v, floored
        append(y)
    return None, floored


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

    Chunk ``c`` of ``config.chunk_size`` paths draws from ``_rng(seed, c)``
    and goes to group ``c % groups``: one group per usable CPU, or fewer so
    that each has ``_GROUP_PATHS`` paths. Each group steps on its own thread
    with :func:`_step_group`. A lone group on a host with another usable CPU
    has its normals drawn ahead by :class:`_DrawAhead`, within ``_AHEAD_CAP``.
    """
    if not 1 <= n <= _MAX_CYCLES:   # also rejects NaN
        raise DomainError(f"{n:.4g} cycles requested; at least 1 and at most {_MAX_CYCLES} allowed")
    size = min(config.chunk_size, n)   # a chunk of n paths or more is the one chunk
    rngs = [_rng(config.seed, c) for c in range(-(-n // size))]
    cpus = _usable_cpus()
    groups = max(1, min(cpus, len(rngs), n // _GROUP_PATHS))
    ids = np.arange(n)
    out = (np.full(n, _TIME_CAP), np.zeros(n), np.empty(n))   # times, integrals, pre-states
    step = _step_of(model, config.dt)
    coefficients = _vector_coefficients(model) if step.shift is None else None
    detect = _detection_level(model, threshold, config)
    ahead = _ahead_length(size, len(rngs)) if groups == 1 and cpus > 1 else 0

    def stepped(group: int) -> tuple[int, int]:
        own = ids[ids // size % groups == group]
        with (_DrawAhead(rngs, size, ahead) if ahead else _Draws(rngs, size)) as normals:
            return _step_group(model, step, coefficients, own, size, normals, detect, running, out)

    counts = _on_threads(stepped, groups)
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


def _ahead_length(size: int, chunks: int) -> int:
    """Normals in each look-ahead buffer of ``chunks`` chunks of ``size``; 0 to draw inline."""
    length = max(_AHEAD_NORMALS, _BLOCK_STEPS * size)
    return length if 2 * chunks * length <= _AHEAD_CAP else 0


class _Draws:
    """Each chunk's normals, drawn from its generator when they are asked for."""

    def __init__(self, rngs: list[np.random.Generator], size: int):
        self._rngs = rngs
        self._block = np.empty(_BLOCK_STEPS * size)   # reused for every block

    def __call__(self, chunk: int, steps: int, count: int) -> np.ndarray:
        """The chunk's next ``steps * count`` normals as rows of ``count``; valid until the next call."""
        return self._rngs[chunk].standard_normal(out=self._block[: steps * count].reshape(steps, count))

    def __enter__(self) -> "_Draws":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _DrawAhead(_Draws):
    """Each chunk's normals, drawn ahead on a worker thread.

    Every chunk has two buffers of ``length`` normals, allocated here on the
    stepping thread; the worker fills them in turn with the chunk's next
    normals, and a buffer goes back to the worker once it has been read to
    its end. A generator's normal stream does not depend on how many are
    drawn at a time, so every block holds the bits that :class:`_Draws`
    gives it. ``length`` holds at least one block of a whole chunk, so a
    block spans at most two buffers. Leaving the ``with`` block stops the
    worker and joins it; an error of the worker is raised on the stepping
    thread.
    """

    def __init__(self, rngs: list[np.random.Generator], size: int, length: int):
        import queue   # here, so that importing this module does not load it

        super().__init__(rngs, size)
        self._buffers = [(np.empty(length), np.empty(length)) for _ in rngs]
        self._filled = [(threading.Event(), threading.Event()) for _ in rngs]
        self._reading = [0] * len(rngs)   # the buffer each chunk reads
        self._read = [0] * len(rngs)      # normals read from it
        self._requests = queue.SimpleQueue()   # (chunk, buffer) to fill, in turn; None stops
        for buffer in (0, 1):
            for chunk in range(len(rngs)):
                self._requests.put((chunk, buffer))
        self._stopping = False
        self._error: Optional[BaseException] = None
        self._worker = threading.Thread(target=self._draw, name="draw-ahead", daemon=True)

    def _draw(self) -> None:
        try:
            while (request := self._requests.get()) is not None and not self._stopping:
                chunk, buffer = request
                self._rngs[chunk].standard_normal(out=self._buffers[chunk][buffer])
                self._filled[chunk][buffer].set()
        except BaseException as exc:   # raised on the stepping thread when it waits
            self._error = exc
            for events in self._filled:
                for event in events:
                    event.set()

    def _current(self, chunk: int) -> np.ndarray:
        """The buffer the chunk reads, once the worker has filled it."""
        buffer = self._reading[chunk]
        self._filled[chunk][buffer].wait()
        if self._error is not None:
            raise self._error
        return self._buffers[chunk][buffer]

    def _release(self, chunk: int) -> None:
        """Hand the buffer the chunk reads back to the worker; read the other."""
        buffer = self._reading[chunk]
        self._filled[chunk][buffer].clear()
        self._requests.put((chunk, buffer))
        self._reading[chunk] = 1 - buffer
        self._read[chunk] = 0

    def __call__(self, chunk: int, steps: int, count: int) -> np.ndarray:
        need, buffer = steps * count, self._current(chunk)
        if self._read[chunk] == len(buffer):   # read to its end by the last call
            self._release(chunk)
            buffer = self._current(chunk)
        lo = self._read[chunk]
        if lo + need <= len(buffer):
            self._read[chunk] = lo + need
            return buffer[lo : lo + need].reshape(steps, count)
        head = len(buffer) - lo
        block = self._block[:need]
        block[:head] = buffer[lo:]
        self._release(chunk)
        block[head:] = self._current(chunk)[: need - head]
        self._read[chunk] = need - head
        return block.reshape(steps, count)

    def __enter__(self) -> "_DrawAhead":
        self._worker.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopping = True
        self._requests.put(None)
        self._worker.join()


def _step_group(
    model: DiffusionModel,
    step: _Step,
    coefficients: Optional[tuple[Callable, Callable]],
    ids: np.ndarray,
    size: int,
    normals: _Draws,
    detect: float,
    running: Optional[Callable[[np.ndarray], np.ndarray]],
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, int]:
    """Step the cycles ``ids`` (whole chunks of ``size``, in chunk order) to the end.

    Each block's normals come from ``normals``, chunk by chunk. All the
    group's chunks step together in one array; paths that cross keep
    stepping to the end of the block, where they are recorded at their first
    crossing and dropped. Each row takes ``step``: a logistic one in four
    numpy calls, the generic one on the array ``coefficients``. A chunk down
    to ``_TAIL_PATHS`` live paths at a block end leaves the array for
    :func:`_finish_chunk`, which draws and steps exactly as the array would;
    since the switch depends on the chunk's own live count only, stacking
    still changes nothing. Results go to ``out`` (times, integrals,
    pre-states) at ``ids``; returns the clamp count and the number of capped
    paths.
    """
    times, integrals, pre_states = out
    dt, floor = step.dt, step.floor
    live = np.bincount(ids // size)   # live paths per chunk index
    x = np.full(ids.size, model.restart_level)
    acc = np.zeros(ids.size)
    floored = capped = 0
    max_steps = int(math.ceil(_TIME_CAP / dt))
    buffer = np.empty(_BLOCK_STEPS * ids.size)   # the stacked block, reused
    crowded = np.empty(ids.size)   # ``b dt x`` of a logistic row, reused
    done = 0
    while ids.size and done < max_steps:
        tail = (live > 0) & (live <= _TAIL_PATHS)
        if tail.any():
            chunk = ids // size
            for c in np.flatnonzero(tail):
                sel = chunk == c
                f, cap = _finish_chunk(
                    step, normals, c, ids[sel], x[sel], acc[sel], done, max_steps,
                    detect, running, out,
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
        for c, count in enumerate(live.tolist()):
            if count:
                path[:, lo : lo + count] = normals(c, steps, count)
                lo += count
        path *= step.scale
        start = x
        if step.shift is None:
            drift, vol = coefficients
            for row in path:
                row *= vol(x)
                row += drift(x) * dt
                row += x
                x = np.maximum(row, floor)
        else:
            path += step.shift
            crowding, crowd = step.crowding, crowded[: ids.size]
            for row in path:
                np.multiply(x, crowding, out=crowd)
                row -= crowd
                row *= x
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
            live = np.bincount(ids // size)
        done += steps
    integrals[ids] = acc
    pre_states[ids] = x
    return floored, capped + int(ids.size)


def _running_gains(running: Callable, left: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative ``running(X) dt`` down each column of a block of left states."""
    gains = running(left.ravel()).reshape(left.shape) * dt
    return np.cumsum(gains, axis=0, out=gains)


def _finish_chunk(
    step: _Step,
    normals: _Draws,
    chunk: int,
    ids: np.ndarray,
    x: np.ndarray,
    acc: np.ndarray,
    done: int,
    max_steps: int,
    detect: float,
    running: Optional[Callable[[np.ndarray], np.ndarray]],
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, int]:
    """Step one chunk's last live paths in plain floats from step ``done`` on.

    The stacked engine's twin, bit for bit: the same ``(steps, live)`` blocks
    of the chunk's normals with the live count shrinking only at block
    ends, each path stepped by :func:`_euler_steps`, and the running integrand
    called once per block on the matrix of left states. Results go to ``out``
    (times, integrals, pre-states) at ``ids``; returns the clamp count and the
    number of capped paths.
    """
    times, integrals, pre_states = out
    dt = step.dt
    ids, xs, accs = ids.tolist(), x.tolist(), acc.tolist()
    floored = 0
    while ids and done < max_steps:
        steps = min(_BLOCK_STEPS, max_steps - done)
        rows = (normals(chunk, steps, len(ids)) * step.scale).T.tolist()
        lasts, crossed, stay, lefts = [], [], [], []
        for j, (row, y) in enumerate(zip(rows, xs)):
            left = [y]
            crossing, clamps = _euler_steps(step, row, detect, left)
            floored += clamps
            if crossing is None:
                stay.append(j)
                xs[j] = left[-1]
                lasts.append(steps - 1)
            else:
                crossed.append((j, crossing))
                lasts.append(len(left) - 1)
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
