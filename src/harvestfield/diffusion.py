"""One-dimensional regular diffusions on (0, inf): scale/speed calculus.

A :class:`DiffusionModel` bundles drift and volatility with a restart level
``y0`` (where impulses put the state). The scale calculus is normalized there:
``s(y0) = 1`` and ``S(y0) = 0``. Only differences of the scale function and
products of scale and speed densities ever enter downstream formulas, so no
result depends on that choice.

The scale density, speed density and their integrals come from one table per
model, the same for every model. It integrates ``log s``, ``S``, the speed
integrals, the hitting-time integral ``xi = int M[0,u] s(u) du`` and the
cycle stock on Chebyshev panels in ``log x`` (:class:`_Table`), built on its
first query. It grows outward from ``y0`` in whole segments of ``log x``,
each growth one vectorized batch over all its panels. Every read sums a
panel's Chebyshev series by one Clenshaw recurrence, a scalar in plain floats
(after ``bisect`` on the panel edges) and an array on numpy arrays, to the
same bits wherever ``np.log`` and ``math.log`` agree. Above the table each
quantity is written once for both (see :class:`_Calculus`).

The improper pieces come from the same table: the speed integrals from the
entrance boundary 0 up to ``y0`` and out to infinity, and the entrance probe
``int_0^{y0} (S(y0) - S) m`` of Feller's boundary test. :meth:`_Table.limit`
grows the table toward 0 or infinity and sums a component's increments per
segment until they settle, extrapolating a geometric tail and reporting
divergence when they stop shrinking. Logistic models
``dX = X (g - b X) dt + beta X dW`` read their two speed integrals from 0 from
lower incomplete gamma functions instead. The logistic closed forms of the
functions themselves live in the test-suite, as the independent oracle the
table is checked against. Each model's calculus is built on first use and
kept on the model instance, so it lives exactly as long as the model.

For a threshold ``y >= y0`` the cycle length of the threshold strategy is
``xi(y) = E_{y0}[time to first reach y]``. The table's integral also runs
below ``y0``, so the expected time between any two levels ``x < y`` is
``xi(y) - xi(x)``; the stopping problem of :mod:`harvestfield.impulse` reads
its running penalty from it, and a holding cost ``a x`` from the cycle stock
in the same way. The public ``xi`` and its derivatives refuse thresholds
below ``y0``. Derivatives come from the calculus directly:
``xi' = s(y) M[0,y]``, and differentiating it with
``s' = -(2 mu / sigma^2) s`` and ``M[0,y]' = m(y) = 2 / (sigma^2 s)`` gives
the generator identity ``xi'' = (2 / sigma^2(y)) * (1 - mu(y) xi'(y))``, so
no second integral is read. The second derivative changes sign at most once
on ``[y0, inf)``, from concave to convex; on the concave stretch the impulse
solver's first-order condition cannot change sign, so its bracket search
starts at ``y0 + Kt`` and never needs the switch point.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .errors import DivergenceError, DomainError

__all__ = [
    "LogisticParams",
    "DiffusionModel",
    "AssumptionReport",
    "logistic_model",
    "custom_model",
    "validate_assumptions",
    "model_from_dict",
    "get_evaluator",
]


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of ``dX = X (growth - crowding * X) dt + beta * X dW``."""

    growth: float
    crowding: float
    beta: float

    @property
    def q(self) -> float:
        # q < 0 is the ergodic regime; q > 0 sends the state to 0 a.s.
        return 0.5 - self.growth / self.beta**2

    @property
    def rho(self) -> float:
        return 2.0 * self.crowding / self.beta**2


@dataclass(frozen=True)
class DiffusionModel:
    drift: Callable[[float], float]
    volatility: Callable[[float], float]
    restart_level: float
    logistic: Optional[LogisticParams] = None

    def __post_init__(self):
        if self.restart_level <= 0.0:
            raise DomainError("restart level must be positive")
        for x in (self.restart_level / 8.0, self.restart_level, 8.0 * self.restart_level):
            if not float(self.volatility(x)) > 0.0:
                raise DomainError(f"volatility must be positive; got {self.volatility(x)} at x={x}")
        if self.logistic is not None and not 0.0 < self.logistic.crowding < math.inf:
            raise DomainError(f"logistic model needs a finite b > 0, got b={self.logistic.crowding}")
        if self.logistic is not None and self.logistic.q >= 0.0:
            raise DomainError(
                f"logistic model needs q = 1/2 - growth/beta^2 < 0 for ergodicity, got q={self.logistic.q}"
            )


def logistic_model(
    *,
    b: float,
    beta: float,
    y0: float,
    q: float | None = None,
    growth: float | None = None,
) -> DiffusionModel:
    """Logistic diffusion, parameterized either by ``q = 1/2 - growth/beta^2`` or by ``growth``."""
    if (q is None) == (growth is None):
        raise DomainError("give exactly one of q or growth")
    try:
        beta2 = float(beta) ** 2
    except OverflowError:
        raise DomainError(f"logistic model field 'beta' = {beta} is too large: beta^2 overflows") from None
    if growth is None:
        growth = (0.5 - q) * beta2
    params = LogisticParams(growth=float(growth), crowding=float(b), beta=float(beta))
    g, bb, bet = params.growth, params.crowding, params.beta
    return DiffusionModel(
        drift=lambda x: x * (g - bb * x),
        volatility=lambda x: bet * x,
        restart_level=float(y0),
        logistic=params,
    )


def custom_model(
    drift: Callable[[float], float],
    volatility: Callable[[float], float],
    y0: float,
) -> DiffusionModel:
    return DiffusionModel(drift=drift, volatility=volatility, restart_level=float(y0))


def _vector_coefficients(model: DiffusionModel) -> tuple[Callable, Callable]:
    """Drift and volatility that accept arrays; scalar-only callables are wrapped.

    A scalar-only callable given an array raises ``TypeError`` (``math``
    functions), ``ValueError`` (the truth value of an array) or an
    ``ArithmeticError``; any other error is the callable's own and propagates.
    """
    probe = np.array([model.restart_level, 2.0 * model.restart_level])
    try:
        with np.errstate(all="ignore"):   # only the shapes count here
            if np.shape(model.drift(probe)) == probe.shape and np.shape(
                model.volatility(probe)
            ) == probe.shape:
                return model.drift, model.volatility
    except (TypeError, ValueError, ArithmeticError):
        pass
    return np.vectorize(model.drift, otypes=[float]), np.vectorize(
        model.volatility, otypes=[float]
    )


# ---------------------------------------------------------------------------
# the tabulated route
# ---------------------------------------------------------------------------

# Chebyshev-Lobatto nodes on [-1, 1] and the map from integrand values at them
# to the Chebyshev coefficients of the antiderivative that vanishes at -1 (the
# first 18 columns), to its value at 1 (the next) and to its values at the
# nodes (the rest; the last node is 1 again).
_NODES = 17
_TAU = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))
_TO_COEFFICIENTS = np.linalg.inv(chebvander(_TAU, _NODES - 1))
_ANTIDERIVATIVE = chebint(np.eye(_NODES), lbnd=-1) @ _TO_COEFFICIENTS
_AT_NODES = chebvander(_TAU, _NODES) @ _ANTIDERIVATIVE
_INTEGRATE = np.ascontiguousarray(np.vstack([_ANTIDERIVATIVE, _AT_NODES[-1:], _AT_NODES]).T)
_TAIL = np.ascontiguousarray(_TO_COEFFICIENTS[-2:].T)   # node values -> the top two coefficients

_PANEL_MAX = 0.5        # widest panel in log x, and the length of one segment
_SAMPLES = 32           # sample cells per segment; panel widths are _PANEL_MAX / 2^k
_STEP = _PANEL_MAX / _SAMPLES
_PANEL_MIN = 1e-9       # narrowest panel; accepted even if it fails the checks
_PANEL_SPREAD = 2.0     # bound on the change of log s (plus 2) across one panel
_PANEL_TAIL = 1e-13     # bound on the top Chebyshev coefficients of each integrand
_EXP_SATURATED = 800.0  # |log s| beyond which s and m are 0 or inf in double precision
_AHEAD = 2              # segments built past the one a scalar query needs, so outward searches grow less often
_FIRST_AHEAD = 3        # segments the first right growth builds past the query's, so it reaches y0 e^2
_MAX_PANELS = 20_000
_SIGMA2_MIN = np.finfo(float).tiny   # a subnormal sigma^2 counts as vanishing: d log s / dt is noise there
# segments of the first batch of a limit: toward 0 down to y0 e^-16, which settles most models in
# one batch, and each later batch doubles the span; toward infinity only to y0 e^4, and 4 more per
# batch, since panels narrow there as |d log s / dt| grows with x
_LIMIT_FIRST_TO_0 = 32
_LIMIT_FIRST_TO_INF = 8
_LIMIT_STEP_TO_INF = 4
_LIMIT_REL_TOL = 1e-15  # a segment's increment below this, relative to the sum, is negligible
_LIMIT_RATIO = 0.985    # increment ratio per segment at or above which a limit diverges

# table components
_COMPONENTS = 7
_LOG_S, _S, _M, _XM, _XI, _CYC, _ENT = range(_COMPONENTS)


def _clenshaw(c, tau):
    """``sum_j c[j] T_j(tau)`` by Clenshaw's recurrence, with ``c`` by order.

    Plain floats and numpy arrays run the same operations in the same order, to the same bits.
    """
    two_tau = tau + tau
    b1 = b2 = 0.0
    for cj in c[:0:-1]:
        b1, b2 = cj + two_tau * b1 - b2, b1
    return c[0] + tau * b1 - b2


def _times(values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``values @ matrix`` row by row.

    ``einsum`` sums each row in the same order whatever the number of rows,
    where BLAS may not, so a panel's coefficients do not depend on the batch
    it was built in.
    """
    return np.einsum("pk,kj->pj", values, matrix)


class _Table:
    """Scale and speed integrals of one model, tabulated on Chebyshev panels in log x.

    In ``t = log x``, and anchored at ``y0`` with every component 0 there, the
    panels integrate the chain

    * ``log s = -int 2 mu / sigma^2``,
    * ``S = int s``, ``M = int m``, ``XM = int u m``,
    * ``XI = int M s``, ``CYC = int XM s`` and the entrance probe ``ENT = int S m``,

    with ``s = exp(log s)`` and ``m = 2 / (sigma^2 s)`` (so ``s(y0) = 1``).
    Each panel holds 17 Chebyshev-Lobatto nodes; its width keeps ``log s``
    from changing by more than about 2 across it and the top Chebyshev
    coefficients of ``d log s / dt`` and ``2 x / sigma^2`` below 1e-13, so
    the exponentials are resolved to near machine precision. Each panel stores
    the Chebyshev coefficients of every component as one flat array row.

    The table grows outward from ``y0`` in whole segments of ``log x`` of
    length 0.5 anchored at ``log y0``, in one batch per growth
    (:meth:`_grow`): up to the segment an array query needs, and two segments
    past the one a scalar query needs, since scalar searches step outward.
    The first growth to the right builds three segments past the one queried,
    so at least out to ``y0 e^2``, where most threshold searches and scans
    stay: a fresh model then grows once to the right.
    One vectorized sample of ``d log s / dt`` on a uniform grid picks each
    segment's panels, dyadic blocks of the segment, from the spread bound;
    one call evaluates the coefficients at every panel's nodes; the checks
    run on all panels at once and only the failing panels are halved and
    evaluated again. Each stage of the chain (``log s``; then ``S``, ``M``,
    ``XM``; then ``XI``, ``CYC``, ``ENT``) is one product for all panels, with the
    edge values chained by ``cumsum``.
    Panel bounds sit at exact multiples of the sample step from ``log y0``
    (or their halves) and every sum runs in the same order whatever the
    batch, so a panel never depends on which query built it and values do
    not depend on the order of the queries. The arrays are replaced
    copy-on-write under a lock, so concurrent readers see a complete table.

    :meth:`point` reads several components at one point without numpy:
    ``bisect`` on the panel edges, then Clenshaw's recurrence
    (:func:`_clenshaw`). An array read runs the same recurrence on arrays, to
    the same bits wherever ``np.log`` and ``math.log`` agree; calling the table
    picks one or the other by the type of ``x``. Every component reads
    exactly 0 at ``y0``. :meth:`limit` reads a component's limit toward 0 or
    infinity.
    """

    def __init__(self, drift: Callable, volatility: Callable, y0: float):
        self._drift = drift
        self._volatility = volatility
        self._t0 = math.log(y0)
        edge = (0, np.zeros(_COMPONENTS), 0.0)   # (segments built, component values, sampled log s) at the edge
        # (panel bounds, coefficients (panels, components, orders), the bounds as floats, (left, right))
        self._state = (np.array([self._t0]), np.empty((0, _COMPONENTS, _NODES + 1)), [self._t0], (edge, edge))
        self._lock = threading.Lock()

    def __call__(self, x, components: tuple[int, ...]):
        """Several components at x > 0 from one lookup.

        A float reads them by :meth:`point`, as a list of floats; an array by
        one Clenshaw recurrence on arrays, stacked along a new first axis.
        """
        if isinstance(x, float):
            return self.point(x, components)
        t = np.log(np.asarray(x, dtype=float))
        if t.size == 0:
            return np.zeros((len(components),) + t.shape)
        bounds, coef, _, _ = self._cover(float(np.min(t)), float(np.max(t)), 0)
        k = np.minimum(np.maximum(np.searchsorted(bounds, t, side="right") - 1, 0), len(bounds) - 2)
        lo, hi = bounds[k], bounds[k + 1]
        tau = (2.0 * t - lo - hi) / (hi - lo)
        which = np.reshape(components, (-1,) + (1,) * t.ndim)
        values = _clenshaw(coef.T[:, which, k], tau)   # the gather is (orders, components, *x.shape)
        values[..., t == self._t0] = 0.0   # every component vanishes at y0 by construction
        return values

    def point(self, x: float, components: tuple[int, ...]) -> list[float]:
        """Several components at one point in plain floats: ``bisect``, then Clenshaw's recurrence."""
        t = math.log(x) if x > 0.0 else -math.inf
        if t == self._t0:
            return [0.0] * len(components)
        _, coef, knots, _ = self._state
        if not knots[0] <= t <= knots[-1] or len(knots) == 1:
            _, coef, knots, _ = self._cover(t, t, _AHEAD)
        k = bisect.bisect_right(knots, t, 1, len(knots) - 1) - 1
        lo, hi = knots[k], knots[k + 1]
        tau = (2.0 * t - lo - hi) / (hi - lo)
        rows = coef[k, : max(components) + 1].tolist()   # only the rows read, each a list of floats
        return [_clenshaw(rows[c], tau) for c in components]

    def _cover(self, t_lo: float, t_hi: float, ahead: int):
        """The state, grown to cover ``[t_lo, t_hi]`` plus ``ahead`` segments on each side grown."""
        state = self._state
        knots = state[2]
        if knots[0] <= t_lo and t_hi <= knots[-1] and len(knots) > 1:
            return state
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
            raise DivergenceError("scale/speed table requested at x = 0 or x = inf")
        with self._lock:
            bounds, coef, knots, (left, right) = self._state
            if t_hi > knots[-1] or len(knots) == 1:
                new_bounds, new_coef, right = self._grow(right, 1.0, t_hi, ahead, len(bounds))
                bounds = np.concatenate([bounds, new_bounds])
                coef = np.concatenate([coef, new_coef])
            if t_lo < bounds[0]:
                new_bounds, new_coef, left = self._grow(left, -1.0, t_lo, ahead, len(bounds))
                bounds = np.concatenate([new_bounds[::-1], bounds])
                coef = np.concatenate([new_coef[::-1], coef])
            self._state = (bounds, coef, bounds.tolist(), (left, right))
            return self._state

    def limit(self, component: int, direction: float) -> float:
        """The limit of ``component`` toward 0 (``direction`` -1) or infinity (+1).

        The table grows outward in batches, toward 0 from ``y0 e^-16`` in
        batches that double the span it covers on that side, toward infinity
        from ``y0 e^4`` in batches of 4 segments, and the limit is the sum of
        the component's increments per segment. A panel's increment is twice
        the sum of its odd Chebyshev coefficients, so no increment is a
        difference of two large values; each panel's sum runs in the same order
        whatever the batch, so the increments do not depend on the batch size.
        The rule is the one for halving a cutoff toward 0, with segments of
        0.5 in ``log x`` for halvings: the sum settles once two successive
        increments are negligible; once three successive increment ratios
        agree on some ``r < 0.985``, the geometric tail ``d r / (1 - r)`` is
        added if its error estimate is negligible. A ratio that agrees at
        ``r >= 0.985`` from the eighth segment on, a sum that leaves double
        range and the panel cap raise :class:`DivergenceError`. Neither rule
        ends the sum while the increments the batch computed further out
        disagree (are not negligible, or sum past the tail), as past a trough,
        or while the batch's last three increments grow, as in a trough whose
        increments have not yet climbed back past the tolerance.
        """
        toward = "0" if direction < 0 else "infinity"
        outward = direction * 2.0 * (np.arange(_NODES + 1) % 2)[:, None]   # coefficients -> outward increment
        total, increments, negligible = 0.0, [], 0
        segments = _LIMIT_FIRST_TO_0 if direction < 0 else _LIMIT_FIRST_TO_INF
        while True:
            t = self._position((segments - 0.5) * _SAMPLES, direction)
            bounds, coef, _, _ = self._cover(min(t, self._t0), max(t, self._t0), 0)
            edges = self._position(np.arange(len(increments), segments + 1) * _SAMPLES, direction)
            starts = np.searchsorted(bounds, edges)
            lo, hi = min(starts[0], starts[-1]), max(starts[0], starts[-1])
            with np.errstate(invalid="ignore", over="ignore"):   # a non-finite sum raises below
                new = np.add.reduceat(_times(coef[lo:hi, component], outward)[:, 0], np.sort(starts)[:-1] - lo)
            batch = (new if direction > 0 else new[::-1]).tolist()
            # increments that grow at the batch's far end may climb back past the tolerance
            final = increments[-2:] + batch[-3:]
            settles = not abs(final[-1]) > abs(final[-2]) > abs(final[-3])
            for j, d in enumerate(batch):
                total += d
                increments.append(d)
                if not math.isfinite(total):
                    raise DivergenceError(f"integral toward {toward} overflows")
                tol = _LIMIT_REL_TOL * abs(total)
                negligible = negligible + 1 if abs(d) <= tol else 0
                # either rule holds only if the increments the batch has computed further out agree
                if settles and negligible >= 2 and all(abs(v) <= tol for v in batch[j + 1:]):
                    return total
                if len(increments) >= 6 and all(v != 0.0 for v in increments[-4:-1]):
                    ratios = [increments[k + 1] / increments[k] for k in (-4, -3, -2)]
                    r = ratios[-1]
                    drift = max(abs(v - r) for v in ratios) / abs(r)
                    if drift < 2e-3:
                        if r >= _LIMIT_RATIO and len(increments) >= 8:
                            raise DivergenceError(
                                f"integral toward {toward} diverges "
                                f"(segment ratio {r:.4f} does not decay)"
                            )
                        if settles and 0.0 < r < _LIMIT_RATIO:
                            tail = d * r / (1.0 - r)
                            if (abs(tail) * (10.0 * drift + 1e-12) / (1.0 - r) < tol
                                    and abs(sum(batch[j + 1:])) <= abs(tail) + tol):
                                return total + tail
            segments = 2 * segments if direction < 0 else segments + _LIMIT_STEP_TO_INF

    def _position(self, u, direction: float):
        """log x at ``u`` sample steps outward from y0; exact steps, so every batch agrees."""
        return self._t0 + direction * (u * _STEP)

    def _evaluate(self, t: np.ndarray):
        """``x = exp(t)``, and ``sigma^2``, ``d log s / dt`` and ``m x s`` there, in one call each.

        An ``x`` past double range reads as a coefficient that is not finite.
        """
        with np.errstate(all="ignore"):
            x = np.exp(t)
            flat = x.ravel()
            sigma2 = np.asarray(self._volatility(flat), dtype=float).reshape(x.shape) ** 2
            rate = -2.0 * np.asarray(self._drift(flat), dtype=float).reshape(x.shape) * x / sigma2
            weight = 2.0 * x / sigma2
        return x, sigma2, rate, weight

    def _grow(self, edge, direction: float, target: float, ahead: int, count: int):
        """Whole segments from ``edge`` outward (direction +1 or -1) past ``target``, and ``ahead`` more.

        Returns the new panels' outer bounds and coefficients in outward order,
        and the new edge. The sampled ``log s`` (trapezoid rule, chained from
        the edge) only decides where ``s`` is saturated, which exempts a panel
        from the spread bound.
        """
        built, values, sampled = edge
        if built == 0 and direction > 0:
            ahead = max(ahead, _FIRST_AHEAD)
        stop = max(built, int(direction * (target - self._t0) // _PANEL_MAX)) + 1 + ahead
        while direction * (target - self._position(stop * _SAMPLES, direction)) >= 0.0:
            stop += 1
        if count + stop - built > _MAX_PANELS:
            self._too_many(target)

        # the sampled bound: the spread |d log s / dt| + 2 wherever s is not saturated
        u = np.arange(built * _SAMPLES, stop * _SAMPLES + 1, dtype=float)
        _, sigma2, rate, _ = self._evaluate(self._position(u, direction))
        vanishing = np.flatnonzero(~(sigma2 >= _SIGMA2_MIN))
        if len(vanishing):
            j = int(vanishing[0])
            self._vanishing(*sorted(self._position(u[[max(j - 1, 0), j]], direction)))
        with np.errstate(over="ignore", invalid="ignore"):   # the node checks report a rate past range
            steps = (0.5 * direction * _STEP) * (rate[:-1] + rate[1:])
            log_s = np.cumsum(np.concatenate([[sampled], steps]))
        spread = np.where(np.abs(log_s) > _EXP_SATURATED, 0.0, np.abs(rate) + 2.0)

        # each sample cell takes the widest dyadic block of its segment that meets the bound; a
        # block within one that meets it meets it too, so the halving stops once every block does
        depth = np.zeros(len(u) - 1, dtype=int)
        cells = _SAMPLES
        while cells > 1:
            block = np.maximum(spread[:-1].reshape(-1, cells).max(axis=1), spread[cells::cells])
            fail = ~(cells * _STEP * block <= _PANEL_SPREAD)
            if not fail.any():
                break
            depth += np.repeat(fail, cells)
            cells //= 2
        cells = _SAMPLES >> depth
        starts = np.flatnonzero(np.arange(len(depth)) % cells == 0)
        inner = u[starts]
        outer = inner + cells[starts]

        # check every panel at its nodes; halve the failing ones until all pass
        pending = np.ones(len(inner), dtype=bool)
        widths = np.empty(len(inner))
        nodes = np.empty((len(inner), _NODES))
        rates, weights = np.empty_like(nodes), np.empty_like(nodes)
        while pending.any():
            if count + len(inner) > _MAX_PANELS:
                self._too_many(target)
            todo = np.flatnonzero(pending)
            lo = self._position(inner[todo], direction)
            hi = self._position(outer[todo], direction)
            if direction < 0:
                lo, hi = hi, lo
            width = hi - lo
            middle, half = 0.5 * (lo + hi), 0.5 * width
            x, sigma2, rate, weight = self._evaluate(middle[:, None] + half[:, None] * _TAU)
            if not np.all(np.isfinite(rate) & np.isfinite(sigma2) & (sigma2 >= _SIGMA2_MIN)):
                vol_bad = ~np.all((sigma2 >= _SIGMA2_MIN) & np.isfinite(sigma2), axis=1)
                i = int(np.flatnonzero(vol_bad | ~np.all(np.isfinite(rate), axis=1))[0])
                if vol_bad[i]:
                    self._vanishing(lo[i], hi[i])
                raise DivergenceError(
                    f"drift is not finite on [{math.exp(lo[i])}, {math.exp(hi[i])}]"
                )
            saturated = np.abs(np.interp(inner[todo], u, log_s)) > _EXP_SATURATED
            fail = (width > _PANEL_MIN) & (
                (~saturated & (width * (np.max(np.abs(rate), axis=1) + 2.0) > _PANEL_SPREAD))
                | (np.abs(_times(rate, _TAIL)).sum(axis=1) * width > _PANEL_TAIL)
                | (np.abs(_times(weight, _TAIL)).sum(axis=1) > _PANEL_TAIL * np.max(weight, axis=1))
            )
            widths[todo], nodes[todo], rates[todo], weights[todo] = width, x, rate, weight
            pending[todo] = fail
            if fail.any():
                split = np.zeros(len(inner), dtype=bool)
                split[todo[fail]] = True
                keep = np.repeat(np.arange(len(inner)), np.where(split, 2, 1))
                second = np.cumsum(np.where(split, 2, 1))[split] - 1
                middle = 0.5 * (inner[split] + outer[split])
                inner, outer = inner[keep], outer[keep]
                outer[second - 1] = middle
                inner[second] = middle
                pending, widths = pending[keep], widths[keep]
                nodes, rates, weights = nodes[keep], rates[keep], weights[keep]

        coef, values = self._integrate(nodes, rates, weights, widths, direction, values)
        new_edge = (stop, values, float(log_s[-1]))
        return self._position(outer, direction), coef, new_edge

    @staticmethod
    def _integrate(x, rate, weight, width, direction, edge_values):
        """Every component's coefficients on the panels (outward order), chained from the edge."""
        half = (0.5 * width)[None, :, None]
        count = len(width)
        coef = np.empty((count, _COMPONENTS, _NODES + 1))
        chain = np.empty((_COMPONENTS, count + 1))   # per component: the edge value, then each panel's increment
        chain[:, 0] = edge_values
        outer_values = np.empty(_COMPONENTS)

        def integrate(first, last, integrands, columns=_INTEGRATE.shape[1]):
            """Antiderivatives of components ``first:last`` from their (components, panels,
            nodes) integrands; their values at the nodes, unless ``columns`` leaves them out."""
            both = half * _times(integrands.reshape(-1, _NODES), _INTEGRATE[:, :columns]).reshape(
                last - first, count, -1
            )
            chain[first:last, 1:] = direction * both[..., _NODES + 1]
            run = np.cumsum(chain[first:last], axis=1)
            # each panel's value at its left end: the inner edge going right, the outer going left
            start = run[:, :-1] if direction > 0 else run[:, 1:]
            coef[:, first:last] = both[..., : _NODES + 1].swapaxes(0, 1)
            coef[:, first:last, 0] += start.T
            outer_values[first:last] = run[:, -1]
            return start[..., None] + both[..., _NODES + 2:]

        with np.errstate(over="ignore", invalid="ignore"):
            (log_s,) = integrate(_LOG_S, _S, rate[None])
            s_x = np.exp(log_s) * x
            m_x = weight * np.exp(-log_s)
            scale, mass, first = integrate(_S, _XI, np.stack([s_x, m_x, m_x * x]))
            # the last stage feeds no other: its coefficients and its value at 1 suffice
            integrate(_XI, _ENT + 1, np.stack([mass * s_x, first * s_x, scale * m_x]), _NODES + 2)
        return coef, outer_values

    @staticmethod
    def _vanishing(t_lo: float, t_hi: float):
        raise DomainError(
            f"volatility vanishes or is non-finite on [{math.exp(t_lo)}, {math.exp(t_hi)}]"
        )

    @staticmethod
    def _too_many(target: float):
        raise DivergenceError(
            f"scale/speed table exceeds {_MAX_PANELS} panels before x = {math.exp(target)}"
        )


def _reads(read):
    """A calculus read of ``x``, a float or an array, as one formula for both.

    Any other scalar goes on as a float. An array read runs with numpy's
    warnings off: its checks report every value past double range as a
    package error, as they do for floats.
    """

    @functools.wraps(read)
    def reads(self, x, *args, **kwargs):
        if type(x) is float:
            return read(self, x, *args, **kwargs)
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return read(self, float(x), *args, **kwargs)
        with np.errstate(all="ignore"):
            return read(self, x, *args, **kwargs)

    return reads


def _exp(exponent):
    """``exp``, inf past double range: ``math.exp`` on a float, ``np.exp`` on an array."""
    if type(exponent) is float:
        try:
            return math.exp(exponent)
        except OverflowError:
            return math.inf
    return np.exp(exponent)


def _coefficient(f, x):
    """``f(x)`` for a drift or volatility ``f``: a float at a float, a float array at an array."""
    return float(f(x)) if type(x) is float else np.asarray(f(x), dtype=float)


class _Calculus:
    """Per-model scale and speed calculus, read from one table; safe for concurrent reads.

    It keeps the model's coefficients, not the model, so the copy cached on
    the model (see :func:`_calculus`) is freed together with the model. The
    table is built on its first query. Logistic models differ only in their
    per-model constants: the speed integrals below ``y0`` and the totals are
    lower incomplete gamma functions.

    Each read writes its formula once for a float and an array (see
    :func:`_reads`); they part only in the table lookup, :func:`_exp`,
    :func:`_coefficient` and the checks.
    """

    def __init__(self, model: DiffusionModel):
        self.logistic = model.logistic
        self.drift, self.volatility = _vector_coefficients(model)
        self.y0 = y0 = model.restart_level
        self._table = _Table(self.drift, self.volatility, y0)
        if model.logistic is not None:
            p = model.logistic
            # m(x) = cm * x^(-2q-1) * exp(-rho x) with m normalized at y0, kept as log cm
            # so that a cm past double range still cancels against Gamma(shape) rho^-shape
            self._log_cm = (
                math.log(2.0 / p.beta**2) + (2.0 * p.q - 1.0) * math.log(y0) + p.rho * y0
            )
        self._below: dict[int, float] = {}   # power -> int_0^{y0} u^power m, see _below_y0
        self._zero_cost = None   # solved on first use by impulse.zero_cost_threshold

    # -- checks --------------------------------------------------------------

    @staticmethod
    def _finite(value, x, name: str, density: str = "scale density"):
        """``value`` if it is finite: a table integral leaves double range only where its density does."""
        if type(value) is float:
            if math.isfinite(value):
                return value
        elif np.all(np.isfinite(value)):
            return value
        bad = np.ravel(x)[np.argmin(np.isfinite(np.ravel(value)))]   # the first such point
        raise DivergenceError(f"{density} overflows: {name} is not finite at x = {bad}")

    @staticmethod
    def _check_positive(x, name: str) -> None:
        if x <= 0.0 if type(x) is float else np.any(x <= 0.0):
            raise DomainError(f"{name} needs x > 0")

    def _check_domain(self, y) -> None:
        floor = self.y0 * (1.0 - 1e-12)
        # `not y >= floor` also rejects NaN
        if not (y >= floor if isinstance(y, (float, int)) else np.all(np.asarray(y) >= floor)):
            bad = np.ravel(y)[np.argmin(np.ravel(y) >= floor)]   # the first value refused
            raise DomainError(f"thresholds live in [y0, inf) = [{self.y0}, inf), got {bad}")

    def _sigma2(self, x):
        """``sigma(x)^2``: a float's past double range raises :class:`DomainError`, an array's reads inf."""
        try:
            return _coefficient(self.volatility, x) ** 2
        except OverflowError:
            raise DomainError(f"sigma^2 overflows at x = {x}") from None

    # -- densities and the scale function ----------------------------------

    @_reads
    def s(self, x):
        self._check_positive(x, "scale density")
        (log_s,) = self._table(x, (_LOG_S,))
        return self._finite(_exp(log_s), x, "s")

    @_reads
    def m(self, x):
        self._check_positive(x, "speed density")
        # the exponent is read before sigma^2, so a volatility that underflows raises the
        # table's package error instead of dividing by zero
        (log_s,) = self._table(x, (_LOG_S,))
        return self._finite(2.0 / self._sigma2(x) * _exp(-log_s), x, "m", "speed density")

    @_reads
    def S(self, x):
        """``S(x) = int_{y0}^x s`` from the table; past double range of ``s`` it raises."""
        self._check_positive(x, "scale function")
        (value,) = self._table(x, (_S,))
        return self._finite(value, x, "S")

    # -- cumulative speed integrals from 0 ----------------------------------

    def _gamma_total(self, power: float) -> float:
        """``int_0^inf u^power m(u) du = cm Gamma(shape) rho^-shape``, ``shape = power - 2q``.

        Logistic models only. Summed in log space, so only a total past double
        range overflows; that raises.
        """
        p = self.logistic
        shape = power - 2.0 * p.q
        log_total = self._log_cm + math.lgamma(shape) - shape * math.log(p.rho)
        try:
            return math.exp(log_total)
        except OverflowError:
            raise DivergenceError(
                f"speed moment of power {power} overflows (log {log_total:.6g})"
            ) from None

    def _below_y0(self, power: int) -> float:
        """``int_0^{y0} u^power m(u) du`` for power 0 or 1, computed once per model.

        Logistic models read it from a lower incomplete gamma function
        (``scipy.special``, imported here on first use). Other models read the
        table's limit toward 0, which detects divergence there.
        """
        value = self._below.get(power)
        if value is None:
            p = self.logistic
            if p is not None:
                from scipy.special import gammainc

                shape = power - 2.0 * p.q
                value = self._gamma_total(power) * float(gammainc(shape, p.rho * self.y0))
            else:
                value = -self._table.limit(_XM if power else _M, -1.0)
            self._below[power] = value
        return value

    @_reads
    def _from_y0(self, x, power: int, component: int, name: str, density: str = "scale density"):
        """A table integral from ``y0`` plus ``below = int_0^{y0} u^power m``, on both sides of ``y0``.

        ``_XI`` and ``_CYC`` integrate ``s`` times a speed integral from 0, so
        ``below`` enters them times ``S(x)``.
        """
        below = self._below_y0(power)
        if component in (_XI, _CYC):
            scale, tail = self._table(x, (_S, component))
            return self._finite(below * scale + tail, x, name, density)
        (tail,) = self._table(x, (component,))
        return self._finite(below + tail, x, name, density)

    def M0(self, x):
        """Speed mass M[0, x]."""
        return self._from_y0(x, 0, _M, "M0", "speed density")

    def xm0(self, x):
        """First speed moment ``int_0^x u m(u) du``."""
        return self._from_y0(x, 1, _XM, "xm0", "speed density")

    # -- hitting-time integrals from y0 -------------------------------------

    def xi(self, y):
        """Expected time from y0 to the threshold ``y >= y0``."""
        self._check_domain(y)
        return self._xi_both_sides(y)

    def xi_prime(self, y):
        """xi'(y) = s(y) M[0, y] > 0."""
        return self.xi_derivatives(y, 1)[1]

    def xi_second(self, y):
        """xi''(y) = (2 / sigma^2(y)) * (1 - mu(y) xi'(y)), the generator identity."""
        return self.xi_derivatives(y)[2]

    @_reads
    def xi_derivatives(self, y, order: int = 2, stock: bool = False) -> tuple:
        """``(xi, xi')`` at thresholds ``y >= y0``, ``xi''`` too at ``order`` 2, from one table read.

        ``y`` is a float, read by one lookup, or an array, read by one array
        read. With ``stock`` the same read also gives the cycle stock and its
        slope ``(P, P')``, after the others. Each value has the bits of the
        separate reads :meth:`xi`, ``s(y) * M0(y)``,
        ``2/sigma^2 (1 - mu s(y) M0(y))``, :meth:`cycle_stock` and
        ``xm0(y) * s(y)``. At order 2 a ``sigma^2`` that overflows raises
        :class:`DomainError` before the table is read; then ``xi``, ``s``,
        ``M0``, ``P`` or ``xm0`` overflowing raises :class:`DivergenceError`,
        in that order.
        """
        self._check_domain(y)
        if order == 2:
            sigma2 = self._sigma2(y)
        below = self._below_y0(0)
        components = (_LOG_S, _S, _M, _XI, _XM, _CYC) if stock else (_LOG_S, _S, _M, _XI)
        log_s, scale, mass, tail, *cycle = self._table(y, components)
        xi = self._finite(below * scale + tail, y, "xi")
        s = self._finite(_exp(log_s), y, "s")
        m0 = self._finite(below + mass, y, "M0", "speed density")
        if order == 1:
            reads = (xi, s * m0)
        else:
            reads = (xi, s * m0, 2.0 / sigma2 * (1.0 - _coefficient(self.drift, y) * s * m0))
        if not stock:
            return reads
        below = self._below_y0(1)
        moment, stock_tail = cycle
        return (
            *reads,
            self._finite(below * scale + stock_tail, y, "cycle stock"),
            self._finite(below + moment, y, "xm0", "speed density") * s,
        )

    def _xi_both_sides(self, y):
        """``xi(y) = int_{y0}^y M[0,u] s(u) du`` from the table, on both sides of ``y0``.

        For ``x < y`` the expected time from ``x`` to ``y`` is ``xi(y) - xi(x)``.
        """
        return self._from_y0(y, 0, _XI, "xi")

    def cycle_stock(self, y):
        """``P(y) = int_{y0}^y xm0(u) s(u) du``, on both sides of ``y0``.

        For ``y >= y0`` it is the stock accumulated over one cycle: integration
        by parts turns ``int (S(y)-S(u)) u m(u) du + (S(y)-S(y0)) xm0(y0)``
        into this form (the first-moment analogue of ``xi``). The same parts
        give ``E_x int_0^{tau_c} X = P(c) - P(x)`` for any ``x < c``.
        """
        return self._from_y0(y, 1, _CYC, "cycle stock")

    def speed_mass_total(self) -> float:
        if self.logistic is not None:
            return self._gamma_total(0.0)
        return self._below_y0(0) + self._table.limit(_M, 1.0)

    def xm_total(self) -> float:
        if self.logistic is not None:
            return self._gamma_total(1.0)
        return self._below_y0(1) + self._table.limit(_XM, 1.0)

    def entrance(self) -> float:
        """``int_0^{y0} (S(y0) - S(u)) m(u) du``: finite iff 0 is an entrance (or regular) boundary."""
        return self._table.limit(_ENT, -1.0)


def _calculus(model: DiffusionModel) -> _Calculus:
    """The model's calculus, built on first use and kept on the model instance.

    Everything it caches is value-immutable.
    """
    calc = model.__dict__.get("_calculus")
    if calc is None:
        calc = model.__dict__.setdefault("_calculus", _Calculus(model))
    return calc


get_evaluator = _calculus


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric evidence behind each standing-assumption probe."""

    speed_mass_finite: bool
    speed_mass: float
    first_moment_finite: bool
    first_moment: float
    turning_point_ok: bool
    turning_point: Optional[float]
    scale_diverges: bool
    scale_probe_x: float
    scale_probe_value: float
    entrance_finite: bool
    entrance_value: float
    all_passed: bool             # every probe above passed
    notes: tuple[str, ...] = ()


def _probe_turning_point(model: DiffusionModel) -> tuple[bool, Optional[float], list[str]]:
    """Look for the drift's turning point on ``geomspace(y0 / 100, 1000 y0, 241)``."""
    notes: list[str] = []
    with np.errstate(all="ignore"):   # a grid or drift past double range fails the checks below
        grid = np.geomspace(model.restart_level * 1e-2, model.restart_level * 1e3, 241)
        mu = _calculus(model).drift(grid)
        steps = np.diff(mu)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(mu))))
    i_star = int(np.argmax(mu))
    if i_star >= len(grid) - 1:
        notes.append("drift still rising at the largest probe point; no saturation found")
        return False, None, notes
    rising = bool(np.all(steps[:i_star] >= -slack))
    falling = bool(np.all(steps[i_star:] <= slack))
    strictly_falls = mu[-1] < mu[i_star] - slack
    ok = rising and falling and strictly_falls
    if not rising:
        notes.append("drift is not monotone below its maximum")
    if not (falling and strictly_falls):
        notes.append("drift does not decrease beyond its maximum")
    return ok, float(grid[i_star]), notes


def _probe_scale_divergence(model: DiffusionModel) -> tuple[bool, float, float]:
    """Read ``s`` at ``y0 2^k`` for k up to 40, against ``s(y0) = 1``; a read past double range raises."""
    calc = _calculus(model)
    x = model.restart_level
    values = []
    for _ in range(40):
        x *= 2.0
        try:
            v = calc.s(x)
        except (DivergenceError, DomainError):
            return True, x, math.inf
        values.append(v)
        if v > 1e8:
            return True, x, v
    tail = values[-6:]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    return (increasing and tail[-1] > 1e2), x, values[-1]


def validate_assumptions(model: DiffusionModel) -> AssumptionReport:
    """Numerically probe positive recurrence, drift saturation, scale growth and the entrance boundary.

    Failures never raise; they are reported with the numbers that produced them.
    """
    calc = _calculus(model)
    notes: list[str] = []

    def limit(read, label: str) -> tuple[float, bool]:
        """``(value, finite)`` of an improper integral; a divergence is noted and reads NaN."""
        try:
            value = read()
            return value, math.isfinite(value)
        except DivergenceError as exc:
            notes.append(f"{label}: {exc}")
            return math.nan, False

    mass, mass_ok = limit(calc.speed_mass_total, "speed mass")
    moment, moment_ok = limit(calc.xm_total, "first moment")

    turning_ok, turning_point, turning_notes = _probe_turning_point(model)
    notes.extend(turning_notes)

    scale_ok, probe_x, probe_value = _probe_scale_divergence(model)
    if not scale_ok:
        notes.append("scale density does not appear to diverge")

    entrance_value, entrance_ok = limit(calc.entrance, "entrance boundary")

    return AssumptionReport(
        speed_mass_finite=mass_ok,
        speed_mass=mass,
        first_moment_finite=moment_ok,
        first_moment=moment,
        turning_point_ok=turning_ok,
        turning_point=turning_point,
        scale_diverges=scale_ok,
        scale_probe_x=probe_x,
        scale_probe_value=probe_value,
        entrance_finite=entrance_ok,
        entrance_value=entrance_value,
        all_passed=mass_ok and moment_ok and turning_ok and scale_ok and entrance_ok,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# the fields of each model kind besides "kind"; any other key is rejected
_MODEL_KEYS = {"logistic": {"q", "b", "beta", "y0"}, "custom": {"drift", "vol", "y0"}}


def model_from_dict(data: dict) -> DiffusionModel:
    from .expressions import parse_expression

    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("model spec must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise DomainError(f"unknown model kind {kind!r}")
    missing = _MODEL_KEYS[kind] - data.keys()
    if missing:
        raise DomainError(f"{kind} model spec is missing {sorted(missing)}")
    unknown = data.keys() - _MODEL_KEYS[kind] - {"kind"}
    if unknown:
        raise DomainError(f"unknown {kind} model key(s): {sorted(unknown)}")

    def number(key: str) -> float:
        if isinstance(data[key], bool):   # float(True) is 1.0; refused as every scenario number is
            raise DomainError(f"{kind} model field {key!r} expects a number, got {data[key]!r}")
        return float(data[key])

    if kind == "logistic":
        return logistic_model(q=number("q"), b=number("b"), beta=number("beta"), y0=number("y0"))
    return custom_model(
        parse_expression(data["drift"], "x"),
        parse_expression(data["vol"], "x"),
        number("y0"),
    )
