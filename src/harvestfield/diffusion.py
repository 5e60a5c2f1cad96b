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
each growth one vectorized batch over all its panels, and a scalar reads it
in plain floats (``bisect`` on the panel edges, then a Clenshaw sum).

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
import math
import threading
from dataclasses import dataclass, field
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
# first 18 columns) and to that antiderivative's values at the nodes (the rest).
_NODES = 17
_TAU = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))
_ORDERS = np.arange(_NODES + 1)
_TO_COEFFICIENTS = np.linalg.inv(chebvander(_TAU, _NODES - 1))
_ANTIDERIVATIVE = chebint(np.eye(_NODES), lbnd=-1) @ _TO_COEFFICIENTS
_INTEGRATE = np.ascontiguousarray(
    np.vstack([_ANTIDERIVATIVE, chebvander(_TAU, _NODES) @ _ANTIDERIVATIVE]).T
)
_TAIL = np.ascontiguousarray(_TO_COEFFICIENTS[-2:].T)   # node values -> the top two coefficients

_PANEL_MAX = 0.5        # widest panel in log x, and the length of one segment
_SAMPLES = 32           # sample cells per segment; panel widths are _PANEL_MAX / 2^k
_STEP = _PANEL_MAX / _SAMPLES
_PANEL_MIN = 1e-9       # narrowest panel; accepted even if it fails the checks
_PANEL_SPREAD = 2.0     # bound on the change of log s (plus 2) across one panel
_PANEL_TAIL = 1e-13     # bound on the top Chebyshev coefficients of each integrand
_EXP_SATURATED = 800.0  # |log s| beyond which s and m are 0 or inf in double precision
_AHEAD = 2              # segments built past the one a scalar query needs, so outward searches grow less often
_MAX_PANELS = 20_000
_SIGMA2_MIN = np.finfo(float).tiny   # a subnormal sigma^2 counts as vanishing: d log s / dt is noise there
# segments of the first batch of a limit: toward 0 down to y0 e^-32, which settles most models in
# one batch; toward infinity only to y0 e^4, since panels narrow there as |d log s / dt| grows with x
_LIMIT_FIRST_TO_0 = 64
_LIMIT_FIRST_TO_INF = 8
_LIMIT_REL_TOL = 1e-15  # a segment's increment below this, relative to the sum, is negligible
_LIMIT_RATIO = 0.985    # increment ratio per segment at or above which a limit diverges

# table components
_COMPONENTS = 7
_LOG_S, _S, _M, _XM, _XI, _CYC, _ENT = range(_COMPONENTS)


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

    :meth:`at` reads one component at one point without numpy: ``bisect`` on
    the panel edges, then a Clenshaw sum over the panel's coefficients.
    Every component reads exactly 0 at ``y0``. :meth:`limit` reads a
    component's limit toward 0 or infinity.
    """

    def __init__(self, drift: Callable, volatility: Callable, y0: float):
        self._drift = drift
        self._volatility = volatility
        self._t0 = math.log(y0)
        edge = (0, np.zeros(_COMPONENTS), 0.0)   # (segments built, component values, sampled log s) at the edge
        # (panel bounds, coefficients (panels, components, orders), the bounds as floats, (left, right))
        self._state = (np.array([self._t0]), np.empty((0, _COMPONENTS, _NODES + 1)), [self._t0], (edge, edge))
        self._lock = threading.Lock()
        self._last = [(math.nan, 0.0)] * _COMPONENTS   # per component, the last scalar read: (x, value)

    def __call__(self, x, components) -> np.ndarray:
        """One component (an int) or several (a tuple) at x > 0.

        Several components come back stacked along a new first axis.
        """
        if np.ndim(x) == 0:
            if np.ndim(components):
                return np.array([self.at(float(x), c) for c in components])
            return self.at(float(x), components)
        t = np.log(np.asarray(x, dtype=float))
        if t.size == 0:
            return np.zeros(np.shape(components) + t.shape)
        bounds, coef, _, _ = self._cover(float(np.min(t)), float(np.max(t)), 0)
        k = np.minimum(np.maximum(np.searchsorted(bounds, t, side="right") - 1, 0), len(bounds) - 2)
        lo, hi = bounds[k], bounds[k + 1]
        tau = np.minimum(np.maximum((2.0 * t - lo - hi) / (hi - lo), -1.0), 1.0)
        chebyshev = np.cos(np.multiply.outer(np.arccos(tau), _ORDERS))
        rows = coef[k[..., None], np.atleast_1d(components)]
        values = np.einsum("...ck,...k->c...", rows, chebyshev)
        values[..., t == self._t0] = 0.0   # every component vanishes at y0 by construction
        return values if np.ndim(components) else values[0]

    def at(self, x: float, component: int) -> float:
        """One component at one point, in plain floats: ``bisect``, then Clenshaw's recurrence.

        The last point read of each component is kept, since a solver step reads the same
        component at the same point several times.
        """
        last = self._last[component]
        if last[0] == x:
            return last[1]
        t = math.log(x) if x > 0.0 else -math.inf
        if t == self._t0:
            return 0.0   # every component vanishes at y0 by construction
        _, coef, knots, _ = self._state
        if not knots[0] <= t <= knots[-1] or len(knots) == 1:
            _, coef, knots, _ = self._cover(t, t, _AHEAD)
        k = bisect.bisect_right(knots, t, 1, len(knots) - 1) - 1
        lo, hi = knots[k], knots[k + 1]
        tau = (2.0 * t - lo - hi) / (hi - lo)
        two_tau = tau + tau
        c = coef[k, component].tolist()
        b1 = b2 = 0.0
        for cj in c[:0:-1]:
            b1, b2 = cj + two_tau * b1 - b2, b1
        value = c[0] + tau * b1 - b2
        self._last[component] = (x, value)
        return value

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

        The table grows outward in batches that double the span it covers on
        that side, and the limit is the sum of the component's increments per
        segment. A panel's increment is twice the sum of its odd Chebyshev
        coefficients, so no increment is a difference of two large values.
        The rule is the one for halving a cutoff toward 0, with segments of
        0.5 in ``log x`` for halvings: the sum settles once two successive
        increments are negligible; once three successive increment ratios
        agree on some ``r < 0.985``, the geometric tail ``d r / (1 - r)`` is
        added if its error estimate is negligible. A ratio that agrees at
        ``r >= 0.985`` from the eighth segment on, a sum that leaves double
        range and the panel cap raise :class:`DivergenceError`.
        """
        toward = "0" if direction < 0 else "infinity"
        outward = direction * 2.0 * (np.arange(_NODES + 1) % 2)   # coefficients -> outward increment
        total, increments, negligible = 0.0, [], 0
        segments = _LIMIT_FIRST_TO_0 if direction < 0 else _LIMIT_FIRST_TO_INF
        while True:
            t = self._position((segments - 0.5) * _SAMPLES, direction)
            bounds, coef, _, _ = self._cover(min(t, self._t0), max(t, self._t0), 0)
            edges = self._position(np.arange(len(increments), segments + 1) * _SAMPLES, direction)
            starts = np.searchsorted(bounds, edges)
            lo, hi = min(starts[0], starts[-1]), max(starts[0], starts[-1])
            with np.errstate(invalid="ignore", over="ignore"):   # a non-finite sum raises below
                new = np.add.reduceat(coef[lo:hi, component] @ outward, np.sort(starts)[:-1] - lo)
            for d in (new if direction > 0 else new[::-1]).tolist():
                total += d
                increments.append(d)
                if not math.isfinite(total):
                    raise DivergenceError(f"integral toward {toward} overflows")
                tol = _LIMIT_REL_TOL * abs(total)
                negligible = negligible + 1 if abs(d) <= tol else 0
                if negligible == 2:
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
                        if 0.0 < r < _LIMIT_RATIO:
                            tail = d * r / (1.0 - r)
                            if abs(tail) * (10.0 * drift + 1e-12) / (1.0 - r) < tol:
                                return total + tail
            segments *= 2

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
        steps = (0.5 * direction * _STEP) * (rate[:-1] + rate[1:])
        log_s = np.cumsum(np.concatenate([[sampled], steps]))
        spread = np.where(np.abs(log_s) > _EXP_SATURATED, 0.0, np.abs(rate) + 2.0)

        # each sample cell takes the widest dyadic block of its segment that meets the bound
        depth = np.zeros(len(u) - 1, dtype=int)
        cells = _SAMPLES
        while cells > 1:
            block = np.maximum(spread[:-1].reshape(-1, cells).max(axis=1), spread[cells::cells])
            depth += np.repeat(~(cells * _STEP * block <= _PANEL_SPREAD), cells)
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

        def integrate(first, last, integrands):
            """Antiderivatives of components ``first:last`` from their (components, panels,
            nodes) integrands; their values at the nodes."""
            both = half * _times(integrands.reshape(-1, _NODES), _INTEGRATE).reshape(
                last - first, count, -1
            )
            chain[first:last, 1:] = direction * both[..., -1]
            run = np.cumsum(chain[first:last], axis=1)
            # each panel's value at its left end: the inner edge going right, the outer going left
            start = run[:, :-1] if direction > 0 else run[:, 1:]
            coef[:, first:last] = both[..., : _NODES + 1].swapaxes(0, 1)
            coef[:, first:last, 0] += start.T
            outer_values[first:last] = run[:, -1]
            return start[..., None] + both[..., _NODES + 1:]

        with np.errstate(over="ignore", invalid="ignore"):
            (log_s,) = integrate(_LOG_S, _S, rate[None])
            s_x = np.exp(log_s) * x
            m_x = weight * np.exp(-log_s)
            scale, mass, first = integrate(_S, _XI, np.stack([s_x, m_x, m_x * x]))
            integrate(_XI, _ENT + 1, np.stack([mass * s_x, first * s_x, scale * m_x]))
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


class _Calculus:
    """Per-model scale and speed calculus, read from one table; safe for concurrent reads.

    It keeps the model's coefficients, not the model, so the copy cached on
    the model (see :func:`_calculus`) is freed together with the model. The
    table is built on its first query. Logistic models differ only in their
    per-model constants: the speed integrals below ``y0`` and the totals are
    lower incomplete gamma functions.
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
        self._m0_at_y0: float | None = None
        self._xm0_at_y0: float | None = None
        self._zero_cost = None   # solved on first use by impulse.zero_cost_threshold

    # -- densities ---------------------------------------------------------

    def exponent(self, x):
        """int_{y0}^x 2 mu / sigma^2, so that s = exp(-exponent)."""
        if isinstance(x, (float, int)):
            return -self._table.at(x, _LOG_S)
        value = -self._table(x, _LOG_S)
        return float(value) if np.ndim(x) == 0 else value

    def s(self, x):
        if isinstance(x, (float, int)):
            if x <= 0.0:
                raise DomainError("scale density needs x > 0")
            try:
                return math.exp(-self.exponent(x))
            except OverflowError:
                raise DivergenceError(f"scale density overflows at x = {x}") from None
        if np.any(np.asarray(x) <= 0.0):
            raise DomainError("scale density needs x > 0")
        with np.errstate(over="ignore"):   # _finite reports an overflow
            value = np.exp(-self.exponent(x))
        return self._finite(value, x, "s")

    def m(self, x):
        # the exponent is read before sigma^2, so a volatility that underflows raises the
        # table's package error instead of dividing by zero
        if isinstance(x, (float, int)):
            if x <= 0.0:
                raise DomainError("speed density needs x > 0")
            exponent = self.exponent(x)
            sigma2 = float(self.volatility(float(x))) ** 2
            try:
                return 2.0 / sigma2 * math.exp(exponent)
            except OverflowError:
                raise DivergenceError(f"speed density overflows at x = {x}") from None
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= 0.0):
            raise DomainError("speed density needs x > 0")
        exponent = self.exponent(xa)
        with np.errstate(all="ignore"):   # _finite reports a value past double range
            value = 2.0 / np.asarray(self.volatility(xa)) ** 2 * np.exp(exponent)
        return self._finite(value, x, "m", "speed density")

    # -- scale function ----------------------------------------------------

    def S(self, x):
        """``S(x) = int_{y0}^x s`` from the table; past double range of ``s`` it raises."""
        if isinstance(x, (float, int)):
            if x <= 0.0:
                raise DomainError("scale function needs x > 0")
            value = self._table.at(x, _S)
        else:
            if np.any(np.asarray(x) <= 0.0):
                raise DomainError("scale function needs x > 0")
            value = self._table(x, _S)
        return self._finite(value, x, "S")

    @staticmethod
    def _finite(value, x, name: str, density: str = "scale density"):
        """``value`` if it is finite: a table integral leaves double range only where its density does."""
        if type(value) is float:
            if math.isfinite(value):
                return value
        elif np.all(np.isfinite(value)):
            return float(value) if np.ndim(x) == 0 else value
        raise DivergenceError(
            f"{density} overflows: {name} is not finite at the requested points "
            f"(largest x = {np.max(x)})"
        )

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

    def _below_restart(self, power: int) -> float:
        """``int_0^{y0} u^power m(u) du`` for power 0 or 1.

        Logistic models read it from a lower incomplete gamma function
        (``scipy.special``, imported here on first use). Other models read the
        table's limit toward 0, which detects divergence there.
        """
        p = self.logistic
        if p is not None:
            from scipy.special import gammainc

            shape = power - 2.0 * p.q
            return self._gamma_total(power) * float(gammainc(shape, p.rho * self.y0))
        return -self._table.limit(_XM if power else _M, -1.0)

    def _mass_below_y0(self) -> float:
        if self._m0_at_y0 is None:
            self._m0_at_y0 = self._below_restart(0)
        return self._m0_at_y0

    def _first_moment_below_y0(self) -> float:
        if self._xm0_at_y0 is None:
            self._xm0_at_y0 = self._below_restart(1)
        return self._xm0_at_y0

    def M0(self, x):
        """Speed mass M[0, x]."""
        if isinstance(x, (float, int)):
            value = self._mass_below_y0() + self._table.at(x, _M)
        else:
            table = self._table(x, _M)
            with np.errstate(over="ignore"):   # _finite reports an overflow
                value = self._mass_below_y0() + table
        return self._finite(value, x, "M0", "speed density")

    def xm0(self, x):
        """First speed moment ``int_0^x u m(u) du``."""
        if isinstance(x, (float, int)):
            value = self._first_moment_below_y0() + self._table.at(x, _XM)
        else:
            table = self._table(x, _XM)
            with np.errstate(over="ignore"):   # _finite reports an overflow
                value = self._first_moment_below_y0() + table
        return self._finite(value, x, "xm0", "speed density")

    # -- hitting-time integrals from y0 -------------------------------------

    def _check_domain(self, y) -> None:
        floor = self.y0 * (1.0 - 1e-12)
        # `not y >= floor` also rejects NaN
        if not (y >= floor if isinstance(y, (float, int)) else np.all(np.asarray(y) >= floor)):
            bad = np.ravel(y)[np.argmin(np.ravel(y) >= floor)]   # the first value refused
            raise DomainError(f"thresholds live in [y0, inf) = [{self.y0}, inf), got {bad}")

    def xi(self, y):
        """Expected time from y0 to the threshold ``y >= y0`` (vectorized)."""
        self._check_domain(y)
        return self._xi_both_sides(y)

    def xi_prime(self, y):
        """xi'(y) = s(y) M[0, y] > 0."""
        self._check_domain(y)
        value = self.s(y) * self.M0(y)
        return float(value) if np.ndim(y) == 0 else value

    def xi_second(self, y):
        """xi''(y) = (2 / sigma^2(y)) * (1 - mu(y) xi'(y)), the generator identity."""
        self._check_domain(y)
        if isinstance(y, float):
            # the safeguarded Newton solve calls this once per step: no numpy round trip
            try:
                sigma2 = float(self.volatility(y)) ** 2
            except OverflowError:
                raise DomainError(f"sigma^2 overflows at x = {y}") from None
            return 2.0 / sigma2 * (1.0 - float(self.drift(y)) * self.s(y) * self.M0(y))
        ya = np.asarray(y, dtype=float)
        mu_y = np.asarray(self.drift(ya))
        sigma2 = np.asarray(self.volatility(ya)) ** 2
        value = 2.0 / sigma2 * (1.0 - mu_y * self.s(y) * self.M0(y))
        return float(value) if np.ndim(y) == 0 else value

    def _xi_both_sides(self, y):
        """``xi(y) = int_{y0}^y M[0,u] s(u) du`` from the table, on both sides of ``y0``.

        For ``x < y`` the expected time from ``x`` to ``y`` is ``xi(y) - xi(x)``.
        """
        if isinstance(y, (float, int)):
            scale, tail = self._table.at(y, _S), self._table.at(y, _XI)
            value = self._mass_below_y0() * scale + tail
        else:
            scale, tail = self._table(y, (_S, _XI))
            with np.errstate(over="ignore"):   # _finite reports an overflow
                value = self._mass_below_y0() * scale + tail
        return self._finite(value, y, "xi")

    def cycle_stock(self, y):
        """``P(y) = int_{y0}^y xm0(u) s(u) du``, on both sides of ``y0``.

        For ``y >= y0`` it is the stock accumulated over one cycle: integration
        by parts turns ``int (S(y)-S(u)) u m(u) du + (S(y)-S(y0)) xm0(y0)``
        into this form (the first-moment analogue of ``xi``). The same parts
        give ``E_x int_0^{tau_c} X = P(c) - P(x)`` for any ``x < c``.
        """
        if isinstance(y, (float, int)):
            scale, tail = self._table.at(y, _S), self._table.at(y, _CYC)
            value = self._first_moment_below_y0() * scale + tail
        else:
            scale, tail = self._table(y, (_S, _CYC))
            with np.errstate(over="ignore"):   # _finite reports an overflow
                value = self._first_moment_below_y0() * scale + tail
        return self._finite(value, y, "cycle stock")

    def speed_mass_total(self) -> float:
        if self.logistic is not None:
            return self._gamma_total(0.0)
        return self._mass_below_y0() + self._table.limit(_M, 1.0)

    def xm_total(self) -> float:
        if self.logistic is not None:
            return self._gamma_total(1.0)
        return self._first_moment_below_y0() + self._table.limit(_XM, 1.0)

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
    notes: tuple[str, ...] = field(default=())

    @property
    def all_passed(self) -> bool:
        return (
            self.speed_mass_finite
            and self.first_moment_finite
            and self.turning_point_ok
            and self.scale_diverges
            and self.entrance_finite
        )

    def to_dict(self) -> dict:
        return {
            "speed_mass_finite": self.speed_mass_finite,
            "speed_mass": self.speed_mass,
            "first_moment_finite": self.first_moment_finite,
            "first_moment": self.first_moment,
            "turning_point_ok": self.turning_point_ok,
            "turning_point": self.turning_point,
            "scale_diverges": self.scale_diverges,
            "scale_probe_x": self.scale_probe_x,
            "scale_probe_value": self.scale_probe_value,
            "entrance_finite": self.entrance_finite,
            "entrance_value": self.entrance_value,
            "all_passed": self.all_passed,
            "notes": list(self.notes),
        }


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
    calc = _calculus(model)
    y0 = model.restart_level
    ref = calc.s(y0)
    x = y0
    values = []
    for _ in range(40):
        x *= 2.0
        try:
            v = calc.s(x)
        except (DivergenceError, DomainError):
            return True, x, math.inf
        if math.isinf(v):
            return True, x, v
        values.append(v)
        if v > 1e8 * max(ref, 1e-300):
            return True, x, v
    tail = values[-6:]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    return (increasing and tail[-1] > 1e2 * ref), x, values[-1]


def validate_assumptions(model: DiffusionModel) -> AssumptionReport:
    """Numerically probe positive recurrence, drift saturation, scale growth and the entrance boundary.

    Failures never raise; they are reported with the numbers that produced them.
    """
    calc = _calculus(model)
    notes: list[str] = []

    try:
        mass = calc.speed_mass_total()
        mass_ok = math.isfinite(mass)
    except DivergenceError as exc:
        mass, mass_ok = math.nan, False
        notes.append(f"speed mass: {exc}")
    try:
        moment = calc.xm_total()
        moment_ok = math.isfinite(moment)
    except DivergenceError as exc:
        moment, moment_ok = math.nan, False
        notes.append(f"first moment: {exc}")

    turning_ok, turning_point, turning_notes = _probe_turning_point(model)
    notes.extend(turning_notes)

    scale_ok, probe_x, probe_value = _probe_scale_divergence(model)
    if not scale_ok:
        notes.append("scale density does not appear to diverge")

    try:
        entrance_value = calc.entrance()
        entrance_ok = math.isfinite(entrance_value)
    except DivergenceError as exc:
        entrance_value, entrance_ok = math.nan, False
        notes.append(f"entrance boundary: {exc}")

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
