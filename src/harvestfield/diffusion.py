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

What the table cannot reach is a per-model constant: the speed integrals from
the entrance boundary 0 up to ``y0`` and out to infinity. Logistic models
``dX = X (g - b X) dt + beta X dW`` read them from lower incomplete gamma
functions; other models integrate the piece next to 0 with
:func:`integrate_to_zero`, which detects divergence there. The logistic
closed forms of the functions themselves live in the test-suite, as the
independent oracle the table is checked against. Each model's calculus is
built on first use and kept on the model instance, so it lives exactly as
long as the model.
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
from .quadrature import integrate_to_inf, integrate_to_zero

__all__ = [
    "LogisticParams",
    "DiffusionModel",
    "AssumptionReport",
    "logistic_model",
    "custom_model",
    "scale_density",
    "speed_density",
    "scale_function",
    "speed_measure",
    "validate_assumptions",
    "model_to_dict",
    "model_from_dict",
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
    drift_source: Optional[str] = None
    vol_source: Optional[str] = None

    def __post_init__(self):
        if self.restart_level <= 0.0:
            raise DomainError("restart level must be positive")
        for x in (self.restart_level / 8.0, self.restart_level, 8.0 * self.restart_level):
            if not float(self.volatility(x)) > 0.0:
                raise DomainError(f"volatility must be positive; got {self.volatility(x)} at x={x}")
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
    if growth is None:
        growth = (0.5 - q) * beta**2
    params = LogisticParams(growth=float(growth), crowding=float(b), beta=float(beta))
    g, bb, bet = params.growth, params.crowding, params.beta
    return DiffusionModel(
        drift=lambda x: x * (g - bb * x),
        volatility=lambda x: bet * x,
        restart_level=float(y0),
        logistic=params,
        drift_source=f"x*({g!r} - {bb!r}*x)",
        vol_source=f"{bet!r}*x",
    )


def custom_model(
    drift: Callable[[float], float],
    volatility: Callable[[float], float],
    y0: float,
    *,
    drift_source: str | None = None,
    vol_source: str | None = None,
) -> DiffusionModel:
    return DiffusionModel(
        drift=drift,
        volatility=volatility,
        restart_level=float(y0),
        logistic=None,
        drift_source=drift_source,
        vol_source=vol_source,
    )


def _vector_coefficients(model: DiffusionModel) -> tuple[Callable, Callable]:
    """Drift and volatility that accept arrays; scalar-only callables are wrapped.

    A scalar-only callable given an array raises ``TypeError`` (``math``
    functions), ``ValueError`` (the truth value of an array) or an
    ``ArithmeticError``; any other error is the callable's own and propagates.
    """
    probe = np.array([model.restart_level, 2.0 * model.restart_level])
    try:
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
_ENTRANCE = 2.0**-40    # relative to y0: below it the speed integrals go through integrate_to_zero

# table components
_LOG_S, _S, _M, _XM, _XI, _CYC = range(6)


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
    * ``XI = int M s`` and ``CYC = int XM s``,

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
    ``XM``; then ``XI``, ``CYC``) is one product for all panels, with the
    edge values chained by ``cumsum``.
    Panel bounds sit at exact multiples of the sample step from ``log y0``
    (or their halves) and every sum runs in the same order whatever the
    batch, so a panel never depends on which query built it and values do
    not depend on the order of the queries. The arrays are replaced
    copy-on-write under a lock, so concurrent readers see a complete table.

    :meth:`at` reads one component at one point without numpy: ``bisect`` on
    the panel edges, then a Clenshaw sum over the panel's coefficients.
    Every component reads exactly 0 at ``y0``.
    """

    def __init__(self, drift: Callable, volatility: Callable, y0: float):
        self._drift = drift
        self._volatility = volatility
        self._t0 = math.log(y0)
        edge = (0, np.zeros(6), 0.0)   # (segments built, component values, sampled log s) at the edge
        # (panel bounds, coefficients (panels, components, orders), the bounds as floats, (left, right))
        self._state = (np.array([self._t0]), np.empty((0, 6, _NODES + 1)), [self._t0], (edge, edge))
        self._lock = threading.Lock()
        self._last = [(math.nan, 0.0)] * 6   # per component, the last scalar read: (x, value)

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

    def _position(self, u, direction: float):
        """log x at ``u`` sample steps outward from y0; exact steps, so every batch agrees."""
        return self._t0 + direction * (u * _STEP)

    def _evaluate(self, x: np.ndarray):
        """``sigma^2``, ``d log s / dt`` and ``m x s`` at the points ``x``, in one call each."""
        flat = x.ravel()
        with np.errstate(all="ignore"):
            sigma2 = np.asarray(self._volatility(flat), dtype=float).reshape(x.shape) ** 2
            rate = -2.0 * np.asarray(self._drift(flat), dtype=float).reshape(x.shape) * x / sigma2
            weight = 2.0 * x / sigma2
        return sigma2, rate, weight

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
        _, rate, _ = self._evaluate(np.exp(self._position(u, direction)))
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
            x = np.exp((0.5 * (lo + hi))[:, None] + (0.5 * width)[:, None] * _TAU)
            sigma2, rate, weight = self._evaluate(x)
            if not np.all(np.isfinite(rate) & np.isfinite(sigma2) & (sigma2 > 0.0)):
                vol_bad = ~np.all((sigma2 > 0.0) & np.isfinite(sigma2), axis=1)
                i = int(np.flatnonzero(vol_bad | ~np.all(np.isfinite(rate), axis=1))[0])
                where = f"[{math.exp(lo[i])}, {math.exp(hi[i])}]"
                if vol_bad[i]:
                    raise DomainError(f"volatility vanishes or is non-finite on {where}")
                raise DivergenceError(f"drift is not finite on {where}")
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
        coef = np.empty((count, 6, _NODES + 1))
        chain = np.empty((6, count + 1))   # per component: the edge value, then each panel's increment
        chain[:, 0] = edge_values
        outer_values = np.empty(6)

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
            _, mass, first = integrate(_S, _XI, np.stack([s_x, m_x, m_x * x]))
            integrate(_XI, _CYC + 1, np.stack([mass * s_x, first * s_x]))
        return coef, outer_values

    @staticmethod
    def _too_many(target: float):
        raise DivergenceError(
            f"scale/speed table exceeds {_MAX_PANELS} panels before x = {math.exp(target)}"
        )


class _Calculus:
    """Per-model scale and speed calculus, read from one table.

    It keeps the model's coefficients, not the model, so the copy cached on
    the model (see :func:`_calculus`) is freed together with the model. The
    table is built on its first query. Logistic models differ only in their
    per-model constants: the speed integrals below ``y0`` and the totals are
    lower incomplete gamma functions, and ``1/s`` vanishes at 0.
    """

    def __init__(self, model: DiffusionModel):
        self.logistic = model.logistic
        self.drift, self.volatility = _vector_coefficients(model)
        self._y0 = y0 = model.restart_level
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
        # minus lim_{u -> 0} 1/s(u) (see mum0); the limit is 0 on logistic models, where q < 0
        self._mum0_offset: float | None = 0.0 if model.logistic is not None else None

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
        (``scipy.special``, imported here on first use). Other
        models read the table down to ``y0 * 2^-40`` and integrate below with
        :func:`integrate_to_zero`, which detects divergence at 0; starting it
        far below ``y0`` keeps its tolerance out of the values near ``y0``.
        """
        p = self.logistic
        if p is not None:
            from scipy.special import gammainc

            shape = power - 2.0 * p.q
            return self._gamma_total(power) * float(gammainc(shape, p.rho * self._y0))
        x_e = self._y0 * _ENTRANCE
        below = integrate_to_zero(lambda u: u**power * self.m(u), x_e)
        return below - self._table.at(x_e, _XM if power else _M)

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

    def mum0(self, x):
        """Drift-weighted speed integral ``int_0^x mu(u) m(u) du``."""
        # mu m = d(1/s)/dx with 1/s = exp(exponent), so mum0(x) = 1/s(x) - lim_{u -> 0} 1/s(u);
        # the offset is minus that limit: the quadrature piece below y0 * 2^-40 minus 1/s there
        if self._mum0_offset is None:
            x_e = self._y0 * _ENTRANCE
            with np.errstate(over="ignore"):
                self._mum0_offset = integrate_to_zero(
                    lambda u: float(self.drift(u)) * self.m(u), x_e
                ) - np.exp(self.exponent(x_e))
        if isinstance(x, float):
            try:
                return self._mum0_offset + math.exp(self.exponent(x))
            except OverflowError:
                return math.inf
        with np.errstate(over="ignore"):
            value = self._mum0_offset + np.exp(self.exponent(x))
        return float(value) if np.ndim(x) == 0 else value

    # -- hitting-time integrals from y0 -------------------------------------

    def xi(self, y):
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
        """``int_{y0}^y xm0(u) s(u) du``, the stock accumulated over one cycle; ``y >= y0``.

        Integration by parts turns the cycle stock integral
        ``int (S(y)-S(u)) u m(u) du + (S(y)-S(y0)) xm0(y0)`` into this form
        (the first-moment analogue of ``xi``), whose integrand needs no nested
        quadrature.
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
        return self.M0(self._y0) + integrate_to_inf(self.m, self._y0)

    def xm_total(self) -> float:
        if self.logistic is not None:
            return self._gamma_total(1.0)
        return self.xm0(self._y0) + integrate_to_inf(lambda u: u * self.m(u), self._y0)


def _calculus(model: DiffusionModel) -> _Calculus:
    """The model's calculus, built on first use and kept on the model instance."""
    calc = model.__dict__.get("_calculus")
    if calc is None:
        calc = model.__dict__.setdefault("_calculus", _Calculus(model))
    return calc


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def scale_density(model: DiffusionModel, x: float):
    """s(x) = exp(-int_{y0}^x 2 mu / sigma^2), so that s(y0) = 1."""
    return _calculus(model).s(x)


def speed_density(model: DiffusionModel, x: float):
    """m(x) = (2 / sigma^2(x)) exp(int_{y0}^x 2 mu / sigma^2); satisfies m s sigma^2 = 2."""
    return _calculus(model).m(x)


def scale_function(model: DiffusionModel, x: float) -> float:
    """S(x) = int_{y0}^x s(u) du, so that S(y0) = 0."""
    return _calculus(model).S(x)


def speed_measure(model: DiffusionModel, lo: float, hi: float) -> float:
    """Speed mass M[lo, hi]; ``lo=0`` and ``hi=inf`` are allowed as improper endpoints."""
    if lo < 0.0 or hi < lo:
        raise DomainError("need 0 <= lo <= hi")
    calc = _calculus(model)
    if lo == hi:
        return 0.0
    if math.isinf(hi):
        total = calc.speed_mass_total()
        return total if lo == 0.0 else total - calc.M0(lo)
    if lo == 0.0:
        return calc.M0(hi)
    return calc.M0(hi) - calc.M0(lo)


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
    notes: list[str] = []
    y0 = model.restart_level
    grid = np.geomspace(y0 * 1e-2, y0 * 1e3, 241)
    mu = np.array([float(model.drift(x)) for x in grid])
    slack = 1e-12 * max(1.0, float(np.max(np.abs(mu))))
    i_star = int(np.argmax(mu))
    if i_star >= len(grid) - 1:
        notes.append("drift still rising at the largest probe point; no saturation found")
        return False, None, notes
    rising = bool(np.all(np.diff(mu[: i_star + 1]) >= -slack)) if i_star > 0 else True
    falling = bool(np.all(np.diff(mu[i_star:]) <= slack))
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

    y0 = model.restart_level
    try:
        s_at_y0 = calc.S(y0)
        entrance_value = integrate_to_zero(lambda u: (s_at_y0 - calc.S(u)) * calc.m(u), y0)
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

def model_to_dict(model: DiffusionModel) -> dict:
    if model.logistic is not None:
        p = model.logistic
        return {"kind": "logistic", "q": p.q, "b": p.crowding, "beta": p.beta, "y0": model.restart_level}
    if model.drift_source is None or model.vol_source is None:
        raise DomainError("custom model without expression sources cannot be serialized")
    return {
        "kind": "custom",
        "drift": model.drift_source,
        "vol": model.vol_source,
        "y0": model.restart_level,
    }


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
    if kind == "logistic":
        return logistic_model(
            q=float(data["q"]),
            b=float(data["b"]),
            beta=float(data["beta"]),
            y0=float(data["y0"]),
        )
    return custom_model(
        parse_expression(data["drift"], "x"),
        parse_expression(data["vol"], "x"),
        float(data["y0"]),
        drift_source=data["drift"],
        vol_source=data["vol"],
    )
