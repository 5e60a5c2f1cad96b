"""One-dimensional regular diffusions on (0, inf): scale/speed calculus.

A :class:`DiffusionModel` bundles drift and volatility with a restart level
``y0`` (where impulses put the state) and a reference point ``a`` anchoring
the scale integrals. Only differences of the scale function and products of
scale and speed densities ever enter downstream formulas, so the choice of
``a`` is immaterial; it defaults to ``y0``.

The scale density, speed density and their integrals come in two routes:

* a tabulated route valid for any sufficiently nice coefficients: one table
  per model integrates ``log s``, ``S``, the speed integrals and the
  hitting-time integral ``xi = int M[0,u] s(u) du`` on Chebyshev panels in
  ``log x`` (:class:`_Table`); only the piece of each speed integral next
  to the entrance boundary 0 goes through :func:`integrate_to_zero`, which
  detects divergence there;
* closed forms for the logistic family ``dX = X (g - b X) dt + beta X dW``,
  whose speed integrals reduce to lower incomplete gamma functions.

The two routes are deliberately kept independent; the test-suite pins their
agreement. Each model's calculus is built on first use and kept on the model
instance, so it lives exactly as long as the model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander
from scipy.special import gammainc, gammaln

from .config import DEFAULT_NUMERICS, NumericsConfig
from .errors import DivergenceError, DomainError
from .quadrature import CumulativeIntegral, integrate_to_inf, integrate_to_zero

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
    reference_point: float
    logistic: Optional[LogisticParams] = None
    drift_source: Optional[str] = None
    vol_source: Optional[str] = None

    def __post_init__(self):
        if self.restart_level <= 0.0:
            raise DomainError("restart level must be positive")
        if self.reference_point <= 0.0:
            raise DomainError("reference point must be positive")
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
    reference_point: float | None = None,
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
        reference_point=float(y0 if reference_point is None else reference_point),
        logistic=params,
        drift_source=f"x*({g!r} - {bb!r}*x)",
        vol_source=f"{bet!r}*x",
    )


def custom_model(
    drift: Callable[[float], float],
    volatility: Callable[[float], float],
    y0: float,
    *,
    reference_point: float | None = None,
    drift_source: str | None = None,
    vol_source: str | None = None,
) -> DiffusionModel:
    return DiffusionModel(
        drift=drift,
        volatility=volatility,
        restart_level=float(y0),
        reference_point=float(y0 if reference_point is None else reference_point),
        logistic=None,
        drift_source=drift_source,
        vol_source=vol_source,
    )


def _vector_coefficients(model: DiffusionModel) -> tuple[Callable, Callable]:
    """Drift and volatility that accept arrays; scalar-only callables are wrapped."""
    probe = np.array([model.restart_level, 2.0 * model.restart_level])
    try:
        if np.shape(model.drift(probe)) == probe.shape and np.shape(
            model.volatility(probe)
        ) == probe.shape:
            return model.drift, model.volatility
    except Exception:
        pass
    return np.vectorize(model.drift, otypes=[float]), np.vectorize(
        model.volatility, otypes=[float]
    )


# ---------------------------------------------------------------------------
# the tabulated route
# ---------------------------------------------------------------------------

# Chebyshev-Lobatto nodes on [-1, 1] and the maps from integrand values at them
# to the Chebyshev coefficients of the antiderivative that vanishes at -1, and
# to that antiderivative's values at the nodes.
_NODES = 17
_TAU = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))
_ORDERS = np.arange(_NODES + 1)
_TO_COEFFICIENTS = np.linalg.inv(chebvander(_TAU, _NODES - 1))
_ANTIDERIVATIVE = chebint(np.eye(_NODES), lbnd=-1) @ _TO_COEFFICIENTS
_ANTIDERIVATIVE_AT_NODES = chebvander(_TAU, _NODES) @ _ANTIDERIVATIVE
_TAIL = _TO_COEFFICIENTS[-2:]   # node values -> the top two coefficients

_PANEL_MAX = 0.5        # widest panel in log x
_PANEL_MIN = 1e-9       # narrowest panel; accepted even if it fails the checks
_PANEL_SPREAD = 2.0     # bound on the change of log s (plus 2) across one panel
_PANEL_TAIL = 1e-13     # bound on the top Chebyshev coefficients of each integrand
_EXP_SATURATED = 800.0  # |log s| beyond which s and m are 0 or inf in double precision
_MAX_PANELS = 20_000
_ENTRANCE = 2.0**-40    # relative to y0: below it the speed integrals go through integrate_to_zero

# table components
_LOG_S, _S, _M, _XM, _XI, _CYC = range(6)


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

    Panels are added outward from ``y0``, one at a time from the previous
    panel's edge values, only as far as a query needs; a panel's values
    therefore do not depend on the order of the queries. The arrays are
    replaced copy-on-write under a lock, so concurrent readers see a complete
    table.
    """

    def __init__(self, drift: Callable, volatility: Callable, y0: float):
        self._drift = drift
        self._volatility = volatility
        t0 = math.log(y0)
        edge = (t0, np.zeros(6), _PANEL_MAX)   # (log x, component values, next width)
        # (panel bounds, coefficients (panels, components, orders), left edge, right edge)
        self._state = (np.array([t0]), np.empty((0, 6, _NODES + 1)), edge, edge)
        self._lock = threading.Lock()

    def __call__(self, x, components) -> np.ndarray:
        """One component (an int) or several (a tuple) at x > 0.

        Several components come back stacked along a new first axis.
        """
        if np.ndim(x) == 0:
            t = math.log(x)
            bounds, coef, _, _ = self._cover(t, t)
            k = min(max(int(np.searchsorted(bounds, t, side="right")) - 1, 0), len(bounds) - 2)
            lo, hi = float(bounds[k]), float(bounds[k + 1])
            tau = min(max((2.0 * t - lo - hi) / (hi - lo), -1.0), 1.0)
            # T_j(tau) = cos(j arccos tau)
            return coef[k, components] @ np.cos(_ORDERS * math.acos(tau))
        t = np.log(np.asarray(x, dtype=float))
        if t.size == 0:
            return np.zeros(np.shape(components) + t.shape)
        bounds, coef, _, _ = self._cover(float(np.min(t)), float(np.max(t)))
        k = np.minimum(np.maximum(np.searchsorted(bounds, t, side="right") - 1, 0), len(bounds) - 2)
        lo, hi = bounds[k], bounds[k + 1]
        tau = np.minimum(np.maximum((2.0 * t - lo - hi) / (hi - lo), -1.0), 1.0)
        chebyshev = np.cos(np.multiply.outer(np.arccos(tau), _ORDERS))
        rows = coef[k][..., np.atleast_1d(components), :]
        values = np.einsum("...ck,...k->c...", rows, chebyshev)
        return values if np.ndim(components) else values[0]

    def _cover(self, t_lo: float, t_hi: float):
        state = self._state
        bounds = state[0]
        if bounds[0] <= t_lo and t_hi <= bounds[-1] and len(bounds) > 1:
            return state
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
            raise DivergenceError("scale/speed table requested at x = 0 or x = inf")
        with self._lock:
            bounds, coef, left, right = self._state
            if t_hi > bounds[-1] or len(bounds) == 1:
                new_bounds, new_coef, right = self._grow(right, 1.0, t_hi, len(bounds))
                bounds = np.concatenate([bounds, new_bounds])
                coef = np.concatenate([coef, new_coef])
            if t_lo < bounds[0]:
                new_bounds, new_coef, left = self._grow(left, -1.0, t_lo, len(bounds))
                bounds = np.concatenate([new_bounds[::-1], bounds])
                coef = np.concatenate([new_coef[::-1], coef])
            self._state = (bounds, coef, left, right)
            return self._state

    def _grow(self, edge, direction: float, target: float, count: int):
        """Panels from ``edge`` outward (direction +1 or -1) until one passes ``target``."""
        t, values, width = edge
        new_bounds, new_coef = [], []
        while direction * (target - t) >= 0.0:
            if count + len(new_bounds) > _MAX_PANELS:
                raise DivergenceError(
                    f"scale/speed table exceeds {_MAX_PANELS} panels before x = {math.exp(target)}"
                )
            t, values, width, coef = self._panel(t, values, width, direction)
            new_bounds.append(t)
            new_coef.append(coef)
        coef = np.array(new_coef).reshape(-1, 6, _NODES + 1)
        return np.array(new_bounds), coef, (t, values, width)

    def _panel(self, t: float, edge_values: np.ndarray, width: float, direction: float):
        """One panel next to the edge at ``t``; returns its outer edge and coefficients."""
        saturated = abs(edge_values[_LOG_S]) > _EXP_SATURATED
        while True:
            lo, hi = (t, t + width) if direction > 0 else (t - width, t)
            x = np.exp(0.5 * (lo + hi) + 0.5 * width * _TAU)
            with np.errstate(all="ignore"):
                sigma2 = np.asarray(self._volatility(x), dtype=float) ** 2
                if not np.all((sigma2 > 0.0) & np.isfinite(sigma2)):
                    raise DomainError(
                        f"volatility vanishes or is non-finite on [{math.exp(lo)}, {math.exp(hi)}]"
                    )
                rate = -2.0 * np.asarray(self._drift(x), dtype=float) * x / sigma2  # d log s / dt
                weight = 2.0 * x / sigma2                                          # m x s
            if not np.all(np.isfinite(rate)):
                raise DivergenceError(f"drift is not finite on [{math.exp(lo)}, {math.exp(hi)}]")
            if width > _PANEL_MIN:
                spread = np.max(np.abs(rate)) + 2.0
                if not saturated and width * spread > _PANEL_SPREAD:
                    width = 0.9 * _PANEL_SPREAD / spread
                    continue
                if (np.sum(np.abs(_TAIL @ rate)) * width > _PANEL_TAIL
                        or np.sum(np.abs(_TAIL @ weight)) > _PANEL_TAIL * np.max(weight)):
                    width *= 0.5
                    continue
            break

        half = 0.5 * width
        coef = np.empty((6, _NODES + 1))
        outer = np.empty(6)

        def integrate(component: int, integrand: np.ndarray) -> np.ndarray:
            local = half * (_ANTIDERIVATIVE_AT_NODES @ integrand)
            # the edge value sits at the panel's left end going right, at its right end going left
            start = edge_values[component] - (local[-1] if direction < 0 else 0.0)
            coef[component] = half * (_ANTIDERIVATIVE @ integrand)
            coef[component, 0] += start
            outer[component] = start + local[-1] if direction > 0 else start
            return start + local

        with np.errstate(over="ignore", invalid="ignore"):
            log_s = integrate(_LOG_S, rate)
            s_x = np.exp(log_s) * x
            m_x = weight * np.exp(-log_s)
            integrate(_S, s_x)
            mass = integrate(_M, m_x)
            first = integrate(_XM, m_x * x)
            integrate(_XI, mass * s_x)
            integrate(_CYC, first * s_x)
        next_width = min(_PANEL_MAX, 2.0 * width)
        return (hi if direction > 0 else lo), outer, next_width, coef


class _Calculus:
    """Per-model scale and speed calculus: closed forms for logistic models, a table otherwise.

    It keeps the model's coefficients, not the model, so the copy cached on
    the model (see :func:`_calculus`) is freed together with the model.
    """

    def __init__(self, model: DiffusionModel, numerics: NumericsConfig = DEFAULT_NUMERICS):
        self.numerics = numerics
        self.logistic = model.logistic
        self.drift, self.volatility = _vector_coefficients(model)
        self._y0 = model.restart_level
        a = model.reference_point
        self._a = a
        if model.logistic is not None:
            p = model.logistic
            # m(x) = cm * x^(-2q-1) * exp(-rho x) with all reference dependence in cm
            self._cm = (2.0 / p.beta**2) * a ** (2.0 * p.q - 1.0) * math.exp(p.rho * a)
            self._scale_cum = CumulativeIntegral(self.s, a)
            self._cycle_stock_cum: CumulativeIntegral | None = None
        else:
            self._table = _Table(self.drift, self.volatility, self._y0)
            # s and S are normalized at a, the table at y0: s = table s / c, m = c * table m
            self._log_s_a = float(self._table(a, _LOG_S))
            self._scale_a = float(self._table(a, _S))
            self._c = math.exp(self._log_s_a)
        self._m0_at_y0: float | None = None
        self._xm0_at_y0: float | None = None
        # minus lim_{u -> 0} 1/s(u) (see mum0); the limit is 0 on logistic models, where q < 0
        self._mum0_offset: float | None = 0.0 if model.logistic is not None else None

    # -- densities ---------------------------------------------------------

    def exponent(self, x):
        """int_a^x 2 mu / sigma^2, so that s = exp(-exponent)."""
        p = self.logistic
        a = self._a
        if p is None:
            value = self._log_s_a - self._table(x, _LOG_S)
            return float(value) if np.ndim(x) == 0 else value
        if isinstance(x, float):
            return (1.0 - 2.0 * p.q) * math.log(x / a) - p.rho * (x - a)
        return (1.0 - 2.0 * p.q) * np.log(np.asarray(x) / a) - p.rho * (np.asarray(x) - a)

    def s(self, x):
        if isinstance(x, (float, int)):
            if x <= 0.0:
                raise DomainError("scale density needs x > 0")
            if self.logistic is None:
                with np.errstate(over="ignore"):
                    return float(np.exp(-self.exponent(float(x))))
            return math.exp(-self.exponent(float(x)))
        if np.any(np.asarray(x) <= 0.0):
            raise DomainError("scale density needs x > 0")
        with np.errstate(over="ignore"):
            value = np.exp(-self.exponent(x))
        return float(value) if np.ndim(x) == 0 else value

    def m(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= 0.0):
            raise DomainError("speed density needs x > 0")
        if isinstance(x, (float, int)):
            sigma2 = float(self.volatility(float(x))) ** 2
            return 2.0 / sigma2 * math.exp(self.exponent(float(x)))
        value = 2.0 / np.asarray(self.volatility(xa)) ** 2 * np.exp(self.exponent(xa))
        return float(value) if np.ndim(x) == 0 else value

    # -- scale function ----------------------------------------------------

    def S(self, x):
        if np.any(np.asarray(x) <= 0.0):
            raise DomainError("scale function needs x > 0")
        if self.logistic is not None:
            if np.ndim(x) != 0:
                return np.array([self._scale_cum(float(v)) for v in np.asarray(x)])
            return self._scale_cum(float(x))
        return self._finite((self._table(x, _S) - self._scale_a) / self._c, x, "S")

    @staticmethod
    def _finite(value, x, name: str):
        if not np.all(np.isfinite(value)):
            raise DivergenceError(
                f"{name} overflows at the requested points (largest x = {np.max(x)})"
            )
        return float(value) if np.ndim(x) == 0 else value

    # -- cumulative speed integrals from 0 ----------------------------------

    def _gamma_moment(self, power: float, x) -> float:
        """Closed form of ``int_0^x u^power m(u) du`` for logistic models."""
        p = self.logistic
        shape = power - 2.0 * p.q
        scale = math.exp(gammaln(shape)) * p.rho ** (-shape)
        if isinstance(x, (float, int)):
            return self._cm * scale * float(gammainc(shape, p.rho * float(x)))
        value = self._cm * scale * gammainc(shape, p.rho * np.asarray(x))
        return float(value) if np.ndim(x) == 0 else value

    def _below_restart(self, weight: Callable[[float], float], component: int) -> float:
        """``int_0^{y0} weight m``: the table down to ``y0 * 2^-40``, quadrature below.

        The quadrature piece keeps divergence at 0 detected by
        :func:`integrate_to_zero`; starting it far below ``y0`` keeps its
        tolerance out of the values near ``y0``.
        """
        x_e = self._y0 * _ENTRANCE
        below = integrate_to_zero(lambda u: weight(u) * self.m(u), x_e, numerics=self.numerics)
        return below - self._c * float(self._table(x_e, component))

    def _mass_below_y0(self) -> float:
        if self._m0_at_y0 is None:
            self._m0_at_y0 = self._below_restart(lambda u: 1.0, _M)
        return self._m0_at_y0

    def _first_moment_below_y0(self) -> float:
        if self._xm0_at_y0 is None:
            self._xm0_at_y0 = self._below_restart(lambda u: u, _XM)
        return self._xm0_at_y0

    def M0(self, x):
        """Speed mass M[0, x]."""
        if self.logistic is not None:
            return self._gamma_moment(0.0, x)
        value = self._mass_below_y0() + self._c * self._table(x, _M)
        return float(value) if np.ndim(x) == 0 else value

    def xm0(self, x):
        """First speed moment ``int_0^x u m(u) du``."""
        if self.logistic is not None:
            return self._gamma_moment(1.0, x)
        value = self._first_moment_below_y0() + self._c * self._table(x, _XM)
        return float(value) if np.ndim(x) == 0 else value

    def mum0(self, x):
        """Drift-weighted speed integral ``int_0^x mu(u) m(u) du``."""
        # mu m = d(1/s)/dx with 1/s = exp(exponent), so mum0(x) = 1/s(x) - lim_{u -> 0} 1/s(u);
        # the offset is minus that limit: the quadrature piece below y0 * 2^-40 minus 1/s there
        with np.errstate(over="ignore"):
            if self._mum0_offset is None:
                x_e = self._y0 * _ENTRANCE
                self._mum0_offset = integrate_to_zero(
                    lambda u: float(self.drift(u)) * self.m(u), x_e, numerics=self.numerics
                ) - np.exp(self.exponent(x_e))
            value = self._mum0_offset + np.exp(self.exponent(x))
        return float(value) if np.ndim(x) == 0 else value

    # -- hitting-time integrals from y0 (tabulated route only) ----------------

    def xi(self, y):
        """``xi(y) = int_{y0}^y M[0,u] s(u) du`` from the table; ``y >= y0``."""
        scale, tail = self._table(y, (_S, _XI))
        return self._finite(self._mass_below_y0() / self._c * scale + tail, y, "xi")

    def cycle_stock(self, y):
        """``int_{y0}^y xm0(u) s(u) du``, the stock accumulated over one cycle; ``y >= y0``.

        Integration by parts turns the cycle stock integral
        ``int (S(y)-S(u)) u m(u) du + (S(y)-S(y0)) xm0(y0)`` into this form
        (the first-moment analogue of ``xi``), whose integrand needs no nested
        quadrature.
        """
        if self.logistic is not None:
            if self._cycle_stock_cum is None:
                self._cycle_stock_cum = CumulativeIntegral(
                    lambda u: self.xm0(u) * self.s(u), self._y0
                )
            if np.ndim(y) != 0:
                return np.array([self._cycle_stock_cum(float(v)) for v in np.asarray(y)])
            return self._cycle_stock_cum(float(y))
        scale, tail = self._table(y, (_S, _CYC))
        value = self._first_moment_below_y0() / self._c * scale + tail
        return self._finite(value, y, "cycle stock")

    def speed_mass_total(self) -> float:
        if self.logistic is not None:
            p = self.logistic
            shape = -2.0 * p.q
            return self._cm * math.exp(gammaln(shape)) * p.rho ** (-shape)
        return self.M0(self._y0) + integrate_to_inf(self.m, self._y0, numerics=self.numerics)

    def xm_total(self) -> float:
        if self.logistic is not None:
            p = self.logistic
            shape = 1.0 - 2.0 * p.q
            return self._cm * math.exp(gammaln(shape)) * p.rho ** (-shape)
        return self.xm0(self._y0) + integrate_to_inf(
            lambda u: u * self.m(u), self._y0, numerics=self.numerics
        )


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
    """s(x) = exp(-int_a^x 2 mu / sigma^2)."""
    return _calculus(model).s(x)


def speed_density(model: DiffusionModel, x: float):
    """m(x) = (2 / sigma^2(x)) exp(int_a^x 2 mu / sigma^2); satisfies m s sigma^2 = 2."""
    return _calculus(model).m(x)


def scale_function(model: DiffusionModel, x: float) -> float:
    """S(x) = int_a^x s(u) du, normalized by S(a) = 0."""
    return _calculus(model).S(x)


def speed_measure(
    model: DiffusionModel,
    lo: float,
    hi: float,
    *,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> float:
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
        except (OverflowError, DomainError):
            return True, x, math.inf
        if math.isinf(v):
            return True, x, v
        values.append(v)
        if v > 1e8 * max(ref, 1e-300):
            return True, x, v
    tail = values[-6:]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    return (increasing and tail[-1] > 1e2 * ref), x, values[-1]


def validate_assumptions(
    model: DiffusionModel, *, numerics: NumericsConfig = DEFAULT_NUMERICS
) -> AssumptionReport:
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
        entrance_value = integrate_to_zero(
            lambda u: (s_at_y0 - calc.S(u)) * calc.m(u), y0, numerics=numerics
        )
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
        d = {"kind": "logistic", "q": p.q, "b": p.crowding, "beta": p.beta, "y0": model.restart_level}
    else:
        if model.drift_source is None or model.vol_source is None:
            raise DomainError("custom model without expression sources cannot be serialized")
        d = {
            "kind": "custom",
            "drift": model.drift_source,
            "vol": model.vol_source,
            "y0": model.restart_level,
        }
    if model.reference_point != model.restart_level:
        d["reference_point"] = model.reference_point
    return d


def model_from_dict(data: dict) -> DiffusionModel:
    from .expressions import parse_expression

    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("model spec must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "logistic":
        keys = {"q", "b", "beta", "y0"}
        missing = keys - data.keys()
        if missing:
            raise DomainError(f"logistic model spec is missing {sorted(missing)}")
        return logistic_model(
            q=float(data["q"]),
            b=float(data["b"]),
            beta=float(data["beta"]),
            y0=float(data["y0"]),
            reference_point=data.get("reference_point"),
        )
    if kind == "custom":
        keys = {"drift", "vol", "y0"}
        missing = keys - data.keys()
        if missing:
            raise DomainError(f"custom model spec is missing {sorted(missing)}")
        drift = parse_expression(data["drift"], "x")
        vol = parse_expression(data["vol"], "x")
        ref = data.get("reference_point")
        return custom_model(
            drift,
            vol,
            float(data["y0"]),
            reference_point=None if ref is None else float(ref),
            drift_source=data["drift"],
            vol_source=data["vol"],
        )
    raise DomainError(f"unknown model kind {kind!r}")
