"""Expected threshold-hitting times and related running-cost functionals.

For a threshold ``y >= y0`` the cycle length of the threshold strategy is
``xi(y) = E_{y0}[time to first reach y]``, read from the model's scale/speed
table (``xi = int_{y0}^{y} M[0,u] s(u) du``, see
:mod:`harvestfield.diffusion`) for every model. The table's ``xi`` also runs
below ``y0``, so the expected time between any two levels ``x < y`` is
``xi(y) - xi(x)``; the stopping problem of :mod:`harvestfield.impulse` reads
its running penalty from it.

Derivatives come from the scale/speed calculus directly: ``xi' = s(y) M[0,y]``
and ``xi'' = (2 s / sigma^2) * int_0^y (mu(u) - mu(y)) m(u) du``. The second
derivative changes sign at most once on ``[y0, inf)``, from concave to
convex; the switch point ``y2`` localizes every root bracket used by the
impulse solver.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._brent import zeroin
from .diffusion import DiffusionModel, _calculus
from .errors import ConvergenceError, DivergenceError, DomainError
from .quadrature import integrate, integrate_to_zero

__all__ = ["XiEvaluator", "get_evaluator"]

_BRACKET_DOUBLINGS = 60   # budget of every bracket search by doubling


def get_evaluator(model: DiffusionModel) -> "XiEvaluator":
    """Shared evaluator per model, kept on the model instance so it lives as long as the model.

    Everything it caches is value-immutable.
    """
    ev = model.__dict__.get("_evaluator")
    if ev is None:
        ev = model.__dict__.setdefault("_evaluator", XiEvaluator(model))
    return ev


class XiEvaluator:
    """Hitting-time calculus for one immutable model; safe for concurrent reads.

    It keeps the model's calculus, not the model, so the copy cached on the
    model creates no reference cycle.
    """

    def __init__(self, model: DiffusionModel):
        self._calc = _calculus(model)
        self.logistic = model.logistic
        self.y0 = model.restart_level
        self._y2: float | None = None
        self._zero_cost = None   # solved on first use by impulse.zero_cost_threshold

    # ------------------------------------------------------------------
    # xi and its derivatives
    # ------------------------------------------------------------------

    def _check_domain(self, y) -> None:
        if isinstance(y, (float, int)):
            if y < self.y0 * (1.0 - 1e-12):
                raise DomainError(f"thresholds live in [y0, inf) = [{self.y0}, inf)")
            return
        if np.any(np.asarray(y) < self.y0 * (1.0 - 1e-12)):
            raise DomainError(f"thresholds live in [y0, inf) = [{self.y0}, inf)")

    def xi(self, y):
        """Expected time from y0 to the threshold y (vectorized)."""
        self._check_domain(y)
        return self._calc.xi(y)

    def xi_prime(self, y):
        """xi'(y) = s(y) M[0, y] > 0."""
        self._check_domain(y)
        value = self._calc.s(y) * self._calc.M0(y)
        return float(value) if np.ndim(y) == 0 else value

    def xi_second(self, y):
        """xi''(y) = (2 s(y) / sigma^2(y)) * int_0^y (mu(u) - mu(y)) m(u) du."""
        self._check_domain(y)
        calc = self._calc
        if isinstance(y, float):
            # the safeguarded Newton solve calls this once per step: no numpy round trip
            sigma2 = float(calc.volatility(y)) ** 2
            i_of_y = calc.mum0(y) - float(calc.drift(y)) * calc.M0(y)
            return 2.0 * calc.s(y) / sigma2 * i_of_y
        ya = np.asarray(y, dtype=float)
        mu_y = np.asarray(calc.drift(ya))
        sigma2 = np.asarray(calc.volatility(ya)) ** 2
        i_of_y = calc.mum0(y) - mu_y * calc.M0(y)
        value = 2.0 * calc.s(y) / sigma2 * i_of_y
        return float(value) if np.ndim(y) == 0 else value

    # ------------------------------------------------------------------
    # convexity switch
    # ------------------------------------------------------------------

    def drift_turning_point(self) -> float:
        p = self.logistic
        if p is not None:
            return p.growth / (2.0 * p.crowding)
        grid = np.geomspace(self.y0 * 1e-2, self.y0 * 1e3, 241)
        return float(grid[int(np.argmax(self._calc.drift(grid)))])

    def convexity_switch(self) -> float:
        """Smallest y2 >= y0 with xi convex on (y2, inf); cached after the first call."""
        if self._y2 is not None:
            return self._y2
        y0 = self.y0
        if self.xi_second(y0) > 0.0:
            self._y2 = y0
            return y0
        lo = max(y0, self.drift_turning_point())
        if self.xi_second(lo) > 0.0:
            lo, hi = y0, lo
        else:
            hi = lo
            for _ in range(_BRACKET_DOUBLINGS):
                hi *= 2.0
                if self.xi_second(hi) > 0.0:
                    break
                lo = hi
            else:
                raise ConvergenceError("xi never turned convex within the doubling budget")
        tol = 1e-10 * max(1.0, hi)
        y2 = zeroin(self.xi_second, lo, hi, xtol=tol)
        while not self.xi_second(y2) > 0.0:   # report a point on the convex side
            y2 = min(y2 + tol, hi)
        self._y2 = y2
        return y2

    # ------------------------------------------------------------------
    # running costs
    # ------------------------------------------------------------------

    def expected_running_cost(
        self, h: Callable[[float], float], x: float, b: float
    ) -> float:
        """E_x[int_0^{tau_b} h(X_s) ds] for continuous nonnegative h of linear growth."""
        if not 0.0 < x < b:
            raise DomainError("need 0 < x < b")
        calc = self._calc
        s_at_b = calc.S(b)
        kernel = integrate(lambda u: (s_at_b - calc.S(u)) * float(h(u)) * calc.m(u), x, b)
        try:
            below = integrate_to_zero(lambda u: float(h(u)) * calc.m(u), x)
        except DivergenceError as exc:
            raise DomainError(f"h is incompatible with the entrance region: {exc}") from exc
        return kernel + (s_at_b - calc.S(x)) * below
