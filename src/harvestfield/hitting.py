"""Expected threshold-hitting times and their derivatives.

For a threshold ``y >= y0`` the cycle length of the threshold strategy is
``xi(y) = E_{y0}[time to first reach y]``, read from the model's scale/speed
table (``xi = int_{y0}^{y} M[0,u] s(u) du``, see
:mod:`harvestfield.diffusion`) for every model. The table's ``xi`` also runs
below ``y0``, so the expected time between any two levels ``x < y`` is
``xi(y) - xi(x)``; the stopping problem of :mod:`harvestfield.impulse` reads
its running penalty from it, and a holding cost ``a x`` on the stock from the
table's cycle stock (:meth:`harvestfield.diffusion._Calculus.cycle_stock`) in
the same way.

Derivatives come from the scale/speed calculus directly: ``xi' = s(y) M[0,y]``,
and differentiating it with ``s' = -(2 mu / sigma^2) s`` and ``M[0,y]' = m(y)
= 2 / (sigma^2 s)`` gives the generator identity
``xi'' = (2 / sigma^2(y)) * (1 - mu(y) xi'(y))``, so no second integral is
read. The second derivative changes sign at most once on ``[y0, inf)``, from
concave to convex; the switch point ``y2`` localizes every root bracket used
by the impulse solver.
"""

from __future__ import annotations

import numpy as np

from ._brent import zeroin
from .diffusion import DiffusionModel, _calculus, _drift_probe
from .errors import ConvergenceError, DomainError

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
        """xi''(y) = (2 / sigma^2(y)) * (1 - mu(y) xi'(y)), the generator identity."""
        self._check_domain(y)
        calc = self._calc
        if isinstance(y, float):
            # the safeguarded Newton solve calls this once per step: no numpy round trip
            try:
                sigma2 = float(calc.volatility(y)) ** 2
            except OverflowError:
                raise DomainError(f"sigma^2 overflows at x = {y}") from None
            return 2.0 / sigma2 * (1.0 - float(calc.drift(y)) * calc.s(y) * calc.M0(y))
        ya = np.asarray(y, dtype=float)
        mu_y = np.asarray(calc.drift(ya))
        sigma2 = np.asarray(calc.volatility(ya)) ** 2
        value = 2.0 / sigma2 * (1.0 - mu_y * calc.s(y) * calc.M0(y))
        return float(value) if np.ndim(y) == 0 else value

    # ------------------------------------------------------------------
    # convexity switch
    # ------------------------------------------------------------------

    def drift_turning_point(self) -> float:
        p = self.logistic
        if p is not None:
            return p.growth / (2.0 * p.crowding)
        grid, mu = _drift_probe(self._calc)
        return float(grid[int(np.argmax(mu))])

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
