"""Stationary distributions of the uncontrolled, reflected and threshold-controlled process.

The threshold-controlled process regenerates at ``y0`` each cycle, so its
stationary density is the normalized expected occupation measure of one
cycle: ``pi(x) = kappa m(x) (S(y) - S(max(x, y0)))`` on ``(0, y]`` and zero
above the threshold, with ``1/kappa`` equal to the expected cycle length.
The long-run mean stock of any admissible strategy is bracketed by ``z1``
(diffusion reflected downward at y0) and ``z2`` (uncontrolled diffusion).
"""

from __future__ import annotations

import math

import numpy as np

from .diffusion import DiffusionModel, _calculus
from .errors import DomainError

__all__ = [
    "controlled_density",
    "controlled_cdf",
    "expected_stock",
    "reflected_mean",
    "uncontrolled_mean",
    "stock_bounds",
    "density_table",
]

_MIN_GAP = 1e-6  # relative to y0: thresholds this close to y0 degenerate to instant re-impulse
_TABLE_POINTS = 2000  # points of the density table


def _require_threshold(model: DiffusionModel, y) -> None:
    """Refuse a threshold ``y``, or an array of them, within ``_MIN_GAP`` of y0 (and NaN)."""
    low = y if type(y) is float else float(np.min(y, initial=math.inf))
    if not low > model.restart_level * (1.0 + _MIN_GAP):
        raise DomainError(
            f"controlled-law threshold must exceed y0 * (1 + {_MIN_GAP}); got y={low}, y0={model.restart_level}"
        )


def controlled_density(model: DiffusionModel, y: float, x):
    """Stationary density of the threshold-y controlled process at x (vectorized in x)."""
    _require_threshold(model, y)
    calc = _calculus(model)
    kappa = 1.0 / calc.xi(y)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("the state space is (0, inf)")
    inside = xa <= y
    upper = calc.S(y) - calc.S(np.clip(xa[inside], model.restart_level, None))
    value = np.zeros(xa.shape)
    value[inside] = kappa * calc.m(xa[inside]) * upper
    return float(value) if np.ndim(x) == 0 else value


def controlled_cdf(model: DiffusionModel, y: float, x):
    """CDF of the controlled stationary law, read off the scale/speed table.

    At ``v`` in ``(y0, y)`` it is ``kappa (M[0,v] (S(y) - S(v)) + xi(v))``, by
    parts (``S(y0) = 0`` and ``xi(v) = int_{y0}^{v} M[0,u] s(u) du``), so no
    integrals beyond the tabulated ones are needed.
    """
    _require_threshold(model, y)
    calc = _calculus(model)
    kappa = 1.0 / calc.xi(y)
    y0 = model.restart_level
    s_y = calc.S(y)
    xa = np.asarray(x, dtype=float)
    value = np.where(xa >= y, 1.0, 0.0)
    low = (xa > 0.0) & (xa <= y0)
    value[low] = kappa * s_y * calc.M0(xa[low])
    mid = (xa > y0) & (xa < y)
    if np.any(mid):
        v = xa[mid]
        value[mid] = kappa * (calc.M0(v) * (s_y - calc.S(v)) + calc.xi(v))
    return float(value) if np.ndim(x) == 0 else value


def expected_stock(model: DiffusionModel, y):
    """Mean of the controlled stationary law, ``P(y)/xi(y)``; continuous and increasing in y.

    ``P`` is the cycle stock (see ``_Calculus.cycle_stock``) and ``xi`` the
    cycle length. ``y`` is a float or an array of thresholds in any order.
    """
    _require_threshold(model, y)
    calc = _calculus(model)
    xi = calc.xi(y)
    return calc.cycle_stock(y) / xi


def reflected_mean(model: DiffusionModel) -> float:
    """z1: mean of the diffusion reflected downward at y0 (speed density restricted to (0, y0])."""
    calc = _calculus(model)
    y0 = model.restart_level
    mass = calc.M0(y0)
    if not math.isfinite(mass) or mass <= 0.0:
        raise DomainError("speed mass below y0 must be positive and finite")
    return calc.xm0(y0) / mass


def uncontrolled_mean(model: DiffusionModel) -> float:
    """z2: mean of the uncontrolled stationary law m / M(R+). Raises if the mass diverges."""
    calc = _calculus(model)
    return calc.xm_total() / calc.speed_mass_total()


def stock_bounds(model: DiffusionModel) -> tuple[float, float]:
    """(z1, z2): attainable range of long-run mean stocks over admissible strategies."""
    return reflected_mean(model), uncontrolled_mean(model)


def density_table(model: DiffusionModel, y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, pdf, cdf) on a log-spaced grid resolving both the entrance region and the threshold."""
    _require_threshold(model, y)
    y0 = model.restart_level
    xs = np.geomspace(1e-3 * y0, y, _TABLE_POINTS)
    pdf = controlled_density(model, y, xs)
    cdf = controlled_cdf(model, y, xs)
    return xs, pdf, cdf
