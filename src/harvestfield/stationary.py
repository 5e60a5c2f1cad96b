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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusion import DiffusionModel, _calculus
from .errors import DomainError
from .hitting import get_evaluator

__all__ = [
    "StationaryDensity",
    "controlled_density",
    "controlled_stationary",
    "controlled_cdf",
    "expected_stock",
    "reflected_mean",
    "uncontrolled_mean",
    "stock_bounds",
    "density_table",
]

_MIN_GAP = 1e-6  # thresholds this close to y0 degenerate to instant re-impulse
_TABLE_POINTS = 2000  # points of the density table


@dataclass(frozen=True)
class StationaryDensity:
    """A stationary law with its normalization constant and support bound."""

    kind: str                      # "uncontrolled" | "reflected_at_y0" | "controlled"
    normalization: float           # kappa
    support_upper: float           # y for controlled laws, inf otherwise
    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    mean: float


def _require_threshold(model: DiffusionModel, y: float) -> None:
    if not y > model.restart_level + _MIN_GAP:
        raise DomainError(
            f"controlled-law threshold must exceed y0 + {_MIN_GAP}; got y={y}, y0={model.restart_level}"
        )


def controlled_density(model: DiffusionModel, y: float, x):
    """Stationary density of the threshold-y controlled process at x (vectorized in x)."""
    _require_threshold(model, y)
    calc = _calculus(model)
    kappa = 1.0 / get_evaluator(model).xi(y)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("the state space is (0, inf)")
    inside = xa <= y
    upper = calc.S(y) - calc.S(np.clip(xa[inside], model.restart_level, None))
    value = np.zeros(xa.shape)
    value[inside] = kappa * calc.m(xa[inside]) * upper
    return float(value) if np.ndim(x) == 0 else value


def controlled_cdf(model: DiffusionModel, y: float, x):
    """CDF of the controlled stationary law, exact up to quadrature tolerance.

    Uses ``int_{y0}^{v} m S du = M[0,v] S(v) - M[0,y0] S(y0) - xi(v)`` (by
    parts, since ``xi(v) = int_{y0}^{v} M[0,u] s(u) du``), so no extra
    integrals beyond the cached ones are needed.
    """
    _require_threshold(model, y)
    calc = _calculus(model)
    ev = get_evaluator(model)
    kappa = 1.0 / ev.xi(y)
    y0 = model.restart_level
    s_y, s_y0 = calc.S(y), calc.S(y0)
    m0_y0 = calc.M0(y0)
    xa = np.asarray(x, dtype=float)
    value = np.where(xa >= y, 1.0, 0.0)
    low = (xa > 0.0) & (xa <= y0)
    value[low] = kappa * (s_y - s_y0) * calc.M0(xa[low])
    mid = (xa > y0) & (xa < y)
    if np.any(mid):
        v = xa[mid]
        m0_v = calc.M0(v)
        ms_v = m0_v * calc.S(v) - m0_y0 * s_y0 - ev.xi(v)
        value[mid] = kappa * ((s_y - s_y0) * m0_y0 + s_y * (m0_v - m0_y0) - ms_v)
    return float(value) if np.ndim(x) == 0 else value


def expected_stock(model: DiffusionModel, y, xi=None):
    """Mean of the controlled stationary law; continuous and increasing in y.

    ``y`` is a float or an array of thresholds in any order. ``xi``, the
    cycle length ``xi(y)``, is computed unless given. A float takes no numpy
    call, since the stock channel's root finder prices one point at a time.
    """
    if isinstance(y, (float, int)):
        y = float(y)
        _require_threshold(model, y)
    else:
        y = np.asarray(y, dtype=float)
        _require_threshold(model, float(y.min(initial=math.inf)))
    if xi is None:
        xi = get_evaluator(model).xi(y)
    return _calculus(model).cycle_stock(y) / xi


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


def controlled_stationary(model: DiffusionModel, y: float) -> StationaryDensity:
    _require_threshold(model, y)
    ev = get_evaluator(model)
    return StationaryDensity(
        kind="controlled",
        normalization=1.0 / ev.xi(y),
        support_upper=float(y),
        pdf=lambda x: controlled_density(model, y, x),
        cdf=lambda x: controlled_cdf(model, y, x),
        mean=expected_stock(model, y),
    )


def density_table(model: DiffusionModel, y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, pdf, cdf) on a log-spaced grid resolving both the entrance region and the threshold."""
    _require_threshold(model, y)
    y0 = model.restart_level
    xs = np.geomspace(1e-3 * y0, y, _TABLE_POINTS)
    pdf = controlled_density(model, y, xs)
    cdf = controlled_cdf(model, y, xs)
    return xs, pdf, cdf
