"""Quadrature helpers: finite integrals and improper endpoints.

Finite smooth segments are delegated to QUADPACK. Improper endpoints (the
entrance boundary at 0 and the +inf tail) are handled explicitly so that
non-convergence is *detected and reported* instead of silently truncated:
the 0 end by halving an inner cutoff until the increment is negligible, the
tail by interval doubling until the contribution is negligible.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

from scipy.integrate import IntegrationWarning, quad

from .errors import DivergenceError

__all__ = [
    "integrate",
    "integrate_to_zero",
    "integrate_to_inf",
]

_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_EPS_HALVINGS = 40      # refinement budget toward a 0 endpoint
_TAIL_DOUBLINGS = 60    # interval doublings toward +inf


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    abs_tol: float = _ABS_TOL,
    rel_tol: float = _REL_TOL,
    limit: int = 200,
) -> float:
    """Integral of ``f`` over the finite interval [lo, hi]."""
    if lo == hi:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(f, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=limit)
    if not math.isfinite(value):
        raise DivergenceError(f"integral over [{lo}, {hi}] is not finite")
    return sign * value


def integrate_to_zero(
    f: Callable[[float], float],
    hi: float,
) -> float:
    """Improper integral of ``f`` over (0, hi].

    The inner cutoff starts at hi/2 and is halved until the added slice is
    below tolerance. For algebraic endpoint singularities the slices form a
    geometric sequence, so once three consecutive slice ratios agree the
    remaining tail is summed by extrapolation; a ratio pinned at 1 is the
    signature of a log-divergent integral, which raises
    :class:`DivergenceError`, as does exhausting the halving budget.
    """
    if hi <= 0.0:
        raise DivergenceError("upper limit must be positive")
    eps = hi / 2.0
    total = integrate(f, eps, hi)
    slices: list[float] = []
    for _ in range(_EPS_HALVINGS):
        slice_value = integrate(f, eps / 2.0, eps)
        total += slice_value
        slices.append(slice_value)
        eps /= 2.0
        if not math.isfinite(total):
            raise DivergenceError("integral toward 0 overflowed")
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        if abs(slice_value) < tol:
            return total
        if len(slices) >= 6 and all(s != 0.0 for s in slices[-4:-1]):
            tail_ratios = [
                slices[k + 1] / slices[k] for k in range(len(slices) - 4, len(slices) - 1)
            ]
            r = tail_ratios[-1]
            drift = max(abs(v - r) for v in tail_ratios) / abs(r)
            if drift < 2e-3:
                if r >= 0.98 and len(slices) >= 8:
                    raise DivergenceError(
                        f"integral toward 0 diverges (slice ratio {r:.4f} does not decay)"
                    )
                if 0.0 < r < 0.98:
                    tail = slice_value * r / (1.0 - r)
                    err_est = abs(tail) * (10.0 * drift + 1e-12) / (1.0 - r)
                    if err_est < tol:
                        return total + tail
    raise DivergenceError(
        f"integral toward 0 did not settle after {_EPS_HALVINGS} refinements "
        f"(last slice {slice_value:.3e})"
    )


def integrate_to_inf(
    f: Callable[[float], float],
    lo: float,
) -> float:
    """Improper integral of ``f`` over [lo, +inf) by interval doubling."""
    a = lo
    width = max(abs(lo), 1.0)
    total = 0.0
    settled = 0
    for _ in range(_TAIL_DOUBLINGS):
        b = a + width
        segment = integrate(f, a, b)
        total += segment
        if not math.isfinite(total) or abs(total) > 1e150:
            raise DivergenceError("tail integral is diverging")
        if abs(segment) < max(_ABS_TOL, _REL_TOL * abs(total)):
            settled += 1
            if settled >= 2:
                return total
        else:
            settled = 0
        a = b
        width *= 2.0
    raise DivergenceError(
        f"tail integral did not settle after {_TAIL_DOUBLINGS} doublings "
        f"(last segment {segment:.3e})"
    )
