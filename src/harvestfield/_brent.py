"""Brent's derivative-free root finder, in plain floats.

Brent, *Algorithms for Minimization without Derivatives* (1973): ``zeroin``
(ch. 4) finds a root inside a sign change by inverse quadratic
interpolation safeguarded by bisection. It is a line-for-line port of
``scipy.optimize.brentq``: the same arithmetic in the same order, so it
returns the same floats after the same number of evaluations. The tests
keep SciPy as its oracle. Porting it keeps ``scipy.optimize`` off the
import path and off every logistic solve.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["zeroin"]

_RTOL = 4.0 * sys.float_info.epsilon      # zeroin's relative x tolerance, as brentq's default


def zeroin(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` between ``a`` and ``b``, where ``f`` changes sign.

    Stops once the bracket is shorter than ``xtol + 4 eps |x|``. Raises
    :class:`ValueError` when ``f(a)`` and ``f(b)`` have the same sign or ``f``
    returns NaN, and :class:`RuntimeError` after ``maxiter`` iterations.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; the root search cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan   # as the IEEE quotient would: the test below then bisects
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")

