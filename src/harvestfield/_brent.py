"""Brent's derivative-free root finder and bounded minimizer, in plain floats.

Brent, *Algorithms for Minimization without Derivatives* (1973): ``zeroin``
(ch. 4) finds a root inside a sign change by inverse quadratic
interpolation safeguarded by bisection, and ``localmin`` (ch. 5) minimizes
on an interval by parabolic steps safeguarded by golden section. Both are
line-for-line ports of SciPy's versions (``scipy.optimize.brentq`` and the
``bounded`` method of ``scipy.optimize.minimize_scalar``): the same
arithmetic in the same order, so they return the same floats after the same
number of evaluations. The tests keep SciPy as their oracle. Porting them
keeps ``scipy.optimize`` off the import path and off every logistic solve.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["zeroin", "localmin"]

_RTOL = 4.0 * sys.float_info.epsilon      # zeroin's relative x tolerance, as brentq's default
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


def localmin(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xatol: float,
    maxfun: int = 500,
) -> tuple[float, float, int]:
    """Minimize ``f`` on ``[lo, hi]`` (finite, ``lo <= hi``); returns ``(x, f(x), evaluations)``.

    The x tolerance at ``x`` is ``xatol + 3 sqrt(eps) |x|`` (eps = 2.2e-16).
    The search stops after ``maxfun`` evaluations whether or not it has
    converged. NaN values of ``f`` are never accepted as a new best point.
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num
