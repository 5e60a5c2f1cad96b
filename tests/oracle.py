"""Closed forms that the package's scale/speed table is checked against.

The package computes every model's scale and speed calculus from one table of
Chebyshev panels. The logistic family ``dX = X (g - b X) dt + beta X dW`` and
the Gompertz family ``dX = X (a - b log X) dt + beta X dW`` have explicit
densities, and these closed forms are computed here from them alone, without
the package's table or quadrature stack:

* logistic: ``s``, ``m`` and ``1/s`` explicitly; ``S`` by QUADPACK on the
  explicit ``s``; the speed moments ``int_0^x u^power m`` as lower
  incomplete gamma functions; ``xi`` and the cycle stock as one Kummer
  power series (:meth:`LogisticOracle.series_increment`); ``xi`` also by the
  Green-kernel quadrature, a second independent route;
* Gompertz: ``log s`` is a quadratic in ``log x`` and ``M0`` a normal CDF in
  ``log x``.

It also holds the QUADPACK wrappers (:func:`integrate` and the improper
:func:`integrate_to_zero` and :func:`integrate_to_inf`), which detect and
report divergence instead of truncating; the acceptance criteria and the
quadrature checks integrate the package's densities with them.

:class:`LogisticOracle` has the ``y0``, ``xi`` and ``xi_prime`` that
``helpers.first_order_root`` reads, so an oracle threshold needs no package
solver and no table.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammainc, ndtr

from harvestfield.errors import DivergenceError

_SERIES_REL_EPS = 1e-14
_SERIES_MAX_TERMS = 100_000
_QUAD = dict(epsabs=0.0, epsrel=1e-12, limit=200)


class LogisticOracle:
    """Closed forms of one logistic model's scale/speed calculus, normalized as the package's.

    The formulas take a reference point ``a``: ``s(a) = 1`` and ``S(a) = 0``.
    It is the restart level ``y0``, where the package normalizes; ``xi`` and
    the cycle stock vanish there too. Every method takes a float or an array.
    """

    def __init__(self, model):
        p = model.logistic
        if p is None:
            raise ValueError("the closed forms need a logistic model")
        self.q, self.rho, self.crowding, self.beta = p.q, p.rho, p.crowding, p.beta
        self.growth = p.growth
        self.y0 = model.restart_level
        self.a = model.restart_level
        # m(x) = cm * x^(-2q-1) * exp(-rho x), with log cm carrying the reference point
        self.log_cm = (
            math.log(2.0 / p.beta**2) + (2.0 * p.q - 1.0) * math.log(self.a) + p.rho * self.a
        )
        self._series_at_y0 = self._series_sum(self.rho * self.y0)

    @staticmethod
    def _map(f, x):
        return f(float(x)) if np.ndim(x) == 0 else np.array([f(float(v)) for v in np.ravel(x)])

    # -- densities ----------------------------------------------------------

    def exponent(self, x):
        """``int_a^x 2 mu / sigma^2 = (1 - 2q) log(x/a) - rho (x - a)``."""
        x = np.asarray(x, dtype=float)
        return (1.0 - 2.0 * self.q) * np.log(x / self.a) - self.rho * (x - self.a)

    def s(self, x):
        return np.exp(-self.exponent(x))

    def m(self, x):
        return 2.0 / (self.beta * np.asarray(x, dtype=float)) ** 2 * np.exp(self.exponent(x))

    def S(self, x):
        """``int_a^x s`` by QUADPACK on the explicit ``s``."""
        return self._map(lambda v: quad(lambda u: float(self.s(u)), self.a, v, **_QUAD)[0], x)

    # -- speed integrals from 0 ----------------------------------------------

    def gamma_moment(self, power, x):
        """``int_0^x u^power m(u) du = cm Gamma(shape) rho^-shape P(shape, rho x)``, ``shape = power - 2q``."""
        shape = power - 2.0 * self.q
        total = math.exp(self.log_cm + math.lgamma(shape) - shape * math.log(self.rho))
        return total * gammainc(shape, self.rho * np.asarray(x, dtype=float))

    def M0(self, x):
        return self.gamma_moment(0.0, x)

    def xm0(self, x):
        return self.gamma_moment(1.0, x)

    def mum0(self, x):
        """``int_0^x mu m = 1/s(x)``, since ``1/s`` vanishes at 0 when ``q < 0``."""
        return np.exp(self.exponent(x))

    # -- hitting-time integrals from y0 ---------------------------------------

    def _series_sum(self, t):
        """``A(t) = sum_{n>=1} t^n / (n (1-2q)_n)`` by term recurrence."""
        c = 1.0 - 2.0 * self.q
        t = np.asarray(t, dtype=float)
        term = t / c
        acc = term.copy()
        for n in range(1, _SERIES_MAX_TERMS):
            term = term * t * (n / ((n + 1.0) * (c + n)))
            acc += term
            if np.all(np.abs(term) <= _SERIES_REL_EPS * np.maximum(np.abs(acc), 1e-300)):
                return acc
        raise AssertionError("hitting-time series did not converge within the term budget")

    def series_increment(self, y):
        """``A(rho y) - A(rho y0)``.

        Expanding the lower incomplete gamma functions of ``M0`` and ``xm0`` in
        their Kummer series (DLMF 8.7.1) turns ``M0 s`` and ``xm0 s`` into power
        series in ``rho u`` whose antiderivatives are both this one series:
        ``xi(y) = (log(y/y0) + increment) / (beta^2 |q|)`` and
        ``cycle_stock(y) = increment / b``. The terms overflow past ``rho y``
        of about 700.
        """
        return self._series_sum(self.rho * np.asarray(y, dtype=float)) - self._series_at_y0

    def xi(self, y):
        value = (np.log(np.asarray(y, dtype=float) / self.y0) + self.series_increment(y)) / (
            self.beta**2 * abs(self.q)
        )
        return float(value) if np.ndim(y) == 0 else value

    def cycle_stock(self, y):
        value = self.series_increment(y) / self.crowding
        return float(value) if np.ndim(y) == 0 else value

    def xi_prime(self, y):
        value = self.s(y) * self.M0(y)
        return float(value) if np.ndim(y) == 0 else value

    def xi_second(self, y):
        y = np.asarray(y, dtype=float)
        mu = y * (self.growth - self.crowding * y)
        return 2.0 * self.s(y) / (self.beta * y) ** 2 * (self.mum0(y) - mu * self.M0(y))

    def xi_by_quadrature(self, y):
        """Green-kernel form ``int_{y0}^y (S(y) - S(w)) m(w) dw + (S(y) - S(y0)) M[0, y0]``."""
        return self._map(lambda v: self.running_cost(1.0, 0.0, self.y0, v), y)

    def running_cost(self, rate, holding, x, c):
        """``E_x int_0^{tau_c} (rate + holding X)`` for ``x <= c``, by the Green kernel.

        ``int_x^c (S(c) - S(w)) h(w) m(w) dw + (S(c) - S(x)) int_0^x h m``, with
        ``h = rate + holding w``; ``S(c) - S(w)`` is one QUADPACK integral of the
        explicit ``s`` over ``[w, c]``, and ``int_0^x h m`` the closed-form moments.
        """
        if x == c:
            return 0.0
        gap = lambda w: quad(lambda u: float(self.s(u)), w, c, **_QUAD)[0]   # noqa: E731
        h = lambda w: rate + holding * w   # noqa: E731
        kernel = quad(lambda w: gap(w) * h(w) * float(self.m(w)), x, c, **_QUAD)[0]
        below = rate * float(self.M0(x)) + holding * float(self.xm0(x))
        return kernel + gap(x) * below


def gompertz_log_scale(a, b, beta, y0, x):
    """``log s`` of drift ``x (a - b log x)``, vol ``beta x``, normalized at ``y0``.

    In ``t = log x``, ``d log s / dt = -(2/beta^2)(a - b t)``, so
    ``log s = L(log x) - L(log y0)`` with ``L(t) = -(2/beta^2)(a t - b t^2/2)``.
    """

    def big_l(t):
        return -(2.0 / beta**2) * (a * t - 0.5 * b * t**2)

    return big_l(np.log(x)) - big_l(math.log(y0))


def gompertz_mass(a, b, beta, y0, x):
    """``M[0, x]`` of the same model: ``m du = (2/beta^2) exp(-log s - t) dt`` is a Gaussian in ``t``."""
    p, q = b / beta**2, 2.0 * a / beta**2 - 1.0
    log_mass = (
        math.log(2.0 / beta**2)
        - gompertz_log_scale(a, b, beta, y0, 1.0)
        + q * q / (4.0 * p)
        + 0.5 * math.log(math.pi / p)
    )
    return np.exp(log_mass) * ndtr(math.sqrt(2.0 * p) * (np.log(x) - q / (2.0 * p)))


# ---------------------------------------------------------------------------
# QUADPACK with detected divergence at improper endpoints
# ---------------------------------------------------------------------------

_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_EPS_HALVINGS = 40      # refinement budget toward a 0 endpoint
_TAIL_DOUBLINGS = 60    # interval doublings toward +inf


def integrate(f, lo, hi, *, abs_tol=_ABS_TOL, rel_tol=_REL_TOL, limit=200):
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


def integrate_to_zero(f, hi):
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
    slices = []
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


def integrate_to_inf(f, lo):
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
