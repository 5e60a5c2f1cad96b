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

:class:`LogisticOracle` has the ``y0``, ``xi`` and ``xi_prime`` that
``helpers.first_order_root`` reads, so an oracle threshold needs no package
solver and no table.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, ndtr

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
        """Green-kernel form ``int_{y0}^y (S(y) - S(w)) m(w) dw + (S(y) - S(y0)) M[0, y0]``.

        ``S(y) - S(w)`` is one QUADPACK integral of the explicit ``s`` over ``[w, y]``.
        """

        def one(y):
            if y == self.y0:
                return 0.0
            gap = lambda w: quad(lambda u: float(self.s(u)), w, y, **_QUAD)[0]   # noqa: E731
            kernel = quad(lambda w: gap(w) * float(self.m(w)), self.y0, y, **_QUAD)[0]
            return kernel + gap(self.y0) * float(self.M0(self.y0))

        return self._map(one, y)


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
