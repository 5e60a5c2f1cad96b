"""The in-package Brent routines against SciPy's, which stay the oracle.

``zeroin`` and ``localmin`` are ports of ``scipy.optimize.brentq`` and of
``minimize_scalar(method="bounded")``: on every seeded random function they
must return the same floats, bit for bit, after the same number of
evaluations, and fail the same way.
"""

import math
import random

import pytest
from scipy.optimize import brentq, minimize_scalar

from harvestfield._brent import localmin, zeroin

CASES = 1000


def _random_function(rng: random.Random):
    """A smooth random function of one float: a few weighted terms around a centre."""
    c = rng.uniform(-5.0, 5.0)
    terms = [
        (rng.uniform(-2.0, 2.0), lambda u: u),
        (rng.uniform(-1.0, 1.0), lambda u: u**2),
        (rng.uniform(-1.0, 1.0), lambda u: u**3),
        (rng.uniform(-3.0, 3.0), math.sin),
        (rng.uniform(-1.0, 1.0), lambda u: math.exp(-(u**2))),
        (rng.uniform(-2.0, 2.0), math.tanh),
        (rng.uniform(-1.0, 1.0), math.atan),
    ]
    terms = rng.sample(terms, rng.randint(1, len(terms)))
    offset = rng.uniform(-1.0, 1.0)
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    return lambda x: scale * (offset + sum(w * g(x - c) for w, g in terms))


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def _outcome(solve, f):
    counted = _Counted(f)
    try:
        result = solve(counted)
    except (ValueError, RuntimeError) as exc:
        return type(exc), counted.calls
    return result, counted.calls


def _bits(values):
    return [float(v).hex() for v in values]


def test_zeroin_matches_brentq_bit_for_bit():
    rng = random.Random(20231)
    roots = bad_brackets = exhausted = 0
    for _ in range(CASES):
        f = _random_function(rng)
        if rng.random() < 0.2:
            # values near the subnormal range, where a secant slope can underflow to 0
            tiny, smooth = 10.0 ** rng.uniform(-323.0, -318.0), f
            f = lambda x, tiny=tiny, smooth=smooth: tiny * smooth(x)  # noqa: E731
        a = rng.uniform(-10.0, 5.0)
        b = a + 10.0 ** rng.uniform(-3.0, 1.5)
        if rng.random() < 0.2:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-15.0, -2.0)
        maxiter = rng.choice([100, 100, 100, 5])
        ours = _outcome(lambda g: zeroin(g, a, b, xtol=xtol, maxiter=maxiter), f)
        theirs = _outcome(lambda g: brentq(g, a, b, xtol=xtol, maxiter=maxiter), f)
        if isinstance(theirs[0], float):
            assert isinstance(ours[0], float), (a, b, theirs, ours)
            assert _bits([ours[0], f(ours[0])]) == _bits([theirs[0], f(theirs[0])])
            assert ours[1] == theirs[1]
            roots += 1
        else:
            assert ours == theirs, (a, b, theirs, ours)
            bad_brackets += theirs[0] is ValueError
            exhausted += theirs[0] is RuntimeError
    # the draws cover every outcome
    assert min(roots, bad_brackets, exhausted) >= 20, (roots, bad_brackets, exhausted)


def test_localmin_matches_minimize_scalar_bounded_bit_for_bit():
    rng = random.Random(20232)
    unfinished = with_nan = 0
    for _ in range(CASES):
        f = _random_function(rng)
        lo = rng.uniform(-10.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-3.0, 1.5)
        if rng.random() < 0.1:
            # NaN past a cut, as an objective that fails to evaluate there
            cut, smooth = rng.uniform(lo, hi), f
            f = lambda x, cut=cut, smooth=smooth: math.nan if x > cut else smooth(x)  # noqa: E731
            with_nan += 1
        xatol = 10.0 ** rng.uniform(-12.0, -2.0)
        maxfun = rng.choice([500, 500, 500, 8])
        counted = _Counted(f)
        x, fx, evaluations = localmin(counted, lo, hi, xatol=xatol, maxfun=maxfun)
        res = minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
        )
        assert _bits([x, fx]) == _bits([res.x, res.fun]), (lo, hi, xatol)
        assert evaluations == counted.calls == res.nfev
        unfinished += res.status == 1
    assert unfinished >= 20 and with_nan >= 50, (unfinished, with_nan)


def test_zeroin_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        zeroin(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    # f(a) f(b) underflows to 0: the signs, not the product, decide
    with pytest.raises(ValueError, match="different signs"):
        zeroin(lambda x: 1e-200, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        zeroin(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, xtol=1e-12)


def test_zeroin_raises_runtime_error_when_its_budget_runs_out():
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        zeroin(lambda x: (x - 3.3) ** 3, 0.0, 10.0, xtol=1e-12, maxiter=3)
    assert zeroin(lambda x: math.tanh(x - 3.3), 0.0, 10.0, xtol=1e-12) == pytest.approx(3.3)

