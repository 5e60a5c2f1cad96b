"""The one root finder, ``impulse._root``, along secants, with SciPy's ``brentq`` as the oracle.

Every root the package finds comes from ``_root``: the threshold by Newton
steps, and the equilibria, the planner optimum and the stopping target by
secant steps through :func:`impulse._refine`. The threshold solve has its own
tests in ``test_impulse.py``; here the secant route meets seeded random
functions on brackets in [1, 21].
"""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from harvestfield import impulse
from harvestfield.errors import SolverError
from harvestfield.impulse import _refine

CASES = 1000
_SHIFT = 11.0   # the functions' centres and the scan grid move from [-10, 10] to [1, 21]


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
    return lambda x: scale * (offset + sum(w * g(x - _SHIFT - c) for w, g in terms))


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def test_refine_ends_at_a_sign_change_on_random_functions():
    # each function is scanned on a grid of [1, 21], as the equilibrium and planner searches scan
    # theirs, and every sign change is refined from the known end values; the result must lie
    # within 1e-8 relative of a sign change, and cost no more evaluations than brentq's
    rng = random.Random(20231)
    grid = np.linspace(1.0, 21.0, 21)
    cases = ours = theirs = 0
    for _ in range(CASES):
        f = _random_function(rng)
        if rng.random() < 0.2:
            # values near the subnormal range, where a secant slope can underflow to 0
            tiny, smooth = 10.0 ** rng.uniform(-323.0, -318.0), f
            f = lambda x, tiny=tiny, smooth=smooth: tiny * smooth(x)  # noqa: E731
        values = [f(float(x)) for x in grid]
        for i in range(len(grid) - 1):
            a, b, fa, fb = float(grid[i]), float(grid[i + 1]), values[i], values[i + 1]
            if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
                continue
            counted = _Counted(f)
            root = _refine("test root", counted, a, b, fa, fb)
            assert type(root) is float and a <= root <= b, (a, b, root)
            sign = math.copysign(1.0, fa)
            left, right = f(max(a, root * (1.0 - 1e-8))), f(min(b, root * (1.0 + 1e-8)))
            assert sign * left >= 0.0 >= sign * right, (a, b, root, left, right)
            oracle = _Counted(f)
            brentq(oracle, a, b, xtol=1e-8 * a, rtol=4.0 * np.finfo(float).eps)
            cases, ours, theirs = cases + 1, ours + counted.calls, theirs + oracle.calls - 2
    assert cases >= 1000, cases
    assert ours <= theirs, (ours / cases, theirs / cases)


def test_refine_rejects_a_bracket_without_sign_change():
    with pytest.raises(SolverError, match="test root on .* no sign change"):
        _refine("test root", lambda x: x * x + 1.0, 1.0, 2.0, 2.0, 5.0)
    # f(a) f(b) underflows to 0: the signs, not the product, decide
    with pytest.raises(SolverError, match="test root on .* no sign change"):
        _refine("test root", lambda x: 1e-200, 1.0, 2.0, 1e-200, 1e-200)
    with pytest.raises(SolverError, match="test root on .* no sign change"):
        _refine("test root", lambda x: x - 1.5, 1.0, 2.0, math.nan, 0.5)
    with pytest.raises(SolverError, match="test root on .* the value at y = .* is NaN"):
        _refine("test root", lambda x: math.nan if x > 1.5 else x - 1.75, 1.0, 2.0, -0.75, 0.25)


def test_refine_raises_when_its_budget_runs_out(monkeypatch):
    # a triple root: the secant converges only linearly, far slower than 3 steps
    def cube(x):
        return (x - 3.3) ** 3

    assert _refine("test root", cube, 1.0, 10.0, cube(1.0), cube(10.0)) == pytest.approx(3.3, rel=1e-7)
    monkeypatch.setattr(impulse, "_NEWTON_MAX_ITER", 3)
    with pytest.raises(SolverError, match="test root did not converge in 3 Newton steps"):
        _refine("test root", cube, 1.0, 10.0, cube(1.0), cube(10.0))
