"""Single-agent long-run-average impulse optimization.

Every threshold problem here maximizes ``(y - y0 - Kt - a P(y)) / xi(y)``
over thresholds y, with ``P`` the cycle stock: the basic problem at
``a = 0``, and at ``a > 0`` the auxiliary problem of the planner's Lagrange
argument (linear reward ``p (y - y0)``, holding cost ``h(x) = a x`` on the
stock, divided through by p). The maximizer is the root of

    g(y) = (1 - a P'(y)) xi(y)/xi'(y) - (y - y0 - Kt - a P(y)),

which at ``a = 0`` is the paper's explicit form ``k(y) = y - y0 - xi/xi' = Kt``.
There ``g(y0 + Kt) = xi/xi' >= 0`` and ``g' = -(xi/xi')(xi''/xi')``:
positive while xi is concave, negative once it has turned convex, and xi''
changes sign at most once. So g cannot change sign on the concave stretch,
and doubling the right end from ``y0 + Kt`` brackets the one root. With a
holding cost the root may lie left of ``y0 + Kt`` instead, inside
``[y0, y0 + Kt]`` since ``g(y0) = Kt > 0``. A safeguarded Newton iteration
(Newton steps that fall back to bisection whenever they leave the bracket)
converges to it in a handful of steps, each reading ``xi``, ``xi'``,
``xi''`` and any cycle stock it needs from one table lookup. g is close to
linear where ``xi`` grows exponentially. The same loop, :func:`_root`, finds
every other root of the package by secant steps where no slope is at hand:
the equilibria and the planner optimum of :mod:`meanfield`, and the stopping
problem's continuation target.

A solved instance can be re-checked through the associated optimal-stopping
problem: with ``rho`` the claimed long-run value, the stopping value

    g(x) = sup_y [ p (y - y0) - K - E_x int_0^{tau_y} (a X + rho) ]

must vanish at y0, dominate ``p (x - y0) - K`` wherever harvesting is
allowed, ``x >= y0``, and make the claimed threshold a stopping point.
Feeding a wrong threshold (hence a sub-optimal rho) breaks those
identities, which is what :func:`verify_solution` detects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diffusion import DiffusionModel, _calculus, _Calculus
from .errors import DomainError, NoRootError, SolverError
from .payoff import PayoffSpec

__all__ = [
    "ThresholdSolution",
    "StoppingValue",
    "VerificationReport",
    "optimal_threshold_basic",
    "zero_cost_threshold",
    "max_harvest_rate",
    "best_response",
    "critical_bounds",
    "solve_auxiliary",
    "stopping_value",
    "verify_solution",
]

# stopping tests of _root: |f| (the caller's gate, _OBJECTIVE_REL_TOL for a threshold), and
# the step or the bracket width (_STEP_REL_TOL), both relative to the root
_OBJECTIVE_REL_TOL = 1e-10
_STEP_REL_TOL = 1e-8
_BRACKET_DOUBLINGS = 60       # budget of every bracket search by doubling
_NEWTON_MAX_ITER = 400        # budget of every root search
_STOPPING_GRID_POINTS = 400   # geometric grid of the stopping-problem verification
_VERIFY_TOL = 1e-6            # bound on each verified stopping-problem identity


@dataclass(frozen=True)
class ThresholdSolution:
    threshold: float
    value: float                 # long-run reward rate of R(threshold)
    residual: float              # |g|/y at the last iterate
    bracket: tuple[float, float]
    iterations: int
    profitable: bool = True
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# one-dimensional roots: the threshold, equilibria, planner and stopping target
# ---------------------------------------------------------------------------

def _root(
    what: str,
    fn: Callable[[float], tuple],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    slope: float = math.nan,
    gate: float = math.inf,
) -> tuple[float, int, float, list]:
    """A root of f in ``[lo, hi]``, inside (0, inf), from the known end values and ``slope`` at hi.

    ``fn(y)`` returns ``f(y)``, its slope or NaN, and any further reads. The
    bracket is oriented by the sign of ``f_lo``, and ``f_hi`` must have the
    other. Each step starts from the last iterate, first ``hi``: a Newton step
    (Press et al., Numerical Recipes 9.4), or where the slope is NaN a step
    along the secant through the last two iterates (``lo`` and ``hi`` first).
    A step along a slope whose sign does not cross the bracket's sign change,
    or one that leaves the closed bracket, falls back to the midpoint; the
    bracket is closed so that an iterate at the exact root (a step of 0) stays
    put. Each iterate shrinks the bracket by the sign of f.

    Once ``|f|`` is below ``gate y``, a step below ``1e-8 y`` that stays in the
    bracket ends the search at the step's point, the root to rounding by the
    step's superlinear convergence; else a bracket below ``1e-8 y`` ends it at
    the iterate. Two such steps in a row end it at the step's point whatever
    ``|f|``: there rounding holds ``|f|`` above the gate and the iterates
    cycle. Returns the root as a float, the number of steps, and ``|f|/y`` and
    the further reads at the last iterate. A bracket without a sign change, a
    NaN value or a search still open after ``_NEWTON_MAX_ITER`` steps raises
    :class:`SolverError` naming ``what``.
    """
    sign = math.copysign(1.0, f_lo)
    if not sign * f_hi < 0.0 <= sign * f_lo:
        raise SolverError(f"{what} on [{lo}, {hi}] failed: no sign change from {f_lo} to {f_hi}")
    x, f, y, g = lo, float(f_lo), hi, float(f_hi)
    stalled = False   # whether the last step was one below 1e-8 y
    for iterations in range(_NEWTON_MAX_ITER + 1):
        if iterations:
            x, f, y = y, g, y_next
            g, slope, *reads = fn(y)
            if math.isnan(g):
                raise SolverError(f"{what} on [{lo}, {hi}] failed: the value at y = {y} is NaN")
            if sign * g > 0.0:
                lo = y
            else:
                hi = y
        if math.isnan(slope):
            slope = (g - f) / (y - x)
        step = y - g / slope if sign * slope < 0.0 else math.nan
        y_next = step if lo <= step <= hi else 0.5 * (lo + hi)
        if not iterations:
            continue
        residual, tol = abs(g) / y, _STEP_REL_TOL * y
        small = y_next == step and abs(step - y) < tol
        if small and (residual < gate or stalled):
            return float(step), iterations, residual, reads
        if residual < gate and hi - lo < tol:
            return float(y), iterations, residual, reads
        stalled = small
    raise SolverError(
        f"{what} did not converge in {_NEWTON_MAX_ITER} Newton steps on [{lo}, {hi}]; "
        f"|f|/y = {residual:.3g}"
    )


def _refine(
    what: str, fn: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> float:
    """A root of ``fn`` on ``[a, b]`` by :func:`_root`'s secant steps, from the known end values."""
    return _root(what, lambda y: (fn(y), math.nan), a, b, fa, fb)[0]


# ---------------------------------------------------------------------------
# threshold problems: (y - y0 - Kt - a P(y)) / xi(y)
# ---------------------------------------------------------------------------

def _solve_threshold(calc: _Calculus, k_tilde: float, holding: float) -> ThresholdSolution:
    """Maximizer of ``(y - y0 - Kt - a P(y)) / xi(y)``: a root by :func:`_root`'s safeguarded Newton.

    ``Kt`` is ``k_tilde``, ``a`` is ``holding`` and ``P`` the table's cycle
    stock, with ``P' = xm0 s`` and ``P'' = (2/sigma^2)(y - mu P')``. The
    condition is ``g = (1 - a P') xi/xi' - N`` with ``N = y - y0 - Kt - a P``,
    and its slope is ``g' = -(xi/xi') (a P'' + (1 - a P') xi''/xi')``; at
    ``a = 0`` P is never read. Since ``g(y0) = Kt > 0``, the root lies in
    ``[y0, y0 + Kt]`` if ``g(y0 + Kt) < 0``; otherwise a doubling phase from
    ``y0 + Kt`` brackets it. Every evaluation reads ``xi``, ``xi'``, ``xi''``
    and, under a holding cost, ``P`` and ``P'`` from one table lookup, and
    ``iterations`` counts the Newton steps. The gate ``|g| < 1e-10 y`` is
    waived after a second small step in a row, which ends a rounding cycle;
    a bracket below ``1e-8 y`` also covers a flat g near a convex start at
    zero cost. The value ``N/xi``, stationary at the root, and the residual
    ``|g|/y`` are those of the last iterate.
    """
    if not math.isfinite(k_tilde):
        raise DomainError(f"the scaled impulse cost Kt = K/p is {k_tilde}: the price p is too small")
    y0 = calc.y0

    def condition(y: float) -> tuple[float, float, float, float]:
        """g, its slope, ``xi`` and ``N`` at y."""
        xi, xi_prime, xi_second, *cycle = calc.xi_derivatives(y, 2, bool(holding))
        quotient, net = xi / xi_prime, y - y0 - k_tilde
        weight, bend = 1.0, xi_second / xi_prime
        if holding:
            stock, stock_slope = cycle
            mu, sigma = float(calc.drift(y)), float(calc.volatility(y))
            net -= holding * stock
            weight = 1.0 - holding * stock_slope
            bend = holding * 2.0 / sigma**2 * (y - mu * stock_slope) + weight * bend
        return weight * quotient - net, -quotient * bend, xi, net

    lo, hi = y0, y0 + k_tilde
    g = 0.0   # at a = 0, g(y0 + Kt) = xi/xi' >= 0 and g rises while xi is concave
    if holding:
        g, slope = condition(hi)[:2]
    if not g < 0.0:
        for _ in range(_BRACKET_DOUBLINGS):
            lo, hi = hi, 2.0 * hi
            g, slope = condition(hi)[:2]
            if g < 0.0:
                break
        else:
            raise NoRootError(
                f"no sign change of the first-order condition within {_BRACKET_DOUBLINGS} "
                "doublings; the objective appears to increase without bound"
            )
    # g >= 0 at lo: g(y0) = Kt, g(y0 + Kt) = xi/xi' at a = 0, and any other lo was read so
    y, iterations, residual, (xi, net) = _root(
        "the threshold solve", condition, lo, hi, 0.0, g, slope, _OBJECTIVE_REL_TOL
    )
    value = net / xi
    return ThresholdSolution(
        threshold=y,
        value=value,
        residual=residual,
        bracket=(lo, hi),
        iterations=iterations,
        profitable=value > 0.0,
        flags=() if value > 0.0 else ("no profitable harvest",),
    )


def optimal_threshold_basic(model: DiffusionModel, k_tilde: float) -> ThresholdSolution:
    """Unique maximizer of ``(y - y0 - k_tilde) / xi(y)``: the root of ``xi/xi' - (y - y0 - k_tilde)``.

    Found by :func:`_solve_threshold` with no holding cost.
    """
    calc = _calculus(model)
    if not k_tilde >= 0.0:   # also rejects NaN
        raise DomainError(f"k_tilde must be nonnegative, got {k_tilde}")
    y0 = calc.y0
    if k_tilde == 0.0:
        _, xi_prime, xi_second = calc.xi_derivatives(y0)
        if xi_second > 0.0:
            # zero cost with xi convex from the start: (y - y0)/xi(y) decreases on
            # all of (y0, inf), so the supremum 1/xi'(y0) is approached at y0 itself
            return ThresholdSolution(
                threshold=y0,
                value=1.0 / xi_prime,
                residual=0.0,
                bracket=(y0, y0),
                iterations=0,
                profitable=True,
                flags=("maximizer degenerates to the restart level",),
            )

    return _solve_threshold(calc, k_tilde, 0.0)


def zero_cost_threshold(model: DiffusionModel) -> ThresholdSolution:
    """The basic solve at ``k_tilde = 0``, solved once per model."""
    calc = _calculus(model)
    if calc._zero_cost is None:
        calc._zero_cost = optimal_threshold_basic(model, 0.0)
    return calc._zero_cost


def max_harvest_rate(model: DiffusionModel) -> float:
    """Largest attainable long-run harvesting rate, reached by the zero-cost threshold."""
    return zero_cost_threshold(model).value


def best_response(model: DiffusionModel, payoff: PayoffSpec, z: float) -> ThresholdSolution:
    """Optimal threshold against a fixed interaction level z: the basic solve at K/phi(z)."""
    price = float(payoff.phi(z))
    if not price > 0.0 or not math.isfinite(price):
        raise DomainError(f"phi(z) must be positive and finite; got {price} at z={z}")
    base = optimal_threshold_basic(model, payoff.cost / price)
    return replace(base, value=price * base.value)


def critical_bounds(model: DiffusionModel, payoff: PayoffSpec) -> tuple[float, float]:
    """Range of best responses over the closed interaction domain (monotone in z)."""
    if payoff.domain is None:
        raise DomainError("payoff domain is not resolved; use meanfield.resolve_payoff")
    lo_z, hi_z = payoff.domain
    y_at_lo = best_response(model, payoff, lo_z).threshold
    y_at_hi = best_response(model, payoff, hi_z).threshold
    return (min(y_at_lo, y_at_hi), max(y_at_lo, y_at_hi))


# ---------------------------------------------------------------------------
# auxiliary problem with running cost
# ---------------------------------------------------------------------------

def _check_holding(holding: float) -> None:
    if not 0.0 <= holding < math.inf:   # also rejects NaN
        raise DomainError(f"the holding cost a must be nonnegative and finite, got {holding}")


def solve_auxiliary(model: DiffusionModel, price: float, holding: float, cost: float) -> ThresholdSolution:
    """Maximize ``(price (y - y0) - K - a E_{y0} int_0^{tau_y} X) / xi(y)`` over thresholds.

    ``holding`` is the ``a >= 0`` of the holding cost ``h(x) = a x`` (0 for
    none), and ``E_{y0} int_0^{tau_y} X`` is the table's cycle stock P. This
    is the threshold solve at ``Kt = K/price`` and holding ``a/price``, scaled
    back by the price; at ``a = 0`` it is ``optimal_threshold_basic(K/price)``.
    """
    calc = _calculus(model)
    if not 0.0 < cost < math.inf:   # also rejects NaN
        raise DomainError(f"the impulse cost K must be positive and finite, got {cost}")
    if not 0.0 < price < math.inf:   # also rejects NaN
        raise DomainError(f"the price p must be positive and finite, got {price}")
    _check_holding(holding)
    sol = _solve_threshold(calc, cost / price, holding / price)
    return replace(sol, value=price * sol.value)


# ---------------------------------------------------------------------------
# stopping-problem verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppingValue:
    grid: np.ndarray
    values: np.ndarray
    threshold: float


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    g_at_restart: float
    u_max_on_grid: float
    u_at_threshold: float
    tolerance: float
    grid_points: int
    flags: tuple[str, ...] = ()


def _running_potential(model: DiffusionModel, holding: float, rho: float, x):
    """``Xi(x)``, with ``E_x int_0^{tau_c} (a X + rho) = Xi(c) - Xi(x)`` for ``x <= c``.

    ``Xi = rho xi + a P`` on the table's ``xi`` (``_xi_both_sides``) and cycle
    stock ``P``, which both run on both sides of ``y0``. Floats or arrays.
    """
    calc = _calculus(model)
    value = rho * calc._xi_both_sides(x)
    return value + holding * calc.cycle_stock(x) if holding else value


def stopping_value(
    model: DiffusionModel,
    price: float,
    holding: float,
    cost: float,
    rho_star: float,
    threshold: float,
) -> StoppingValue:
    """Value function of the stopping problem with running penalty ``a x + rho_star``.

    With the potential ``Xi`` of :func:`_running_potential`, continuing from
    x to a level ``c >= x`` costs ``Xi(c) - Xi(x)``, so
    ``g(x) = Xi(x) + sup_{c >= x} [p (c - y0) - K - Xi(c)]`` for ``x >= y0``.
    The grid is the one the identities are checked on: ``_STOPPING_GRID_POINTS``
    geometric points from y0 to ``1.5 threshold``, plus the threshold. On it
    the supremum is a reverse cumulative maximum over the candidates. The
    supremum between grid points is the optimal continuation target, which
    does not depend on x and counts for every x below it. Where the reward's
    slope ``p - rho xi'(c) - a xm0(c) s(c)`` is positive at the best
    candidate's left neighbour and negative at its right one, the target is
    the slope's root between them, by :func:`_refine`'s secant steps;
    otherwise it is the best candidate.
    """
    _check_holding(holding)
    calc = _calculus(model)
    y0 = model.restart_level
    grid = np.unique(np.append(np.geomspace(y0, 1.5 * threshold, _STOPPING_GRID_POINTS), threshold))

    def potential(x):
        return _running_potential(model, holding, rho_star, x)

    def slope(c: float) -> float:
        """d/dc of the reward ``p (c - y0) - K - Xi(c)``."""
        reads = calc.xi_derivatives(c, 1, bool(holding))
        value = price - rho_star * reads[1]
        return value - holding * reads[3] if holding else value

    running = potential(grid)
    reward = price * (grid - y0) - cost - running
    j = int(np.argmax(reward))
    lo, hi = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, len(grid) - 1)])
    rise, fall = slope(lo), slope(hi)
    if rise > 0.0 > fall:
        target = _refine("stopping target", slope, lo, hi, rise, fall)
        target_reward = price * (target - y0) - cost - potential(target)
    else:
        target, target_reward = float(grid[j]), float(reward[j])

    # best reward over the candidates c >= x, and the target where it lies ahead
    best = np.maximum.accumulate(reward[::-1])[::-1]
    best = np.where(target > grid, np.maximum(best, target_reward), best)
    return StoppingValue(grid=grid, values=running + best, threshold=float(threshold))


def verify_solution(
    model: DiffusionModel,
    solution: ThresholdSolution,
    price: float,
    holding: float,
    cost: float,
) -> VerificationReport:
    """Check the stopping-problem identities for a claimed solution.

    Uses the solution's own value as the running penalty, so a perturbed
    threshold (whose renewal value is sub-optimal) fails the checks.
    """
    y0 = model.restart_level
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite identity fails below
        sv = stopping_value(model, price, holding, cost, solution.value, solution.threshold)
        u = price * (sv.grid - y0) - cost - sv.values
    g_at_y0 = float(sv.values[0])
    u_max = float(np.max(u))
    u_at_threshold = float(u[np.argmin(np.abs(sv.grid - solution.threshold))])
    flags = []   # each test is written so that NaN fails it
    if not abs(g_at_y0) <= _VERIFY_TOL:
        flags.append("stopping value does not vanish at the restart level")
    if not u_max <= _VERIFY_TOL:
        flags.append("stopping value fails to dominate the harvest payoff")
    if not abs(u_at_threshold) <= _VERIFY_TOL:
        flags.append("claimed threshold is not a stopping point")
    return VerificationReport(
        passed=not flags,
        g_at_restart=g_at_y0,
        u_max_on_grid=u_max,
        u_at_threshold=u_at_threshold,
        tolerance=_VERIFY_TOL,
        grid_points=len(sv.grid),
        flags=tuple(flags),
    )
