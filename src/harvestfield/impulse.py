"""Single-agent long-run-average impulse optimization.

The basic problem maximizes ``(y - y0 - Kt) / xi(y)`` over thresholds y. Its
unique maximizer is the unique root of

    F(y) = xi(y) - (y - y0 - Kt) * xi'(y)

right of ``y0 + Kt``. There ``F(y0 + Kt) = xi(y0 + Kt) >= 0`` and the slope
is ``F' = -(y - y0 - Kt) * xi''(y)``: positive while xi is concave, negative
once it has turned convex, and xi'' changes sign at most once. So F cannot
change sign on the concave stretch, and doubling the right end from
``y0 + Kt`` brackets the one root. A safeguarded Newton iteration (Newton
steps on F that fall back to bisection whenever they leave the bracket)
converges to it in a handful of steps. The auxiliary problem of the
planner's Lagrange argument (increasing reward f, holding cost ``h(x) = a x``
on the stock) is only known to be unimodal, so it is solved by derivative
bracketing plus Brent's bounded maximization (parabolic steps safeguarded by
golden section).

A solved instance can be re-checked through the associated optimal-stopping
problem: with ``rho`` the claimed long-run value, the stopping value

    g(x) = sup_y [ f(y) - K - E_x int_0^{tau_y} (a X + rho) ]

must vanish at y0, dominate f - K everywhere, and make the claimed threshold
a stopping point. Feeding a wrong threshold (hence a sub-optimal rho) breaks
those identities, which is what :func:`verify_solution` detects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._brent import localmin
from .diffusion import DiffusionModel, _calculus, _Calculus
from .errors import DivergenceError, DomainError, NoRootError
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

# stopping test of both threshold solves: Newton step or bracket width relative to
# the root, and |F|/xi at the accepted root
_BRACKET_REL_TOL = 1e-9
_OBJECTIVE_REL_TOL = 1e-10
_BRACKET_DOUBLINGS = 60       # budget of every bracket search by doubling
_STOPPING_GRID_POINTS = 400   # geometric grid of the stopping-problem verification
_VERIFY_TOL = 1e-6            # bound on each verified stopping-problem identity


@dataclass(frozen=True)
class ThresholdSolution:
    threshold: float
    value: float                 # long-run reward rate of R(threshold)
    residual: float              # first-order-condition residual at the threshold
    bracket: tuple[float, float]
    iterations: int
    profitable: bool = True
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "value": self.value,
            "residual": self.residual,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "profitable": self.profitable,
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# basic problem: (y - y0 - Kt) / xi(y)
# ---------------------------------------------------------------------------

def _first_order_condition(calc: _Calculus, y: float, k_tilde: float) -> tuple[float, float]:
    """``F = xi - (y - y0 - Kt) xi'`` and ``xi`` at y."""
    xi = calc.xi(y)
    return xi - (y - calc.y0 - k_tilde) * calc.xi_prime(y), xi


def _newton_step(calc: _Calculus, y: float, k_tilde: float, f: float, lo: float, hi: float):
    """Next iterate of the safeguarded Newton solve (Press et al., Numerical Recipes 9.4).

    The Newton point ``y - F/F'``, with ``F' = -(y - y0 - Kt) xi''``, if
    ``F' < 0`` and the point lies in the closed bracket ``[lo, hi]``;
    otherwise the bracket midpoint. The bracket is closed so that an iterate
    at its exact root (``F == 0``, Newton point on ``hi``) stays put instead
    of bisecting.
    """
    slope = -(y - calc.y0 - k_tilde) * calc.xi_second(y)
    if slope < 0.0:
        newton = y - f / slope
        if lo <= newton <= hi:
            return newton
    return 0.5 * (lo + hi)


def optimal_threshold_basic(model: DiffusionModel, k_tilde: float) -> ThresholdSolution:
    """Unique maximizer of ``(y - y0 - k_tilde) / xi(y)``: the root of F by safeguarded Newton.

    A doubling phase brackets the sign change of F; each Newton step then
    shrinks the bracket by the sign of F and falls back to the midpoint when
    the Newton point leaves it. ``iterations`` counts the Newton steps.
    """
    calc = _calculus(model)
    if not k_tilde >= 0.0:   # also rejects NaN
        raise DomainError(f"k_tilde must be nonnegative, got {k_tilde}")
    y0 = calc.y0

    def f_of(y: float) -> float:
        return _first_order_condition(calc, y, k_tilde)[0]

    if k_tilde == 0.0 and calc.xi_second(y0) > 0.0:
        # zero cost with xi convex from the start: (y - y0)/xi(y) decreases on
        # all of (y0, inf), so the supremum 1/xi'(y0) is approached at y0 itself
        return ThresholdSolution(
            threshold=y0,
            value=1.0 / calc.xi_prime(y0),
            residual=0.0,
            bracket=(y0, y0),
            iterations=0,
            profitable=True,
            flags=("maximizer degenerates to the restart level",),
        )

    lo = y0 + k_tilde   # F(lo) = xi(lo) >= 0, and F rises while xi is concave
    hi = 2.0 * lo
    for _ in range(_BRACKET_DOUBLINGS):
        if f_of(hi) < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NoRootError(
            f"no sign change of the first-order condition within {_BRACKET_DOUBLINGS} "
            "doublings; the objective appears to increase without bound"
        )

    bracket = (lo, hi)
    iterations = 0
    y_next = 0.5 * (lo + hi)
    while iterations < 400:
        y = y_next
        f, xi = _first_order_condition(calc, y, k_tilde)
        iterations += 1
        if f > 0.0:
            lo = y
        else:
            hi = y
        residual = abs(f) / xi
        y_next = _newton_step(calc, y, k_tilde, f, lo, hi)
        tol = _BRACKET_REL_TOL * y
        if (abs(y_next - y) < tol or hi - lo < tol) and residual < _OBJECTIVE_REL_TOL:
            break

    value = (y - y0 - k_tilde) / xi
    return ThresholdSolution(
        threshold=y,
        value=value,
        residual=residual,
        bracket=bracket,
        iterations=iterations,
        profitable=value > 0.0,
        flags=() if value > 0.0 else ("unprofitable",),
    )


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
    value = price * base.value
    flags = base.flags if value > 0.0 else tuple(set(base.flags) | {"no profitable harvest"})
    return replace(base, value=value, profitable=value > 0.0, flags=flags)


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

def _bounded_max(fn: Callable[[float], float], lo: float, hi: float):
    """Maximize ``fn`` on ``[lo, hi]`` by Brent's bounded minimizer on ``-fn``.

    :func:`harvestfield._brent.localmin` (Brent 1973, ch. 5: parabolic steps
    safeguarded by golden section) with the absolute x tolerance
    ``1e-9 * max(hi, 1)``; it adds ``3 sqrt(eps) |x|`` to that, so the
    maximizer is fixed to about 1.5e-8 relative. Returns
    ``(x, fn(x), evaluations)``.
    """
    x, value, evaluations = localmin(lambda y: -fn(y), lo, hi, xatol=1e-9 * max(hi, 1.0))
    return x, -float(value), evaluations


def _check_holding(holding: float) -> None:
    if not 0.0 <= holding < math.inf:   # also rejects NaN
        raise DomainError(f"the holding cost a must be nonnegative and finite, got {holding}")


def solve_auxiliary(
    model: DiffusionModel,
    f: Callable[[float], float],
    holding: float,
    cost: float,
) -> ThresholdSolution:
    """Maximize ``(f(y) - K - a E_{y0} int_0^{tau_y} X) / xi(y)`` over thresholds.

    ``f`` must be continuous and increasing with ``f(y0) = 0``; ``holding``
    is the ``a >= 0`` of the holding cost ``h(x) = a x`` (0 for none), and
    ``E_{y0} int_0^{tau_y} X`` is the table's cycle stock. The maximizer is
    located by bracketing a sign change of the numeric derivative and
    refining with Brent's bounded maximization, which only assumes
    unimodality; ``iterations`` counts its steps.
    """
    calc = _calculus(model)
    if not 0.0 < cost < math.inf:   # also rejects NaN
        raise DomainError(f"the impulse cost K must be positive and finite, got {cost}")
    _check_holding(holding)
    y0 = calc.y0

    def objective(y: float) -> float:
        try:
            running = holding * calc.cycle_stock(y) if holding else 0.0
            value = (float(f(y)) - cost - running) / calc.xi(y)
        except (OverflowError, DivergenceError):
            return math.nan
        return value if math.isfinite(value) else math.nan

    def derivative(y: float) -> float:
        step = min(max(1e-5, 1e-6 * y), 0.5 * (y - y0))
        return (objective(y + step) - objective(y - step)) / (2.0 * step)

    a = y0 * (1.0 + 1e-3)
    tries = 0
    while derivative(a) <= 0.0 and tries < 20:
        a = y0 + (a - y0) / 2.0
        tries += 1
    b = a
    for _ in range(_BRACKET_DOUBLINGS):
        b *= 2.0
        d = derivative(b)
        if math.isnan(d):
            raise NoRootError(
                f"auxiliary objective is not finite near y={b:.6g}; "
                "no interior maximizer was bracketed"
            )
        if d < 0.0:
            break
    else:
        raise NoRootError(
            "the auxiliary objective keeps increasing; no interior maximizer was bracketed"
        )

    y_star, value, iterations = _bounded_max(objective, a, b)
    flags: tuple[str, ...] = ()
    if value <= 0.0:
        flags = ("no profitable harvest",)
    return ThresholdSolution(
        threshold=y_star,
        value=value,
        residual=abs(derivative(y_star)),
        bracket=(a, b),
        iterations=iterations,
        profitable=value > 0.0,
        flags=flags,
    )


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
    flags: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "g_at_restart": self.g_at_restart,
            "u_max_on_grid": self.u_max_on_grid,
            "u_at_threshold": self.u_at_threshold,
            "tolerance": self.tolerance,
            "grid_points": self.grid_points,
            "flags": list(self.flags),
        }


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
    f: Callable[[float], float],
    holding: float,
    cost: float,
    rho_star: float,
    threshold: float,
) -> StoppingValue:
    """Value function of the stopping problem with running penalty ``a x + rho_star``.

    With the potential ``Xi`` of :func:`_running_potential`, continuing from
    x to a level ``c >= x`` costs ``Xi(c) - Xi(x)``, so
    ``g(x) = Xi(x) + sup_{c >= max(x, y0)} [f(c) - K - Xi(c)]``: on the grid,
    a reverse cumulative maximum over the candidates ``c >= y0``. The
    supremum between grid points is the optimal continuation target, which
    does not depend on x; one bounded Brent maximization around the best
    candidate fixes it, and it counts for every x below it.
    """
    _check_holding(holding)
    y0 = model.restart_level
    grid = np.geomspace(1e-2 * y0, 1.5 * threshold, _STOPPING_GRID_POINTS)
    grid = np.unique(np.concatenate([grid, [y0, threshold]]))

    def potential(x):
        return _running_potential(model, holding, rho_star, x)

    running = potential(grid)
    first = int(np.searchsorted(grid, y0))
    candidates = grid[first:]
    reward = np.array([float(f(v)) for v in candidates]) - cost - running[first:]
    j = int(np.argmax(reward))
    lo = float(candidates[max(j - 1, 0)])
    hi = float(candidates[min(j + 1, len(candidates) - 1)])
    if hi > lo:
        target, target_reward, _ = _bounded_max(
            lambda yv: float(f(yv)) - cost - potential(yv), lo, hi
        )
    else:
        target, target_reward = float(candidates[j]), float(reward[j])

    # best reward over the candidates c >= max(x, y0), and the target where it lies ahead
    best = np.maximum.accumulate(reward[::-1])[::-1]
    best = best[np.maximum(np.arange(len(grid)) - first, 0)]
    best = np.where(target > np.maximum(grid, y0), np.maximum(best, target_reward), best)
    return StoppingValue(grid=grid, values=running + best, threshold=float(threshold))


def verify_solution(
    model: DiffusionModel,
    solution: ThresholdSolution,
    f: Callable[[float], float],
    holding: float,
    cost: float,
) -> VerificationReport:
    """Check the stopping-problem identities for a claimed solution.

    Uses the solution's own value as the running penalty, so a perturbed
    threshold (whose renewal value is sub-optimal) fails the checks.
    """
    y0 = model.restart_level
    sv = stopping_value(model, f, holding, cost, solution.value, solution.threshold)
    g_at_y0 = float(sv.values[np.argmin(np.abs(sv.grid - y0))])
    # stopping is offered only at x >= y0, so only there must g dominate f - K
    above = sv.grid >= y0
    xs = sv.grid[above]
    u = np.array([float(f(x)) for x in xs]) - cost - sv.values[above]
    u_max = float(np.max(u))
    u_at_threshold = float(u[np.argmin(np.abs(xs - solution.threshold))])
    flags = []
    if abs(g_at_y0) > _VERIFY_TOL:
        flags.append("stopping value does not vanish at the restart level")
    if u_max > _VERIFY_TOL:
        flags.append("stopping value fails to dominate the harvest payoff")
    if abs(u_at_threshold) > _VERIFY_TOL:
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
