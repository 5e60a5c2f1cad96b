"""Equilibria and planner optima for the mean-field harvesting market.

Agents interact through one scalar ``c(y)``: the average harvesting rate
``(y - y0)/xi(y)`` or the expected standing stock ``E[X_inf^{R(y)}]``. The
best-response map ``g`` sends an interaction level to the optimal threshold,
and ``Phi = g o c`` sends a population threshold to the individual optimum.

Both problems read one log grid of thresholds; each grid point is priced at
most once per solve:

* competitive equilibrium: a threshold y is the best response to the price
  ``p(y) = phi(c(y))`` it generates iff it solves the first-order condition
  ``G(y) = p(y) k(y) - K = 0`` with ``k(y) = y - y0 - xi(y)/xi'(y)``. On
  either channel every sign change of G on the grid is refined by secant
  steps (:func:`impulse._root`). Under the harvest-rate channel Phi is
  strictly decreasing, so the search must find exactly one root; under the
  expected-stock channel Phi is nondecreasing and several equilibria may
  coexist.
* cooperative (planner) optimum: maximizer of
  ``H(y) = (gamma(y, c(y)) - K)/xi(y)``, by a scan of the same grid; each
  local maximum of the scan is refined by secant steps on the planner's
  first-order condition ``G_P``, which has the sign of ``H'``. The
  scan stops one point past the first grid point beyond ``2 y_hi`` when the
  zero-cost bound ``H(y) < phi(z_lo) (y - y0)/xi(y)``, which falls past
  ``y_hat0 < y_hi``, is there below the best maximum by more than the tie
  tolerance; no later maximum could then win or tie.

The threshold ordering between the two solutions is checked by
:func:`compare`: planner >= equilibrium under the harvest-rate channel and
planner <= every equilibrium under the expected-stock channel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .diffusion import DiffusionModel, _calculus, logistic_model, validate_assumptions
from .errors import ComparisonError, DomainError, SolverError
from .impulse import (
    ThresholdSolution,
    _refine,
    best_response,
    critical_bounds,
    max_harvest_rate,
    zero_cost_threshold,
)
from .payoff import Interaction, PayoffSpec
from .stationary import _require_threshold, stock_bounds

__all__ = [
    "EquilibriumPoint",
    "EquilibriumSet",
    "MfcSolution",
    "CompareReport",
    "SweepRow",
    "resolve_payoff",
    "interaction_level",
    "phi_map",
    "mfg_equilibrium",
    "classify_stability",
    "mfc_optimum",
    "compare",
    "ordering_sweep",
]

_FIXED_POINT_TOL = 1e-8      # best-response range, relative to y0, below which Phi is constant
_TIE_REL_TOL = 1e-6          # planner maxima this close to the best are reported as ties
_PRICE_STEP = 1e-6           # step of the central difference phi', relative to the domain width
_SCAN_POINTS = 500           # threshold grid shared by the equilibrium and planner solves
_ORDER_TOL = 1e-6            # slack of the game/planner threshold ordering


# ---------------------------------------------------------------------------
# payoff resolution and the interaction channel
# ---------------------------------------------------------------------------

def resolve_payoff(model: DiffusionModel, payoff: PayoffSpec) -> PayoffSpec:
    """Attach the attainable interaction domain and sanity-check the price curve."""
    if not 0.0 < payoff.cost < math.inf:   # also rejects NaN
        raise DomainError(f"the impulse cost K must be positive and finite, got {payoff.cost}")
    if payoff.interaction is Interaction.HARVEST_RATE:
        lo, hi = 0.0, max_harvest_rate(model)
    else:
        lo, hi = stock_bounds(model)
    with np.errstate(all="ignore"):   # a non-finite phi fails the checks below
        phi_vals = _phi_levels(payoff.phi, np.linspace(lo, hi, 65))
    if np.any(~np.isfinite(phi_vals)) or np.any(phi_vals <= 0.0):
        raise DomainError("phi must be positive and finite on the interaction domain")
    scale = float(np.max(phi_vals))
    if np.any(np.diff(phi_vals) > 1e-9 * scale):
        raise DomainError("phi must be nonincreasing on the interaction domain")
    return payoff.with_domain(lo, hi)


def _phi_levels(phi, z: np.ndarray) -> np.ndarray:
    """``phi`` at each level of ``z``, from one call on the array.

    A ``phi`` that refuses an array, or does not return one value per level
    (a constant, or a function of Python floats such as ``math.exp``), is
    called once per level instead.
    """
    try:
        values = phi(z)
    except (TypeError, ValueError, ArithmeticError):
        values = None
    if np.shape(values) != z.shape:
        return np.array([float(phi(v)) for v in z])
    return np.asarray(values, dtype=float)


def interaction_level(model: DiffusionModel, payoff: PayoffSpec, y):
    """c(y) at a float or an array of thresholds: harvesting rate (y-y0)/xi(y) or expected stock."""
    if np.any(np.asarray(y) <= model.restart_level):
        raise DomainError("interaction level is defined for thresholds above y0")
    xi, _, numerator, _ = _read(model, payoff, y)
    return numerator / xi


def _read(model: DiffusionModel, payoff: PayoffSpec, y, order: int = 1) -> tuple:
    """``(xi, xi', N, N')`` at thresholds y from one table read, with ``c = N/xi`` on the payoff's channel.

    N is ``y - y0`` (``N' = 1``) on the harvest-rate channel and the cycle
    stock P (``N' = P'``) on the expected-stock channel, which refuses
    thresholds next to y0 as ``expected_stock`` does. ``xi''`` comes after
    ``xi'`` at order 2. ``y`` is a float (one lookup) or an array (one array
    read, the scan's or :func:`interaction_level`'s).
    """
    calc = _calculus(model)
    if payoff.interaction is Interaction.HARVEST_RATE:
        return *calc.xi_derivatives(y, order), y - model.restart_level, 1.0
    _require_threshold(model, y)
    return calc.xi_derivatives(y, order, True)


def _price_slope(
    payoff: PayoffSpec, xi: float, xi_prime: float, numerator: float, slope: float
) -> tuple[float, float]:
    """``(c, p')`` at a threshold from its reads (see :func:`_read`): ``c = N/xi`` and ``p' = phi'(c) c'``.

    ``phi'`` is a central difference inside the domain, and ``p' = 0`` where
    c is on or outside it, since the price is clamped there. ``c'`` is
    ``(N' xi - N xi')/xi^2``.
    """
    c = numerator / xi
    lo, hi = payoff.domain
    if not lo < c < hi:
        return c, 0.0
    dc = (slope * xi - numerator * xi_prime) / xi**2
    a, b = max(c - _PRICE_STEP * (hi - lo), lo), min(c + _PRICE_STEP * (hi - lo), hi)
    return c, (float(payoff.phi(b)) - float(payoff.phi(a))) / (b - a) * dc


def _clamp_to_domain(z: float, domain: tuple[float, float]) -> tuple[float, bool]:
    """``z`` clamped to the domain, and whether it sits on or beyond an edge."""
    lo, hi = domain
    if z <= lo:
        return lo, True
    if z >= hi:
        return hi, True
    return z, False


def phi_map(model: DiffusionModel, payoff: PayoffSpec, y: float) -> ThresholdSolution:
    """One application of Phi: best response to the interaction generated by y."""
    if payoff.domain is None:
        payoff = resolve_payoff(model, payoff)
    z, clamped = _clamp_to_domain(interaction_level(model, payoff, y), payoff.domain)
    sol = best_response(model, payoff, z)
    if clamped:
        sol = replace(sol, flags=sol.flags + ("interaction level clamped to domain",))
    return sol


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumPoint:
    threshold: float
    value: float
    interaction_level: float    # c(y) at the equilibrium
    stability: str              # "stable" | "unstable" | "marginal"
    map_slope: float            # Phi'(y) by the implicit function theorem
    residual: float             # |Phi(y) - y|


@dataclass(frozen=True)
class EquilibriumSet:
    equilibria: tuple[EquilibriumPoint, ...]
    bounds: tuple[float, float]         # best-response range [y_lo, y_hi]
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.equilibria)

    @property
    def thresholds(self) -> list[float]:
        return [p.threshold for p in self.equilibria]


@dataclass(frozen=True)
class MfcSolution:
    threshold: float
    value: float
    interaction_level: float
    ties: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CompareReport:
    equilibria: EquilibriumSet
    planner: MfcSolution
    margins: tuple[float, ...]   # signed; nonnegative when the ordering holds
    ordering: str                # human-readable statement of the checked direction
    ok: bool


# ---------------------------------------------------------------------------
# the threshold scan shared by both problems
# ---------------------------------------------------------------------------

class _Scan:
    """A log grid of population thresholds, each priced at most once, on first use.

    The price of a grid point y is ``phi(c(y))`` with c clamped to the
    interaction domain, from one call of ``phi`` on the new levels. The
    equilibrium search prices only the cells that meet the best-response
    range; the planner prices the grid up to just past ``2 y_hi``, and the
    rest only where the zero-cost bound does not rule it out. Pricing reads
    ``xi``, ``xi'`` and, on the expected-stock channel, the cycle stock
    ``P`` in one array read by :func:`_read`, as the scalar solves do;
    ``xi`` and ``xi'`` are kept for both problems.
    """

    def __init__(self, model: DiffusionModel, payoff: PayoffSpec,
                 bounds: tuple[float, float], grid: np.ndarray):
        self.model = model
        self.payoff = payoff            # with its interaction domain resolved
        self.bounds = bounds            # best-response range [y_lo, y_hi]
        self.grid = grid
        self._prices = np.full(len(grid), np.nan)
        self._xi = np.full(len(grid), np.nan)
        self._xi_prime = np.full(len(grid), np.nan)

    def prices(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Prices of ``grid[lo:hi]``."""
        prices = self._prices[lo:hi]   # views: new values are kept
        todo = np.isnan(prices)
        if np.any(todo):
            ys = self.grid[lo:hi][todo]
            xi, xi_prime, numerator, _ = _read(self.model, self.payoff, ys)
            self._xi[lo:hi][todo], self._xi_prime[lo:hi][todo] = xi, xi_prime
            new = _phi_levels(self.payoff.phi, np.clip(numerator / xi, *self.payoff.domain))
            if not np.all(new > 0.0):
                raise DomainError("phi must stay positive on the attainable interaction range")
            prices[todo] = new
        return prices.copy()

    def xi(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``xi`` on ``grid[lo:hi]``, as priced."""
        self.prices(lo, hi)
        return self._xi[lo:hi].copy()

    def xi_prime(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``xi'`` on ``grid[lo:hi]``, as priced."""
        self.prices(lo, hi)
        return self._xi_prime[lo:hi].copy()


def _scan(model: DiffusionModel, payoff: PayoffSpec) -> _Scan:
    """Resolve the payoff once and lay a grid that reaches past ``2 * y_hi``.

    Phi maps into ``[y_lo, y_hi]``, so every fixed point lies inside the grid,
    and the planner's maximizer lies below ``max(20 * y_hat0, 2 * y_hi)``.
    The planner usually needs the grid only up to just past ``2 * y_hi``
    (see :func:`mfc_optimum`).
    """
    payoff = resolve_payoff(model, payoff)
    y_lo, y_hi = critical_bounds(model, payoff)
    y_hat0 = zero_cost_threshold(model).threshold
    y0 = model.restart_level
    grid = np.geomspace(y0 * (1.0 + 1e-3), max(20.0 * y_hat0, 2.0 * y_hi), _SCAN_POINTS)
    return _Scan(model, payoff, (y_lo, y_hi), grid)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def _equilibrium_point(model, payoff, y_star) -> EquilibriumPoint:
    """The equilibrium at ``y_star``; a price or value past double range raises :class:`SolverError`."""
    c, price, value = _planner_value(model, payoff, y_star)
    if not (math.isfinite(price) and math.isfinite(value)):
        raise SolverError(
            f"the equilibrium value overflows: the price is {price} and the value {value} "
            f"at the threshold y = {y_star}"
        )
    stability, slope = classify_stability(model, payoff, y_star)
    return EquilibriumPoint(
        threshold=y_star,
        value=value,
        interaction_level=c,
        stability=stability,
        map_slope=slope,
        residual=abs(phi_map(model, payoff, y_star).threshold - y_star),
    )


def _equilibria(model: DiffusionModel, scan: _Scan) -> EquilibriumSet:
    payoff, grid = scan.payoff, scan.grid
    y0 = model.restart_level
    y_lo, y_hi = scan.bounds
    diagnostics: dict = {"bounds": [y_lo, y_hi]}

    if y_hi - y_lo < _FIXED_POINT_TOL * y0:
        # Phi is constant up to the tolerance; its value is the fixed point
        roots = [0.5 * (y_lo + y_hi)]
    else:
        def gap(y: float) -> float:
            xi, xi_prime, numerator, _ = _read(model, payoff, y)
            price = float(payoff.phi(_clamp_to_domain(numerator / xi, payoff.domain)[0]))
            return price * (y - y0 - xi / xi_prime) - payoff.cost

        # G has the sign of y - Phi(y), and Phi maps into [y_lo, y_hi]: only the
        # cells that meet [y_lo, y_hi] can hold a sign change
        lo = max(int(np.searchsorted(grid, y_lo)) - 1, 0)
        hi = min(int(np.searchsorted(grid, y_hi, side="right")) + 1, len(grid))
        ys = grid[lo:hi]
        gaps = scan.prices(lo, hi) * (ys - y0 - scan.xi(lo, hi) / scan.xi_prime(lo, hi)) - payoff.cost
        diagnostics["scan"] = {
            "points": len(grid),
            "cap": float(grid[-1]),
            "searched": [lo, hi],
            "gap_start": float(gaps[0]),
            "gap_end": float(gaps[-1]),
        }
        roots = [float(y) for y in ys[gaps == 0.0]]
        for i in np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0):
            a, b = float(ys[i]), float(ys[i + 1])
            roots.append(_refine("fixed-point refinement", gap, a, b, gaps[i], gaps[i + 1]))

    roots.sort()
    if payoff.interaction is Interaction.HARVEST_RATE and len(roots) != 1:
        raise SolverError(
            "the harvest-rate best-response map is decreasing and must have one fixed point; "
            f"the scan found {len(roots)}: {roots}"
        )
    if not roots:
        diagnostics["no_equilibrium"] = (
            "G = phi(c(y)) k(y) - K has no sign change on the scan grid; "
            "check the assumption report"
        )
        diagnostics["assumptions"] = asdict(validate_assumptions(model))
        return EquilibriumSet(equilibria=(), bounds=(y_lo, y_hi), diagnostics=diagnostics)

    equilibria = tuple(_equilibrium_point(model, payoff, r) for r in roots)
    return EquilibriumSet(equilibria=equilibria, bounds=(y_lo, y_hi), diagnostics=diagnostics)


def mfg_equilibrium(model: DiffusionModel, payoff: PayoffSpec) -> EquilibriumSet:
    """All threshold equilibria of the market, with stability labels.

    One search serves both channels: the roots of ``G(y) = phi(c(y)) k(y) - K``,
    ``k(y) = y - y0 - xi(y)/xi'(y)``, on the grid cells that meet the
    best-response range ``[y_lo, y_hi]``, each sign change refined by
    :func:`impulse._refine`'s secant steps until one is below ``1e-8 y``, the
    root to rounding; no threshold is solved. Under the harvest-rate channel
    Phi is strictly decreasing, so any root count but one raises
    :class:`SolverError`; under the expected-stock channel several equilibria
    may coexist. When ``y_hi - y_lo`` is below ``1e-8 y0`` the midpoint is
    returned without pricing the grid, so a model rescaled by a factor gives
    equilibria scaled by it. Each point's residual is ``|Phi(y) - y|`` from
    one Phi step.
    """
    return _equilibria(model, _scan(model, payoff))


def _map_slope(model: DiffusionModel, payoff: PayoffSpec, y: float) -> float:
    """``Phi'(y) = -K p'/(p^2 k')`` at a fixed point y, by the implicit function theorem.

    ``k' = xi xi''/xi'^2`` and ``p'`` is that of :func:`_price_slope`; the
    slope is 0 where c is on or outside the domain.
    """
    xi, xi_prime, xi_second, numerator, slope = _read(model, payoff, y, 2)
    c, dp = _price_slope(payoff, xi, xi_prime, numerator, slope)
    lo, hi = payoff.domain
    if not lo < c < hi:
        return 0.0
    return -payoff.cost * dp * xi_prime**2 / (float(payoff.phi(c)) ** 2 * xi * xi_second)


def classify_stability(
    model: DiffusionModel, payoff: PayoffSpec, y_star: float
) -> tuple[str, float]:
    """Label a fixed point by its map slope Phi' (see :func:`_map_slope`; no Phi step).

    The label is "marginal" when ``|Phi'|`` is within 1e-3 of 1, otherwise
    "stable" when ``|Phi'| < 1`` and "unstable" when not.

    Returns ``(label, slope)`` with label in {"stable", "unstable", "marginal"}.
    """
    if payoff.domain is None:
        payoff = resolve_payoff(model, payoff)
    slope = _map_slope(model, payoff, y_star)
    if abs(abs(slope) - 1.0) < 1e-3:
        return "marginal", slope
    return ("stable" if abs(slope) < 1.0 else "unstable"), slope


# ---------------------------------------------------------------------------
# planner problem
# ---------------------------------------------------------------------------

def _planner_value(model: DiffusionModel, payoff: PayoffSpec, y: float) -> tuple[float, float, float]:
    """``(c, p, H)`` at y: ``H(y) = (p (y - y0) - K)/xi(y)`` with ``p = phi(c)``, c clamped to the domain.

    H is also every agent's value when all of them harvest at y.
    """
    xi, _, numerator, _ = _read(model, payoff, y)
    c = numerator / xi
    price = float(payoff.phi(_clamp_to_domain(c, payoff.domain)[0]))
    return c, price, (price * (y - model.restart_level) - payoff.cost) / xi


def _refine_maximum(scan: _Scan, i: int) -> tuple[float, float]:
    """``(y, H(y))`` at the maximum of H between the neighbours of the scan's local maximum i.

    y is the root of the first-order condition
    ``G_P = (p + p' (y - y0)) xi - (p (y - y0) - K) xi'``, which has the sign
    of ``H'``, by :func:`impulse._refine`'s secant steps on
    ``[grid[i - 1], grid[i + 1]]``.
    At the cell ends it reads the scan's xi and price, so no grid point is
    priced again.
    """
    model, payoff = scan.model, scan.payoff
    y0 = model.restart_level

    def condition(y: float, xi_y: float, xi_prime: float, numerator: float, slope: float,
                  price: Optional[float] = None) -> float:
        """``G_P(y)`` from the reads at y (see :func:`_read`), and from the price where the scan has it."""
        c, dp = _price_slope(payoff, xi_y, xi_prime, numerator, slope)
        if price is None:
            price = float(payoff.phi(_clamp_to_domain(c, payoff.domain)[0]))
        return (price + dp * (y - y0)) * xi_y - (price * (y - y0) - payoff.cost) * xi_prime

    a, b = float(scan.grid[i - 1]), float(scan.grid[i + 1])
    xi, prices = scan.xi(i - 1, i + 2), scan.prices(i - 1, i + 2)
    with np.errstate(over="ignore", invalid="ignore"):   # _refine refuses a NaN G_P
        y = _refine(
            "planner refinement", lambda v: condition(v, *_read(model, payoff, v)), a, b,
            condition(a, xi[0], *_read(model, payoff, a)[1:], price=prices[0]),
            condition(b, xi[2], *_read(model, payoff, b)[1:], price=prices[2]),
        )
    return y, _planner_value(model, payoff, y)[2]


def _planner(model: DiffusionModel, scan: _Scan) -> MfcSolution:
    payoff, grid = scan.payoff, scan.grid
    y0 = model.restart_level
    n = len(grid)
    # grid[:check + 2] has the local maxima of the whole grid up to `check`, the first point
    # past 2 y_hi; each maximum past it is bracketed above grid[check], where the zero-cost
    # bound on H (see mfc_optimum) rules it out once below the best priced maximum
    check = int(np.searchsorted(grid, 2.0 * scan.bounds[1], side="right"))
    for end in (min(check + 2, n), n):
        xi = scan.xi(0, end)
        with np.errstate(over="ignore", invalid="ignore"):   # the refinement refuses a non-finite H
            h_grid = (scan.prices(0, end) * (grid[:end] - y0) - payoff.cost) / xi
        interior = np.arange(1, end - 1)
        local_max = interior[
            (h_grid[interior] >= h_grid[interior - 1]) & (h_grid[interior] >= h_grid[interior + 1])
        ]
        if end == n:
            break
        if len(local_max):
            best = float(np.max(h_grid[local_max]))
            with np.errstate(over="ignore"):   # an infinite bound rules nothing out
                bound = float(payoff.phi(payoff.domain[0])) * (grid[check] - y0) / xi[check]
            if bound < best - _TIE_REL_TOL * max(abs(best), 1e-12):
                break

    overflow = np.flatnonzero(~np.isfinite(h_grid))
    if len(overflow):
        raise SolverError(
            "the planner objective H overflows: phi(c) (y - y0) is not finite "
            f"at the threshold y = {grid[overflow[0]]}"
        )
    if len(local_max) == 0:
        raise SolverError("the planner objective H has no interior maximum on the scan grid")
    refined = sorted((_refine_maximum(scan, int(i)) for i in local_max), key=lambda t: -t[1])
    best_y, best_v = refined[0]
    ties = [y for y, v in refined if abs(v - best_v) <= _TIE_REL_TOL * max(abs(best_v), 1e-12)]
    ties = sorted(set(round(t, 12) for t in ties))
    flags: list[str] = []
    if len(ties) > 1:
        flags.append("multiple maximizers within tolerance; smallest threshold reported")
        best_y = ties[0]
    level, _, best_v = _planner_value(model, payoff, best_y)
    return MfcSolution(
        threshold=best_y,
        value=best_v,
        interaction_level=_clamp_to_domain(level, payoff.domain)[0],
        ties=tuple(ties) if len(ties) > 1 else (),
        flags=tuple(flags),
    )


def mfc_optimum(model: DiffusionModel, payoff: PayoffSpec) -> MfcSolution:
    """Maximize H(y) = (gamma(y, c(y)) - K)/xi(y) over thresholds.

    ``H`` is read off the shared scan grid; each local maximum of the grid is
    refined on its two neighbouring cells by secant steps on the first-order
    condition ``G_P``, which has the sign of ``H'`` (see
    :func:`_refine_maximum`), until one is below ``1e-8 y``. A
    maximum whose cells hold no sign change of ``G_P``, or a grid with no
    interior maximum, raises :class:`SolverError`. Maxima within a relative
    ``1e-6`` of the best are reported as ties, the smallest first.

    The grid is priced up to the first point past ``2 y_hi`` and its right
    neighbour. With ``K > 0`` and ``phi`` nonincreasing,
    ``H(y) < phi(z_lo) (y - y0)/xi(y)``, the zero-cost objective, which falls
    past its maximizer ``y_hat0 < y_hi``. So when that bound at the check
    point is below the best local maximum priced by more than the tie
    tolerance, no maximum further out can win or tie, and the rest of the grid
    is not priced; otherwise it is, and either way the result is that of the
    full scan.
    """
    return _planner(model, _scan(model, payoff))


# ---------------------------------------------------------------------------
# comparison and sweeps
# ---------------------------------------------------------------------------

def compare(model: DiffusionModel, payoff: PayoffSpec) -> CompareReport:
    """Solve both problems and assert the threshold ordering for the channel."""
    scan = _scan(model, payoff)
    equilibria = _equilibria(model, scan)
    planner = _planner(model, scan)
    if len(equilibria) == 0:
        raise SolverError("no equilibrium found; cannot compare")
    if payoff.interaction is Interaction.HARVEST_RATE:
        margins = tuple(planner.threshold - p.threshold for p in equilibria.equilibria)
        ordering = "planner threshold >= equilibrium threshold"
    else:
        margins = tuple(p.threshold - planner.threshold for p in equilibria.equilibria)
        ordering = "planner threshold <= each equilibrium threshold"
    ok = all(m >= -_ORDER_TOL for m in margins)
    report = CompareReport(
        equilibria=equilibria, planner=planner, margins=margins, ordering=ordering, ok=ok
    )
    if not ok:
        raise ComparisonError(
            f"threshold ordering violated: {ordering}, margins {margins}"
        )
    return report


@dataclass(frozen=True)
class SweepRow:
    q: float
    b: float
    cost: float
    equilibrium_thresholds: tuple[float, ...]
    equilibrium_values: tuple[float, ...]
    planner_threshold: float
    planner_value: float
    margin: float              # worst-case signed ordering margin
    ok: bool


def ordering_sweep(
    interaction: Interaction,
    n_draws: int = 100,
    *,
    seed: int = 2024,
) -> list[SweepRow]:
    """Randomized logistic scenarios; checks the ordering in every draw.

    Draws q in (-2, -0.2), b in (0.2, 1), K in (0.5, 2) with beta = 1 and
    y0 = 1, mirroring the ergodic parameter region, with the price 1/(1+z).
    """
    rng = np.random.default_rng(seed)
    rows: list[SweepRow] = []
    for _ in range(n_draws):
        q = rng.uniform(-2.0, -0.2)
        b = rng.uniform(0.2, 1.0)
        cost = rng.uniform(0.5, 2.0)
        model = logistic_model(q=q, b=b, beta=1.0, y0=1.0)
        payoff = PayoffSpec(
            cost=cost, phi=lambda z: 1.0 / (1.0 + z), interaction=interaction, phi_source="1/(1+z)"
        )
        try:
            report = compare(model, payoff)
            margin = min(report.margins)
            ok = report.ok
            eq_t = tuple(p.threshold for p in report.equilibria.equilibria)
            eq_v = tuple(p.value for p in report.equilibria.equilibria)
            planner = report.planner
        except ComparisonError as exc:
            raise ComparisonError(f"draw (q={q}, b={b}, K={cost}): {exc}") from exc
        rows.append(
            SweepRow(
                q=q,
                b=b,
                cost=cost,
                equilibrium_thresholds=eq_t,
                equilibrium_values=eq_v,
                planner_threshold=planner.threshold,
                planner_value=planner.value,
                margin=margin,
                ok=ok,
            )
        )
    return rows
