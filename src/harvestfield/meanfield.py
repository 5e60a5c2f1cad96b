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
  either channel every sign change of G on the grid is refined by Brent's
  method. Under the harvest-rate channel Phi is strictly decreasing, so the
  search must find exactly one root; under the expected-stock channel Phi is
  nondecreasing and several equilibria may coexist.
* cooperative (planner) optimum: maximizer of
  ``H(y) = (gamma(y, c(y)) - K)/xi(y)``, by a scan of the same grid plus
  Brent's bounded maximization around each local maximum of the scan.

The threshold ordering between the two solutions is checked by
:func:`compare`: planner >= equilibrium under the harvest-rate channel and
planner <= every equilibrium under the expected-stock channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._brent import zeroin
from .config import DEFAULT_NUMERICS, MAX_GRID_POINTS, NumericsConfig
from .diffusion import DiffusionModel, _calculus, logistic_model, validate_assumptions
from .errors import ComparisonError, DomainError, SolverError
from .hitting import get_evaluator
from .impulse import (
    ThresholdSolution,
    _bounded_max,
    best_response,
    critical_bounds,
    max_harvest_rate,
    zero_cost_threshold,
)
from .payoff import Interaction, PayoffSpec
from .stationary import expected_stock, stock_bounds

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

_FIXED_POINT_TOL = 1e-8      # x tolerance of every fixed point
_FIXED_POINT_MAX_ITER = 200
_TIE_REL_TOL = 1e-6          # planner maxima this close to the best are reported as ties
_PRICE_STEP = 1e-6           # step of the central difference phi', relative to the domain width


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
    zs = np.linspace(lo, hi, 65)
    phi_vals = np.array([float(payoff.phi(z)) for z in zs])
    if np.any(~np.isfinite(phi_vals)) or np.any(phi_vals <= 0.0):
        raise DomainError("phi must be positive and finite on the interaction domain")
    scale = float(np.max(phi_vals))
    if np.any(np.diff(phi_vals) > 1e-9 * scale):
        raise DomainError("phi must be nonincreasing on the interaction domain")
    return payoff.with_domain(lo, hi)


def interaction_level(
    model: DiffusionModel, payoff: PayoffSpec, y: float
) -> float:
    """c(y): harvesting rate (y-y0)/xi(y) or expected stock, per the payoff's channel."""
    if np.any(np.asarray(y) <= model.restart_level):
        raise DomainError("interaction level is defined for thresholds above y0")
    return _interaction(model, payoff, y, get_evaluator(model).xi(y))


def _interaction(model: DiffusionModel, payoff: PayoffSpec, y, xi):
    """c(y) from thresholds above y0 and their precomputed ``xi(y)``."""
    if payoff.interaction is Interaction.HARVEST_RATE:
        value = (np.asarray(y, dtype=float) - model.restart_level) / np.asarray(xi)
        return float(value) if np.ndim(y) == 0 else value
    return expected_stock(model, y, xi)


def _price(model: DiffusionModel, payoff: PayoffSpec, y: float, xi: float) -> float:
    """``phi(c(y))`` with c clamped to the interaction domain, from a precomputed ``xi(y)``."""
    z, _ = _clamp_to_domain(_interaction(model, payoff, y, xi), payoff.domain)
    return float(payoff.phi(z))


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
        sol = replace(sol, flags=tuple(set(sol.flags) | {"interaction level clamped to domain"}))
    return sol


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumPoint:
    threshold: float
    value: float
    interaction: float          # c(y) at the equilibrium
    stability: str              # "stable" | "unstable" | "marginal"
    map_slope: float            # Phi'(y) by the implicit function theorem
    residual: float             # |Phi(y) - y|

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "value": self.value,
            "interaction_level": self.interaction,
            "stability": self.stability,
            "map_slope": self.map_slope,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class EquilibriumSet:
    points: tuple[EquilibriumPoint, ...]
    bounds: tuple[float, float]         # best-response range [y_lo, y_hi]
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def thresholds(self) -> list[float]:
        return [p.threshold for p in self.points]

    def to_dict(self) -> dict:
        return {
            "equilibria": [p.to_dict() for p in self.points],
            "bounds": list(self.bounds),
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class MfcSolution:
    threshold: float
    value: float
    interaction: float
    ties: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "value": self.value,
            "interaction_level": self.interaction,
            "ties": list(self.ties),
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class CompareReport:
    equilibria: EquilibriumSet
    planner: MfcSolution
    margins: tuple[float, ...]   # signed; nonnegative when the ordering holds
    ordering: str                # human-readable statement of the checked direction
    ok: bool

    def to_dict(self) -> dict:
        return {
            "equilibria": self.equilibria.to_dict(),
            "planner": self.planner.to_dict(),
            "margins": list(self.margins),
            "ordering": self.ordering,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# the threshold scan shared by both problems
# ---------------------------------------------------------------------------

class _Scan:
    """A log grid of population thresholds, each priced at most once, on first use.

    The price of a grid point y is ``phi(c(y))`` with c clamped to the
    interaction domain. The equilibrium search prices only the cells that meet
    the best-response range; the planner prices the whole grid. The ``xi``
    values that pricing computes are kept for both.
    """

    def __init__(self, model: DiffusionModel, payoff: PayoffSpec,
                 bounds: tuple[float, float], grid: np.ndarray):
        self.model = model
        self.payoff = payoff            # with its interaction domain resolved
        self.bounds = bounds            # best-response range [y_lo, y_hi]
        self.grid = grid
        self._prices = np.full(len(grid), np.nan)
        self._xi = np.full(len(grid), np.nan)

    def prices(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Prices of ``grid[lo:hi]``."""
        prices, xi = self._prices[lo:hi], self._xi[lo:hi]   # views: new values are kept
        todo = np.isnan(prices)
        if np.any(todo):
            ys = self.grid[lo:hi][todo]
            xi[todo] = get_evaluator(self.model).xi(ys)
            z = np.clip(_interaction(self.model, self.payoff, ys, xi[todo]), *self.payoff.domain)
            new = np.array([float(self.payoff.phi(v)) for v in z])
            if not np.all(new > 0.0):
                raise DomainError("phi must stay positive on the attainable interaction range")
            prices[todo] = new
        return prices.copy()

    def xi(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``xi`` on ``grid[lo:hi]``, as priced."""
        self.prices(lo, hi)
        return self._xi[lo:hi].copy()


def _scan(model: DiffusionModel, payoff: PayoffSpec, *, numerics: NumericsConfig) -> _Scan:
    """Resolve the payoff once and lay a grid that reaches past ``2 * y_hi``.

    Phi maps into ``[y_lo, y_hi]``, so every fixed point lies inside the grid,
    and the planner's maximizer lies below ``max(20 * y_hat0, 2 * y_hi)``.
    """
    points = numerics.scan_points
    if not 2 <= points <= MAX_GRID_POINTS:
        raise DomainError(f"numerics.scan_points must lie in [2, {MAX_GRID_POINTS}]: {points}")
    payoff = resolve_payoff(model, payoff)
    y_lo, y_hi = critical_bounds(model, payoff)
    y_hat0 = zero_cost_threshold(model).threshold
    y0 = model.restart_level
    grid = np.geomspace(y0 * (1.0 + 1e-3), max(20.0 * y_hat0, 2.0 * y_hi), points)
    return _Scan(model, payoff, (y_lo, y_hi), grid)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def _equilibrium_point(model, payoff, y_star) -> EquilibriumPoint:
    xi = get_evaluator(model).xi(y_star)
    price = _price(model, payoff, y_star, xi)
    stability, slope = classify_stability(model, payoff, y_star)
    return EquilibriumPoint(
        threshold=y_star,
        value=(price * (y_star - model.restart_level) - payoff.cost) / xi,
        interaction=_interaction(model, payoff, y_star, xi),
        stability=stability,
        map_slope=slope,
        residual=abs(phi_map(model, payoff, y_star).threshold - y_star),
    )


def _equilibria(model: DiffusionModel, scan: _Scan) -> EquilibriumSet:
    payoff, grid = scan.payoff, scan.grid
    ev = get_evaluator(model)
    y0 = model.restart_level
    y_lo, y_hi = scan.bounds
    diagnostics: dict = {"bounds": [y_lo, y_hi]}

    if y_hi - y_lo < _FIXED_POINT_TOL:
        # Phi is constant up to the tolerance; its value is the fixed point
        roots = [0.5 * (y_lo + y_hi)]
    else:
        def gap(y: float) -> float:
            xi = ev.xi(y)
            return _price(model, payoff, y, xi) * (y - y0 - xi / ev.xi_prime(y)) - payoff.cost

        # G has the sign of y - Phi(y), and Phi maps into [y_lo, y_hi]: only the
        # cells that meet [y_lo, y_hi] can hold a sign change
        lo = max(int(np.searchsorted(grid, y_lo)) - 1, 0)
        hi = min(int(np.searchsorted(grid, y_hi, side="right")) + 1, len(grid))
        ys = grid[lo:hi]
        xi = scan.xi(lo, hi)
        gaps = scan.prices(lo, hi) * (ys - y0 - xi / ev.xi_prime(ys)) - payoff.cost
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
            # zeroin starts from the scan's G at the cell ends: no cell end is
            # priced twice, and the sign change it needs is the one the scan found
            ends = {a: gaps[i], b: gaps[i + 1]}
            try:
                root = zeroin(
                    lambda y: ends[y] if y in ends else gap(y), a, b,
                    xtol=_FIXED_POINT_TOL, maxiter=_FIXED_POINT_MAX_ITER,
                )
            except (RuntimeError, ValueError) as exc:  # budget exhausted or bracket rejected
                raise SolverError(f"fixed-point refinement on [{a}, {b}] failed: {exc}") from exc
            roots.append(root)

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
        diagnostics["assumptions"] = validate_assumptions(model).to_dict()
        return EquilibriumSet(points=(), bounds=(y_lo, y_hi), diagnostics=diagnostics)

    points = tuple(_equilibrium_point(model, payoff, r) for r in roots)
    return EquilibriumSet(points=points, bounds=(y_lo, y_hi), diagnostics=diagnostics)


def mfg_equilibrium(
    model: DiffusionModel,
    payoff: PayoffSpec,
    *,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> EquilibriumSet:
    """All threshold equilibria of the market, with stability labels.

    One search serves both channels: the roots of ``G(y) = phi(c(y)) k(y) - K``,
    ``k(y) = y - y0 - xi(y)/xi'(y)``, on the grid cells that meet the
    best-response range ``[y_lo, y_hi]``, each sign change refined by Brent's
    method; no threshold is solved. Under the harvest-rate channel Phi is
    strictly decreasing, so any root count but one raises
    :class:`SolverError`; under the expected-stock channel several equilibria
    may coexist. When ``y_hi - y_lo`` is below the fixed-point tolerance the
    midpoint is returned without pricing the grid. Each point's residual is
    ``|Phi(y) - y|`` from one Phi step.
    """
    return _equilibria(model, _scan(model, payoff, numerics=numerics))


def _map_slope(model: DiffusionModel, payoff: PayoffSpec, y: float) -> float:
    """``Phi'(y) = -K p'/(p^2 k')`` at a fixed point y, by the implicit function theorem.

    ``k' = xi xi''/xi'^2`` and ``p' = phi'(c) c'``, with ``phi'`` a central
    difference inside the domain and ``p' = 0`` where c is on or outside it.
    """
    ev = get_evaluator(model)
    xi, xi_prime = ev.xi(y), ev.xi_prime(y)
    c = _interaction(model, payoff, y, xi)
    lo, hi = payoff.domain
    if not lo < c < hi:
        return 0.0
    if payoff.interaction is Interaction.HARVEST_RATE:
        dc = (xi - (y - model.restart_level) * xi_prime) / xi**2
    else:
        calc = _calculus(model)
        dc = (calc.xm0(y) * calc.s(y) * xi - calc.cycle_stock(y) * xi_prime) / xi**2
    a, b = max(c - _PRICE_STEP * (hi - lo), lo), min(c + _PRICE_STEP * (hi - lo), hi)
    dp = (float(payoff.phi(b)) - float(payoff.phi(a))) / (b - a) * dc
    return -payoff.cost * dp * xi_prime**2 / (float(payoff.phi(c)) ** 2 * xi * ev.xi_second(y))


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

def _planner(model: DiffusionModel, scan: _Scan) -> MfcSolution:
    payoff, grid = scan.payoff, scan.grid
    ev = get_evaluator(model)
    y0 = model.restart_level
    h_grid = (scan.prices() * (grid - y0) - payoff.cost) / scan.xi()

    def h_scalar(y: float) -> float:
        xi = ev.xi(y)
        return (_price(model, payoff, y, xi) * (y - y0) - payoff.cost) / xi

    def refine_around(i: int) -> tuple[float, float]:
        lo = float(grid[max(i - 1, 0)])
        hi = float(grid[min(i + 1, len(grid) - 1)])
        y_ref, v_ref, _ = _bounded_max(h_scalar, lo, hi)
        return y_ref, v_ref

    interior = np.arange(1, len(grid) - 1)
    local_max = interior[
        (h_grid[interior] >= h_grid[interior - 1]) & (h_grid[interior] >= h_grid[interior + 1])
    ]
    if len(local_max) == 0:
        local_max = np.array([int(np.argmax(h_grid))])
    refined = sorted((refine_around(int(i)) for i in local_max), key=lambda t: -t[1])
    best_y, best_v = refined[0]
    ties = [y for y, v in refined if abs(v - best_v) <= _TIE_REL_TOL * max(abs(best_v), 1e-12)]
    ties = sorted(set(round(t, 12) for t in ties))
    flags: list[str] = []
    if len(ties) > 1:
        flags.append("multiple maximizers within tolerance; smallest threshold reported")
        best_y = ties[0]
        best_v = h_scalar(best_y)
    if best_v <= 0.0:
        flags.append("no profitable harvest")
    z_best, _ = _clamp_to_domain(interaction_level(model, payoff, best_y), payoff.domain)
    return MfcSolution(
        threshold=best_y,
        value=best_v,
        interaction=z_best,
        ties=tuple(ties) if len(ties) > 1 else (),
        flags=tuple(flags),
    )


def mfc_optimum(
    model: DiffusionModel,
    payoff: PayoffSpec,
    *,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> MfcSolution:
    """Maximize H(y) = (gamma(y, c(y)) - K)/xi(y) over thresholds.

    ``H`` is read off the shared scan grid; each local maximum of the grid is
    refined by Brent's bounded maximization on its two neighbouring cells
    ``[lo, hi]`` (x tolerance as in :func:`impulse._bounded_max`). Maxima within a
    relative ``1e-6`` of the best are reported as ties, the smallest first.
    """
    return _planner(model, _scan(model, payoff, numerics=numerics))


# ---------------------------------------------------------------------------
# comparison and sweeps
# ---------------------------------------------------------------------------

def compare(
    model: DiffusionModel,
    payoff: PayoffSpec,
    *,
    tolerance: float = 1e-6,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> CompareReport:
    """Solve both problems and assert the threshold ordering for the channel."""
    scan = _scan(model, payoff, numerics=numerics)
    equilibria = _equilibria(model, scan)
    planner = _planner(model, scan)
    if len(equilibria) == 0:
        raise SolverError("no equilibrium found; cannot compare")
    if payoff.interaction is Interaction.HARVEST_RATE:
        margins = tuple(planner.threshold - p.threshold for p in equilibria.points)
        ordering = "planner threshold >= equilibrium threshold"
    else:
        margins = tuple(p.threshold - planner.threshold for p in equilibria.points)
        ordering = "planner threshold <= each equilibrium threshold"
    ok = all(m >= -tolerance for m in margins)
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

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "b": self.b,
            "K": self.cost,
            "equilibrium_thresholds": list(self.equilibrium_thresholds),
            "equilibrium_values": list(self.equilibrium_values),
            "planner_threshold": self.planner_threshold,
            "planner_value": self.planner_value,
            "margin": self.margin,
            "ok": self.ok,
        }


def ordering_sweep(
    interaction: Interaction,
    n_draws: int = 100,
    *,
    seed: int = 2024,
    tolerance: float = 1e-6,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
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
            report = compare(model, payoff, tolerance=tolerance, numerics=numerics)
            margin = min(report.margins)
            ok = report.ok
            eq_t = tuple(p.threshold for p in report.equilibria.points)
            eq_v = tuple(p.value for p in report.equilibria.points)
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
