"""Equilibria and planner optima for the mean-field harvesting market.

Agents interact through one scalar ``c(y)``: the average harvesting rate
``(y - y0)/xi(y)`` or the expected standing stock ``E[X_inf^{R(y)}]``. The
best-response map ``g`` sends an interaction level to the optimal threshold,
and ``Phi = g o c`` sends a population threshold to the individual optimum.

Both problems read one log grid of thresholds; each grid point is priced at
most once per solve:

* competitive equilibrium: fixed point of Phi. On either channel every sign
  change of ``Phi(y) - y`` on the grid is refined by Brent's method. Under the
  harvest-rate channel Phi is strictly decreasing, so the search must find
  exactly one root; under the expected-stock channel Phi is nondecreasing and
  several equilibria may coexist.
* cooperative (planner) optimum: maximizer of
  ``H(y) = (gamma(y, c(y)) - K)/xi(y)``, by a scan of the same grid plus
  Brent's bounded maximization around each local maximum of the scan.

The threshold ordering between the two solutions is checked by
:func:`compare`: planner >= equilibrium under the harvest-rate channel and
planner <= every equilibrium under the expected-stock channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .config import DEFAULT_NUMERICS, NumericsConfig
from .diffusion import DiffusionModel, logistic_model, validate_assumptions
from .errors import ComparisonError, DomainError, SolverError
from .hitting import get_evaluator
from .impulse import (
    ThresholdSolution,
    _bounded_max,
    best_response,
    critical_bounds,
    max_harvest_rate,
    optimal_thresholds_on_grid,
    zero_cost_threshold,
)
from .payoff import Interaction, PayoffSpec
from .stationary import expected_stock, expected_stock_grid, stock_bounds

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


# ---------------------------------------------------------------------------
# payoff resolution and the interaction channel
# ---------------------------------------------------------------------------

def resolve_payoff(model: DiffusionModel, payoff: PayoffSpec) -> PayoffSpec:
    """Attach the attainable interaction domain and sanity-check the price curve."""
    if payoff.cost <= 0.0:
        raise DomainError("the impulse cost K must be positive")
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
    if np.ndim(y) == 0:
        return expected_stock(model, float(y), xi)
    return expected_stock_grid(model, np.asarray(y, dtype=float), xi)


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
        sol = ThresholdSolution(
            threshold=sol.threshold,
            value=sol.value,
            residual=sol.residual,
            bracket=sol.bracket,
            iterations=sol.iterations,
            profitable=sol.profitable,
            flags=tuple(set(sol.flags) | {"interaction level clamped to domain"}),
        )
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
    map_slope: float            # numeric Phi'(y)
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
    values that pricing computes are kept for the planner.
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

    def xi(self) -> np.ndarray:
        """``xi`` on the whole grid, as priced."""
        self.prices()
        return self._xi.copy()


def _scan(model: DiffusionModel, payoff: PayoffSpec, *, numerics: NumericsConfig) -> _Scan:
    """Resolve the payoff once and lay a grid that reaches past ``2 * y_hi``.

    Phi maps into ``[y_lo, y_hi]``, so every fixed point lies inside the grid,
    and the planner's maximizer lies below ``max(20 * y_hat0, 2 * y_hi)``.
    """
    if numerics.scan_points < 2:
        raise DomainError(f"numerics.scan_points must be at least 2, got {numerics.scan_points}")
    payoff = resolve_payoff(model, payoff)
    y_lo, y_hi = critical_bounds(model, payoff)
    y_hat0 = zero_cost_threshold(model).threshold
    y0 = model.restart_level
    grid = np.geomspace(y0 * (1.0 + 1e-3), max(20.0 * y_hat0, 2.0 * y_hi), numerics.scan_points)
    return _Scan(model, payoff, (y_lo, y_hi), grid)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def _equilibrium_point(model, payoff, y_star) -> EquilibriumPoint:
    z = interaction_level(model, payoff, y_star)
    sol = best_response(model, payoff, z)
    stability, slope = classify_stability(model, payoff, y_star)
    return EquilibriumPoint(
        threshold=y_star,
        value=sol.value,
        interaction=z,
        stability=stability,
        map_slope=slope,
        residual=abs(sol.threshold - y_star),
    )


def _equilibria(model: DiffusionModel, scan: _Scan) -> EquilibriumSet:
    payoff, grid = scan.payoff, scan.grid
    y_lo, y_hi = scan.bounds
    diagnostics: dict = {"bounds": [y_lo, y_hi]}

    if y_hi - y_lo < _FIXED_POINT_TOL:
        # Phi is constant up to the tolerance; its value is the fixed point
        roots = [0.5 * (y_lo + y_hi)]
    else:
        def psi(y: float) -> float:
            return phi_map(model, payoff, y).threshold - y

        # Phi maps into [y_lo, y_hi], so psi > 0 below y_lo and psi < 0 above
        # y_hi: only the cells that meet [y_lo, y_hi] can hold a sign change
        lo = max(int(np.searchsorted(grid, y_lo)) - 1, 0)
        hi = min(int(np.searchsorted(grid, y_hi, side="right")) + 1, len(grid))
        ys = grid[lo:hi]
        psi_grid = optimal_thresholds_on_grid(model, payoff.cost / scan.prices(lo, hi)) - ys
        diagnostics["scan"] = {
            "points": len(grid),
            "cap": float(grid[-1]),
            "searched": [lo, hi],
            "psi_start": float(psi_grid[0]),
            "psi_end": float(psi_grid[-1]),
        }
        roots = [float(y) for y in ys[psi_grid == 0.0]]
        for i in np.flatnonzero(psi_grid[:-1] * psi_grid[1:] < 0.0):
            a, b = float(ys[i]), float(ys[i + 1])
            # brentq starts from the scan's psi at the cell ends: no Phi step is
            # repeated, and the sign change it needs is the one the scan found
            ends = {a: psi_grid[i], b: psi_grid[i + 1]}
            try:
                root = brentq(
                    lambda y: ends[y] if y in ends else psi(y), a, b,
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
            "psi has no sign change on the scan grid; check the assumption report"
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

    One search serves both channels: ``psi(y) = Phi(y) - y`` is evaluated on
    the cells of the shared log grid that meet the best-response range
    ``[y_lo, y_hi]``, which holds every fixed point, and every sign change is
    refined by Brent's method. Under the harvest-rate channel Phi is strictly
    decreasing, so exactly one root must be found; any other count raises
    :class:`SolverError`. Under the expected-stock channel several equilibria
    may coexist. When the price does not move the best response (``y_hi -
    y_lo`` below the fixed-point tolerance) the midpoint of the bounds is
    returned without pricing the grid.
    """
    return _equilibria(model, _scan(model, payoff, numerics=numerics))


def classify_stability(
    model: DiffusionModel, payoff: PayoffSpec, y_star: float
) -> tuple[str, float]:
    """Label a fixed point by its central-difference map slope Phi'.

    The slope comes from two Phi steps at ``y_star * (1 +/- 1e-3)``. The label
    is "marginal" when ``|Phi'|`` is within 1e-3 of 1, otherwise "stable" when
    ``|Phi'| < 1`` and "unstable" when not.

    Returns ``(label, slope)`` with label in {"stable", "unstable", "marginal"}.
    """
    if payoff.domain is None:
        payoff = resolve_payoff(model, payoff)
    step = 1e-3 * y_star
    up = phi_map(model, payoff, y_star + step).threshold
    down = phi_map(model, payoff, y_star - step).threshold
    slope = (up - down) / (2.0 * step)
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
        z, _ = _clamp_to_domain(_interaction(model, payoff, y, xi), payoff.domain)
        return (float(payoff.phi(z)) * (y - y0) - payoff.cost) / xi

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
    phi: Optional[Callable[[float], float]] = None,
    phi_source: str = "1/(1+z)",
    tolerance: float = 1e-6,
    numerics: NumericsConfig = DEFAULT_NUMERICS,
) -> list[SweepRow]:
    """Randomized logistic scenarios; checks the ordering in every draw.

    Draws q in (-2, -0.2), b in (0.2, 1), K in (0.5, 2) with beta = 1 and
    y0 = 1, mirroring the ergodic parameter region.
    """
    rng = np.random.default_rng(seed)
    rows: list[SweepRow] = []
    price = phi if phi is not None else (lambda z: 1.0 / (1.0 + z))
    for _ in range(n_draws):
        q = rng.uniform(-2.0, -0.2)
        b = rng.uniform(0.2, 1.0)
        cost = rng.uniform(0.5, 2.0)
        model = logistic_model(q=q, b=b, beta=1.0, y0=1.0)
        payoff = PayoffSpec(cost=cost, phi=price, interaction=interaction, phi_source=phi_source)
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
