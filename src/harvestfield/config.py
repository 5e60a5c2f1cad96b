"""Numerical tolerances and budgets used by the solvers.

A single immutable config travels through the solver entry points so that a
whole run is reproducible from its scenario file. The defaults are tuned for
the double-precision identities the test-suite asserts; loosening them will
show up there first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericsConfig:
    # quadrature
    quad_abs_tol: float = 1e-10
    quad_rel_tol: float = 1e-9
    eps_halvings: int = 40          # refinement budget toward a 0 endpoint
    tail_doublings: int = 60        # interval doublings toward +inf

    # hitting-time series
    series_rel_eps: float = 1e-14
    series_max_terms: int = 100_000
    series_arg_cap: float = 700.0   # switch to quadrature when rho*y exceeds this

    # root finding / 1-d optimization
    objective_rel_tol: float = 1e-10   # |F|/xi at the accepted root
    bracket_rel_tol: float = 1e-9      # Newton step or bracket width relative to the root
    bracket_doublings: int = 60
    # x tolerance of the bounded Brent maximizations (planner, auxiliary problem,
    # stopping target), relative to max(upper end, 1); named after the
    # golden-section search it once served, so scenario files keep loading
    golden_rel_tol: float = 1e-9

    # fixed points / equilibria
    fixed_point_tol: float = 1e-8
    fixed_point_max_iter: int = 200
    scan_points: int = 500

    # stopping-problem grids
    stopping_grid_points: int = 400
    cdf_grid_points: int = 2000

    # reporting
    tie_rel_tol: float = 1e-6       # distinct local maxima counted as ties

    def with_overrides(self, **kwargs) -> "NumericsConfig":
        return replace(self, **kwargs)


DEFAULT_NUMERICS = NumericsConfig()
