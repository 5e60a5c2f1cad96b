"""The two grid sizes a scenario may set.

Every tolerance and iteration budget of the solvers is a constant of the
module that uses it; only the sizes of the equilibrium/planner scan grid and
of the stopping-problem verification grid travel with a scenario (the CLI's
``--grid`` overrides both), each in ``[2, MAX_GRID_POINTS]``.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_GRID_POINTS = 100_000   # largest size of either grid


@dataclass(frozen=True)
class NumericsConfig:
    scan_points: int = 500            # threshold grid shared by the equilibrium and planner solves
    stopping_grid_points: int = 400   # grid of the stopping-problem verification


DEFAULT_NUMERICS = NumericsConfig()
