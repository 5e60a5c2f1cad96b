"""Exception hierarchy shared across the package."""


class HarvestFieldError(Exception):
    """Base class for all package errors."""


class DomainError(HarvestFieldError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(HarvestFieldError, ArithmeticError):
    """An improper integral failed to converge (or provably diverges)."""


class NoRootError(HarvestFieldError, RuntimeError):
    """Bracket expansion found no sign change; usually an assumption violation."""


class SolverError(HarvestFieldError, RuntimeError):
    """A solve produced no usable result."""


class ComparisonError(HarvestFieldError, RuntimeError):
    """The game/planner threshold ordering was violated beyond tolerance."""


class ScenarioError(HarvestFieldError, ValueError):
    """A scenario file or expression failed to parse or validate."""
