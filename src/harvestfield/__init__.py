"""Threshold-strategy solvers for harvesting a one-dimensional diffusion in a mean-field market.

The package computes, for a regular diffusion on (0, inf) restarted at y0:

* single-agent optimal impulse thresholds and long-run values,
* the unique competitive equilibrium under average-harvest-rate pricing and
  all equilibria under expected-stock pricing, with stability labels,
* the cooperative (planner) optimum and the threshold ordering between the
  two regimes,
* Monte-Carlo cross-validation of every analytic quantity.
"""

from .diffusion import (
    AssumptionReport,
    DiffusionModel,
    LogisticParams,
    custom_model,
    get_evaluator,
    logistic_model,
    model_from_dict,
    validate_assumptions,
)
from .errors import (
    ComparisonError,
    DivergenceError,
    DomainError,
    HarvestFieldError,
    NoRootError,
    ScenarioError,
    SolverError,
)
from .impulse import (
    StoppingValue,
    ThresholdSolution,
    VerificationReport,
    best_response,
    critical_bounds,
    max_harvest_rate,
    optimal_threshold_basic,
    solve_auxiliary,
    stopping_value,
    verify_solution,
)
from .meanfield import (
    CompareReport,
    EquilibriumPoint,
    EquilibriumSet,
    MfcSolution,
    SweepRow,
    classify_stability,
    compare,
    interaction_level,
    mfc_optimum,
    mfg_equilibrium,
    ordering_sweep,
    phi_map,
    resolve_payoff,
)
from .payoff import Interaction, PayoffSpec
from .scenario import Scenario, load_scenario, scenario_from_dict
from .simulation import (
    EstimateReport,
    PathRecord,
    SimConfig,
    estimate_hitting_time,
    estimate_stationary_mean,
    estimate_value,
    simulate_path,
)
from .stationary import (
    controlled_cdf,
    controlled_density,
    density_table,
    expected_stock,
    reflected_mean,
    stock_bounds,
    uncontrolled_mean,
)

__version__ = "0.1.0"
