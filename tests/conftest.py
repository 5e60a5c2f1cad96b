import os

import pytest

from harvestfield.diffusion import _calculus, custom_model, logistic_model
from harvestfield.payoff import Interaction, PayoffSpec

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without hypothesis
    pass
else:
    # Property tests replay the same examples on every run, with a bounded budget;
    # HYPOTHESIS_PROFILE=ci replays a larger one.
    settings.register_profile(
        "harvestfield", derandomize=True, max_examples=25, deadline=None, database=None
    )
    settings.register_profile(
        "ci", derandomize=True, max_examples=500, deadline=None, database=None
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "harvestfield"))


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """``run(command, scenario) -> (exit code, out dir)`` through ``cli.main``, once per session."""
    from harvestfield.cli import main

    runs = {}

    def run(command, scenario):
        if (command, scenario) not in runs:
            out = tmp_path_factory.mktemp(command) / "out"
            runs[command, scenario] = main([command, "--scenario", scenario, "--out", str(out)]), out
        return runs[command, scenario]

    return run


@pytest.fixture(scope="session")
def benchmark_model():
    """Logistic diffusion used throughout: q=-1, b=1/2, beta=1, y0=1."""
    return logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0)


@pytest.fixture(scope="session")
def benchmark_evaluator(benchmark_model):
    return _calculus(benchmark_model)


@pytest.fixture(scope="session")
def quadrature_twin():
    """Same coefficients as the benchmark, but without the analytic tag.

    Both read the same scale/speed table; the twin takes its speed integrals
    below y0 from quadrature instead of the logistic closed forms.
    """
    return custom_model(
        drift=lambda x: x * (1.5 - 0.5 * x),
        volatility=lambda x: x,
        y0=1.0,
    )


@pytest.fixture(scope="session")
def rate_payoff():
    """Price 1/(1+z) against the average harvesting rate (unique equilibrium)."""
    return PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + z),
        interaction=Interaction.HARVEST_RATE,
        phi_source="1/(z+1)",
    )


@pytest.fixture(scope="session")
def stock_payoff():
    """Sharp sigmoid price against the expected standing stock."""
    import numpy as np

    return PayoffSpec(
        cost=1.0,
        phi=lambda z: 1.0 / (1.0 + np.exp(10.0 * (z - 1.9))),
        interaction=Interaction.EXPECTED_STOCK,
        phi_source="1/(1+exp(10*(z-1.9)))",
    )
