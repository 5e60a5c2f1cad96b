import math

import numpy as np
import pytest
from helpers import simpson_refine

from harvestfield.errors import DomainError
from harvestfield.quadrature import integrate, integrate_to_zero
from harvestfield.stationary import (
    controlled_cdf,
    controlled_density,
    controlled_stationary,
    density_table,
    expected_stock,
    reflected_mean,
    stock_bounds,
    uncontrolled_mean,
)

# independent 40-digit references
Z1 = 0.6077888088226672
ESTOCK_4 = 1.2451224070965399
ESTOCK_68 = 1.6834357940780964


def test_density_vanishes_above_threshold(benchmark_model):
    assert controlled_density(benchmark_model, 5.0, 5.4) == 0.0
    assert controlled_density(benchmark_model, 5.0, 100.0) == 0.0


def test_density_normalizes(benchmark_model):
    for y in (2.0, 5.0, 9.0):
        mass = integrate_to_zero(
            lambda x: controlled_density(benchmark_model, y, x), 1.0
        ) + integrate(lambda x: controlled_density(benchmark_model, y, x), 1.0, y)
        assert abs(mass - 1.0) < 1e-8


def test_density_continuous_at_restart(benchmark_model):
    below = controlled_density(benchmark_model, 5.0, 1.0 - 1e-9)
    above = controlled_density(benchmark_model, 5.0, 1.0 + 1e-9)
    assert below == pytest.approx(above, rel=1e-6)


def test_density_nonnegative(benchmark_model):
    xs = np.geomspace(1e-3, 5.0, 200)
    assert np.all(controlled_density(benchmark_model, 5.0, xs) >= 0.0)


def test_normalizer_equals_cycle_length(benchmark_model, benchmark_evaluator):
    # the displayed normalizer, rebuilt by an independent Simpson oracle,
    # equals the expected cycle length xi(y)
    y = 5.0
    s = lambda u: u**-3 * math.exp(u - 1.0)
    m = lambda u: 2.0 * u * math.exp(1.0 - u)
    S = lambda v: simpson_refine(s, 1.0, v, tol=1e-11) if v > 1.0 else 0.0
    S_y = S(y)
    kappa_inv = simpson_refine(lambda w: (S_y - S(w)) * m(w), 1.0, y, tol=1e-9, n0=64) + (
        S_y * simpson_refine(m, 1e-9, 1.0, tol=1e-11)
    )
    assert kappa_inv == pytest.approx(benchmark_evaluator.xi(y), rel=1e-7)
    law = controlled_stationary(benchmark_model, y)
    assert law.normalization == pytest.approx(1.0 / kappa_inv, rel=1e-7)


def test_cdf_endpoints_and_monotonicity(benchmark_model):
    xs = np.geomspace(1e-3, 5.0, 150)
    cdf = controlled_cdf(benchmark_model, 5.0, xs)
    assert cdf[0] < 1e-4
    assert cdf[-1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(cdf) >= -1e-12)


@pytest.mark.parametrize("pair", [(3.0, 6.0), (5.0, 20.0)])
def test_cdf_stochastic_ordering(benchmark_model, pair):
    # lower threshold keeps the stock lower: CDF_low >= CDF_high pointwise
    y_low, y_high = pair
    xs = np.geomspace(1e-3, y_high, 2000)
    cdf_low = controlled_cdf(benchmark_model, y_low, xs)
    cdf_high = controlled_cdf(benchmark_model, y_high, xs)
    assert np.all(cdf_low >= cdf_high - 1e-8)


def test_expected_stock_reference_values(benchmark_model):
    assert expected_stock(benchmark_model, 4.0) == pytest.approx(ESTOCK_4, rel=1e-9)
    assert expected_stock(benchmark_model, 6.8) == pytest.approx(ESTOCK_68, rel=1e-9)


def test_expected_stock_increasing(benchmark_model):
    assert expected_stock(benchmark_model, 3.0) < expected_stock(benchmark_model, 6.0)
    ys = np.geomspace(1.01, 25.0, 60)
    vals = expected_stock(benchmark_model, ys)
    assert np.all(np.diff(vals) > 0.0)


def test_expected_stock_limit_is_reflected_mean(benchmark_model):
    assert expected_stock(benchmark_model, 1.0 + 1e-4) == pytest.approx(Z1, abs=1e-3)


def test_expected_stock_refuses_degenerate_threshold(benchmark_model):
    with pytest.raises(DomainError):
        expected_stock(benchmark_model, 1.0 + 1e-7)


def test_expected_stock_within_bounds(benchmark_model):
    z1, z2 = stock_bounds(benchmark_model)
    for y in (1.5, 3.0, 8.0, 50.0):
        # 1e-9 slack: at large thresholds the mean saturates at z2 and the
        # huge-scale cancellations leave O(1e-10) roundoff
        assert z1 - 1e-9 <= expected_stock(benchmark_model, y) <= z2 + 1e-9


def test_grid_matches_scalar(benchmark_model):
    ys = np.geomspace(1.2, 40.0, 30)
    grid = expected_stock(benchmark_model, ys)
    scalars = [expected_stock(benchmark_model, float(y)) for y in ys]
    assert np.allclose(grid, scalars, rtol=1e-9)


def test_reflected_mean_oracle(benchmark_model):
    num = simpson_refine(lambda u: 2.0 * u * u * math.exp(1.0 - u), 1e-10, 1.0, tol=1e-11)
    den = simpson_refine(lambda u: 2.0 * u * math.exp(1.0 - u), 1e-10, 1.0, tol=1e-11)
    assert reflected_mean(benchmark_model) == pytest.approx(num / den, rel=1e-8)
    assert reflected_mean(benchmark_model) == pytest.approx(Z1, rel=1e-10)
    assert reflected_mean(benchmark_model) < 1.0


def test_uncontrolled_mean_gamma_reduction(benchmark_model, quadrature_twin):
    # int 2 x^2 e^(1-x) / (2e) = Gamma(3)/Gamma(2) = 2
    assert uncontrolled_mean(benchmark_model) == pytest.approx(2.0, rel=1e-12)
    assert uncontrolled_mean(quadrature_twin) == pytest.approx(2.0, rel=1e-7)


def test_stock_bounds_ordering(benchmark_model):
    z1, z2 = stock_bounds(benchmark_model)
    assert z1 < z2
    assert z1 == pytest.approx(Z1, rel=1e-10)
    assert z2 == pytest.approx(2.0, rel=1e-12)


def test_density_table_shape(benchmark_model):
    xs, pdf, cdf = density_table(benchmark_model, 5.0)
    assert len(xs) == len(pdf) == len(cdf) == 2000
    assert xs[0] == pytest.approx(1e-3)
    assert xs[-1] == pytest.approx(5.0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(pdf >= 0.0)
