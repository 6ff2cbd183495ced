"""Edge family means, derivatives, variances, and samplers."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_max_ulp
from scipy.special import expit

from netmoment.errors import DataError
from netmoment.families import get_family, initial_degree_params

FAMILIES = ["logistic", "poisson", "probit"]


class TestLogisticClosedForms:
    def test_values_at_zero(self):
        fam = get_family("logistic")
        m1, m2, m3 = fam.mean_derivs(0.0)
        assert fam.mean(0.0) == 0.5
        assert m1 == 0.25
        assert m2 == 0.0
        assert_allclose(m3, -0.125, rtol=0, atol=1e-15)

    def test_values_at_log3(self):
        # mean 3/4, slope 3/16, curvature -3/32, third derivative -3/128
        fam = get_family("logistic")
        x = np.log(3.0)
        m1, m2, m3 = fam.mean_derivs(x)
        assert_allclose(fam.mean(x), 0.75, rtol=1e-14)
        assert_allclose(m1, 3.0 / 16.0, rtol=1e-14)
        assert_allclose(m2, -3.0 / 32.0, rtol=1e-13)
        assert_allclose(m3, -3.0 / 128.0, rtol=1e-12)

    def test_derivative_bounds_on_grid(self):
        fam = get_family("logistic")
        grid = np.linspace(-10.0, 10.0, 4001)
        m1, m2, m3 = fam.mean_derivs(grid)
        for deriv in (m1, m2, m3):
            assert np.abs(deriv).max() <= 0.25 + 1e-12


class TestLogisticMeanAgainstExpit:
    """scipy's expit evaluates the same formula, 1 / (1 + exp(-x)), with
    libm's exp; numpy's exp may differ from it by one unit in the last
    place (ulp)."""

    def test_within_one_ulp_on_grid(self):
        grid = np.array([1e-300, 1.0, 36.0, 709.0, 800.0])
        x = np.concatenate([-grid, [0.0], grid])
        assert_array_max_ulp(get_family("logistic").mean(x), expit(x), maxulp=1)

    def test_relative_error_bound_on_dense_grid(self):
        # a 1-ulp difference in exp(-x) can grow to a few ulps of the mean
        # when 1 + exp(-x) and the quotient round in opposite directions:
        # relative error below 3 eps
        x = np.linspace(-40.0, 40.0, 8001)
        assert_allclose(get_family("logistic").mean(x), expit(x),
                        rtol=3 * np.finfo(float).eps, atol=0)

    def test_saturates_without_warning(self):
        fam = get_family("logistic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fam.mean(-800.0) == 0.0
            assert fam.mean(800.0) == 1.0
            m1, m2, m3 = fam.mean_derivs(np.array([-800.0, 800.0]))
        assert not np.any(m1) and not np.any(m2) and not np.any(m3)


class TestPoissonClosedForms:
    def test_all_derivatives_equal_mean(self):
        fam = get_family("poisson")
        grid = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
        m1, m2, m3 = fam.mean_derivs(grid)
        assert_allclose(m1, np.exp(grid), rtol=1e-14)
        assert_allclose(m2, np.exp(grid), rtol=1e-14)
        assert_allclose(m3, np.exp(grid), rtol=1e-14)
        assert_allclose(fam.variance(grid), np.exp(grid), rtol=1e-14)

    def test_mean_is_exact_up_to_overflow(self):
        """exp() is neither clipped near the top of the double range nor
        below it: large indices keep their exact mean and very negative
        ones underflow to zero."""
        fam = get_family("poisson")
        assert fam.mean([700.0])[0] == np.exp(700.0)
        assert fam.mean([-800.0])[0] == 0.0

    def test_mean_overflow_raises_naming_index(self):
        with pytest.raises(DataError, match="Poisson index 710.0 is too large"):
            get_family("poisson").mean([1.0, 710.0, 705.0])


class TestProbitClosedForms:
    def test_values_at_zero(self):
        fam = get_family("probit")
        m1, m2, m3 = fam.mean_derivs(0.0)
        inv_sqrt_2pi = 1.0 / np.sqrt(2.0 * np.pi)
        assert fam.mean(0.0) == 0.5
        assert_allclose(m1, inv_sqrt_2pi, rtol=1e-14)
        assert m2 == 0.0
        assert_allclose(m3, -inv_sqrt_2pi, rtol=1e-14)

    def test_curvature_at_one(self):
        fam = get_family("probit")
        _, m2, _ = fam.mean_derivs(1.0)
        phi_1 = np.exp(-0.5) / np.sqrt(2.0 * np.pi)
        assert_allclose(m2, -phi_1, rtol=1e-14)

    def test_variance_differs_from_slope(self):
        # the binary variance Phi(1-Phi) is not the mean slope phi away
        # from zero; standard errors must use the variance, not the slope
        fam = get_family("probit")
        assert abs(fam.variance(2.0) - fam.mean_slope(2.0)) > 0.01


@pytest.mark.parametrize("name", FAMILIES)
def test_derivatives_match_finite_differences(name):
    fam = get_family(name)
    grid = np.linspace(-3.0, 3.0, 41)
    h = 1e-5
    fd1 = (fam.mean(grid + h) - fam.mean(grid - h)) / (2 * h)
    fd2 = (fam.mean_slope(grid + h) - fam.mean_slope(grid - h)) / (2 * h)
    m1, m2, m3 = fam.mean_derivs(grid)
    m2h = fam.mean_derivs(grid + h)[1]
    m2l = fam.mean_derivs(grid - h)[1]
    fd3 = (m2h - m2l) / (2 * h)
    assert_allclose(m1, fd1, rtol=1e-7, atol=1e-9)
    assert_allclose(m2, fd2, rtol=1e-6, atol=1e-9)
    assert_allclose(m3, fd3, rtol=1e-5, atol=1e-8)
    assert_allclose(fam.mean_slope(grid), m1, rtol=1e-14)


@pytest.mark.parametrize("name", FAMILIES)
def test_first_two_derivs_from_the_mean_are_bit_exact(name):
    """fit takes the root's m1 and m2 from the mean it already holds."""
    fam = get_family(name)
    grid = np.linspace(-40.0, 40.0, 8001) if name != "poisson" else np.linspace(-40.0, 8.0, 8001)
    m1, m2 = fam._first_two_derivs(grid, fam.mean(grid))
    expected = fam.mean_derivs(grid)
    assert np.array_equal(m1, expected[0])
    assert np.array_equal(m2, expected[1])


@pytest.mark.parametrize("name", FAMILIES)
def test_slope_strictly_positive(name):
    fam = get_family(name)
    grid = np.linspace(-8.0, 8.0, 201)
    assert np.all(fam.mean_slope(grid) > 0.0)


@pytest.mark.parametrize("name", FAMILIES)
def test_sampler_matches_marginal(name, rng):
    fam = get_family(name)
    draws = 20000
    for pi_value in (-1.0, 0.0, 0.8):
        pi = np.full(draws, pi_value)
        sample = fam.sample(pi, rng)
        target = fam.mean(pi_value)
        sigma = np.sqrt(fam.variance(pi_value) / draws)
        assert abs(sample.mean() - target) < 4.0 * sigma

def test_logistic_sample_is_binary(rng):
    fam = get_family("logistic")
    sample = fam.sample(np.zeros(500), rng)
    assert set(np.unique(sample)) <= {0.0, 1.0}


def test_poisson_sample_is_integer(rng):
    fam = get_family("poisson")
    sample = fam.sample(np.full(500, 0.5), rng)
    assert np.all(sample == np.floor(sample))
    assert np.all(sample >= 0)


def test_get_family_rejects_unknown():
    with pytest.raises(DataError):
        get_family("gamma")


def test_get_family_passes_instances_through():
    fam = get_family("probit")
    assert get_family(fam) is fam


@pytest.mark.parametrize("name", FAMILIES)
def test_non_finite_index_rejected(name):
    fam = get_family(name)
    with pytest.raises(DataError):
        fam.mean(np.array([0.0, np.nan]))
    with pytest.raises(DataError):
        fam.mean_slope(np.array([np.inf]))


class TestInitialDegreeParams:
    def test_logistic_half_density_starts_at_zero(self):
        fam = get_family("logistic")
        n = 9
        degrees = np.full(n, (n - 1) / 2.0)
        assert_allclose(initial_degree_params(fam, degrees, n), np.zeros(n), atol=1e-14)

    def test_binary_boundary_degrees_stay_finite(self):
        fam = get_family("logistic")
        n = 6
        init = initial_degree_params(fam, np.array([0.0, 5.0, 2.0, 3.0, 1.0, 4.0]), n)
        assert np.all(np.isfinite(init))

    def test_poisson_matches_mean_degree(self):
        fam = get_family("poisson")
        n = 5
        degrees = np.full(n, 8.0)
        init = initial_degree_params(fam, degrees, n)
        assert_allclose(np.exp(2.0 * init) * (n - 1), degrees, rtol=1e-14)

    def test_probit_half_density_starts_at_zero(self):
        fam = get_family("probit")
        n = 9
        degrees = np.full(n, (n - 1) / 2.0)
        assert_allclose(initial_degree_params(fam, degrees, n), np.zeros(n), atol=1e-14)
