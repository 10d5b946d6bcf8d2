import math

import numpy as np
import scipy.integrate
import scipy.optimize
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import ValidationError
from jumplab.fitting import fit_power_law, fit_slope, sqrt_delta_limit


def test_exact_power_law_recovery():
    deltas = np.logspace(-4, -1, 6)
    fit = fit_power_law(deltas, 3.7 * deltas**1.25)
    assert fit.exponent == pytest.approx(1.25, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.7, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@given(alpha=st.floats(0.2, 3.0), c=st.floats(0.1, 50.0))
@settings(max_examples=50, deadline=None)
def test_power_law_recovery_property(alpha, c):
    deltas = np.logspace(-4, -1, 7)
    fit = fit_power_law(deltas, c * deltas**alpha)
    assert fit.exponent == pytest.approx(alpha, abs=1e-9)


def test_fit_uses_three_smallest_scales():
    deltas = np.logspace(-5, -1, 6)
    # a pure power law, given largest first: every scale fits, and still only
    # the smallest three count
    fit = fit_power_law(deltas[::-1], 1.3 * deltas[::-1]**1.0)
    np.testing.assert_array_equal(fit.deltas, deltas[:3])
    assert len(fit.segment_exponents) == 2
    # a corrupted largest scale does not reach the fit
    vals = 1.3 * deltas**1.0
    vals[-1] *= 2.5
    fit = fit_power_law(deltas, vals)
    np.testing.assert_array_equal(fit.deltas, deltas[:3])
    assert fit.exponent == pytest.approx(1.0, abs=1e-10)


def test_requires_three_positive_points():
    with pytest.raises(ValidationError):
        fit_power_law([1e-2, 1e-3], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_power_law([1e-2, 1e-3, 1e-4], [1.0, -2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_power_law([1e-2, 1e-3], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="distinct"):
        fit_power_law([1e-3, 1e-3, 1e-4], [1.0, 2.0, 3.0])


def test_segment_exponents_reported():
    deltas = np.logspace(-3, -1, 4)
    fit = fit_power_law(deltas, deltas**2.0)
    assert np.allclose(fit.segment_exponents, 2.0, atol=1e-12)


def test_fit_slope_plain_line():
    x = np.linspace(0, 5, 11)
    slope, intercept, r2 = fit_slope(x, -0.7 * x + 2.0)
    assert slope == pytest.approx(-0.7, abs=1e-12)
    assert intercept == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    for x in ([0.1, 0.1, 0.1], [2.0]):  # no line through a single abscissa
        with pytest.raises(ValidationError):
            fit_slope(x, np.arange(len(x), dtype=float))


def test_fit_slope_matches_polyfit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.uniform(-5.0, 5.0, n) + rng.normal(0.0, 3.0)
        y = rng.normal(0.0, 2.0) * x + rng.normal(0.0, 5.0) + rng.normal(0.0, 1.0, n)
        slope, intercept, _ = fit_slope(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert abs(slope - ref_slope) <= 1e-12 * max(1.0, abs(ref_slope))
        assert abs(intercept - ref_intercept) <= 1e-12 * max(1.0, abs(ref_intercept))


def test_sqrt_delta_limit_two_points():
    # exact on a line in sqrt(delta); the band is the correction applied
    limit, band = sqrt_delta_limit([1e-4, 4e-4], [2.0 + 3.0 * 1e-2, 2.0 + 3.0 * 2e-2])
    assert limit == pytest.approx(2.0, abs=1e-14)
    assert band == pytest.approx(0.03, abs=1e-14)
    assert sqrt_delta_limit([4e-4, 1e-4], [2.06, 2.03]) == pytest.approx((limit, band))
    with pytest.raises(ValidationError):
        sqrt_delta_limit([1e-4, 1e-4], [1.0, 2.0])
    with pytest.raises(ValidationError):
        sqrt_delta_limit([1e-4, 1e-3, 1e-2], [1.0, 2.0, 3.0])


EIGEN_DELTAS = (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5)
EIGEN_DELTAS_K2 = (1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5)


# corrections of the size the interval presets carry (k = 0, 1, 2), on the
# acceptance sweeps; the band scales like |c| * sqrt(smallest delta), so a
# 0.01 shift is resolved only where that band is below 0.01
@pytest.mark.parametrize("alpha,c,c2,deltas", [
    (0.5, 0.71, 1.0, EIGEN_DELTAS),
    (1.0, -1.41, 1.0, EIGEN_DELTAS),
    (1.5, -4.24, 6.0, EIGEN_DELTAS_K2),
], ids=["k0", "k1", "k2"])
def test_limit_exponent_brackets_corrected_power_law(alpha, c, c2, deltas):
    d = np.array(deltas)
    vals = 2.0 * d**alpha * (1.0 + c * np.sqrt(d) + c2 * d)
    fit = fit_power_law(d, vals)
    assert fit.exponent_limit_band > 0.0
    assert fit.limit_contains(alpha)
    # the same data with the exponent shifted by 0.01 are excluded
    for shift in (0.01, -0.01):
        assert not fit_power_law(d, vals * d**shift).limit_contains(alpha)


def test_limit_exponent_pure_power_law():
    deltas = np.logspace(-5, -2, 5)
    fit = fit_power_law(deltas, 0.8 * deltas**1.5)
    assert fit.exponent_limit == pytest.approx(1.5, abs=1e-9)
    assert fit.exponent_limit_band <= 1e-9


def _exact_eigenvalue(mu, delta):
    """lambda0 on (0,1) with a=1, b=0, V=1: the root of
    lam = int mu(x) cosh(r(x - 1/2)) / cosh(r/2) dx,  r = sqrt(2 (1 - lam) / delta).
    """
    def g(lam):
        r = math.sqrt(2.0 * (1.0 - lam) / delta)
        kernel = lambda x: (math.exp(-r * x) + math.exp(-r * (1.0 - x))) / (1.0 + math.exp(-r))
        val = scipy.integrate.quad(lambda x: mu(x) * kernel(x), 0.0, 1.0,
                                   points=(0.01, 0.99), limit=200,
                                   epsabs=1e-15, epsrel=1e-13)[0]
        return val - lam
    return scipy.optimize.brentq(g, 1e-14, 0.999, xtol=1e-16, rtol=1e-14)


@pytest.mark.parametrize("mu,alpha,deltas", [
    (lambda x: 1.0, 0.5, EIGEN_DELTAS),                          # interval-k0-uniform
    (lambda x: 6.0 * x * (1 - x), 1.0, EIGEN_DELTAS),            # interval-k1-beta22
    (lambda x: 30.0 * x**2 * (1 - x)**2, 1.5, EIGEN_DELTAS_K2),  # interval-k2-quartic
], ids=["k0", "k1", "k2"])
def test_limit_exponent_on_exact_eigenvalues(mu, alpha, deltas):
    d = np.array(deltas)
    lams = np.array([_exact_eigenvalue(mu, x) for x in d])
    fit = fit_power_law(d, lams)
    assert fit.limit_contains(alpha)
    for shift in (0.01, -0.01):
        assert not fit_power_law(d, lams * d**shift).limit_contains(alpha)
