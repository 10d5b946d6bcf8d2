"""Power-law fits for sweep data.

Exponent and prefactor come from ordinary least squares on log-log data.  The
fit window drops the largest scale while its deleted residual exceeds 3x the
fit RMS.  That cuts grossly pre-asymptotic points, but it also fires on
smooth curvature: on the acceptance eigenvalue sweeps it drops 2 of 5 points.

The confidence interval is a 95% percentile residual bootstrap over 200
resamples.  It measures how well a single power law fits the window, not how
close the fitted exponent is to the delta -> 0 limit.  Solver data are
deterministic and approach their power law with a relative O(sqrt(delta))
correction, so the OLS exponent is biased by a few thousandths while the
residuals, and with them the CI, are far narrower than that bias.

The limit exponent is therefore estimated separately: the segment exponents
of the three smallest scales are extrapolated linearly in sqrt(delta) to
delta = 0 (``sqrt_delta_limit``), and the size of that correction is the
reported error band.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

N_BOOT = 200        # bootstrap resamples
CI_LEVEL = 0.95     # two-sided level of the exponent CI
MIN_POINTS = 3      # fewest scales a fit takes; the window rule keeps at least this many


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    exponent_ci: tuple            # (lo, hi) percentile bootstrap
    prefactor: float              # exp(intercept), i.e. value at scale 1
    r_squared: float
    deltas: np.ndarray            # scales used, ascending
    excluded: tuple               # scales dropped by the window rule
    residuals: np.ndarray         # log-space residuals on the final window
    segment_exponents: np.ndarray  # pairwise slopes, a curvature diagnostic
    n_boot: int
    ci_level: float
    exponent_limit: float         # segment exponents extrapolated to delta -> 0
    exponent_limit_band: float    # size of that extrapolation, the error band

    def limit_contains(self, target):
        """Whether ``target`` lies within the band around the limit exponent."""
        return bool(abs(self.exponent_limit - target) <= self.exponent_limit_band)


def _ols_loglog(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    resid = y - fit
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, resid, r2


def fit_power_law(deltas, values, seed=0) -> PowerLawFit:
    """Fit values ~ C * delta^alpha on log-log axes with a bootstrap CI.

    Requires at least ``MIN_POINTS`` scales with positive values; ``seed``
    drives the bootstrap.
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
    d = deltas[order]
    v = values[order]

    excluded = []
    while True:
        x = np.log(d)
        y = np.log(v)
        slope, intercept, resid, r2 = _ols_loglog(x, y)
        rms = float(np.sqrt(np.mean(resid**2)))
        # Drop the largest scale while it is a clear pre-asymptotic outlier.
        # The raw residual is leverage-damped beyond usefulness on short
        # sweeps, so the test uses the deleted (leave-largest-out) residual
        # against 3x the full-fit RMS.
        if len(d) > MIN_POINTS and rms > 0:
            s_sub, i_sub, _, _ = _ols_loglog(x[:-1], y[:-1])
            pred_resid = y[-1] - (s_sub * x[-1] + i_sub)
            if abs(pred_resid) > 3.0 * rms:
                excluded.append(float(d[-1]))
                d = d[:-1]
                v = v[:-1]
                continue
        break

    rng = np.random.default_rng(seed)
    centered = resid - resid.mean()
    slopes = np.empty(N_BOOT)
    for b in range(N_BOOT):
        rs = rng.choice(centered, size=len(centered), replace=True)
        slopes[b] = np.polyfit(x, slope * x + intercept + rs, 1)[0]
    tail = 100.0 * (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.percentile(slopes, [tail, 100.0 - tail])

    seg = np.diff(y) / np.diff(x)
    # each segment exponent sits at the geometric mean of its two scales
    limit, band = sqrt_delta_limit(np.sqrt(d[:2] * d[1:3]), seg[:2])
    return PowerLawFit(exponent=float(slope), exponent_ci=(float(lo), float(hi)),
                       prefactor=float(np.exp(intercept)), r_squared=r2,
                       deltas=d, excluded=tuple(excluded), residuals=resid,
                       segment_exponents=seg, n_boot=N_BOOT, ci_level=CI_LEVEL,
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
    """Plain OLS slope with R^2, for linear diagnostics (decay fits)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept, resid, r2 = _ols_loglog(x, y)  # same algebra, no logs
    return float(slope), float(intercept), r2
