"""Experiment runners: delta sweeps, cross-method comparisons, reports.

Every experiment validates its problem first, runs the solvers over a delta
list in order, and returns a SweepResult: tabular rows, an optional power-law
fit, and named pass/fail checks.  The cross-method comparisons
(``compare_mc_fdm``, ``compare_no_jump_probability``) return a SweepResult
too: an mc row, an fdm row and one ``mc_within_3se`` check, at the delta of
their Monte Carlo configuration.  That check has one rule, shared with the
exit-law sweep.  The check tolerances are the module constants below, the
boundary data is the problem's own, and the Monte Carlo legs of the exit-law
sweep use one fixed configuration.  ``workers`` exists only where a Monte
Carlo ensemble runs, and spreads its chunks over processes.  Rows go to CSV
through ``tables.write_csv`` and summaries to JSON through
``write_summary_json``; floats are written with repr, so reruns with a fixed
configuration are byte-identical at any worker count.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fdm, mc, theory
from .errors import ValidationError
from .fitting import PowerLawFit, fit_power_law, fit_slope
from .presets import ProblemSpec
from .geometry import Domain, Ring
from .tables import write_csv

#: harness default sweep
DEFAULT_DELTAS = (1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4)

#: exponent windows and prefactor tolerances per vanishing order, from the
#: acceptance targets (k = 0, 1, 2); higher orders fall back to the last row.
EXPONENT_WINDOW = {0: 0.02, 1: 0.03, 2: 0.05}
PREFACTOR_RTOL = {0: 0.02, 1: 0.03, 2: 0.05}

X_INDEPENDENCE_RTOL = 0.02   # exit law at two start points, smallest delta
FLUX_VALUE_RTOL = 0.03       # scaled boundary flux against -sqrt(2 V n.an)
FLUX_UNIFORMITY_TOL = 1e-6   # relative node spread over a ring's outer circle
DECAY_SLOPE_RTOL = 0.05      # interior decay slope against its expected value


@dataclass(frozen=True)
class SweepRow:
    delta: float
    method: str     # fdm | mc | theory
    quantity: str   # phi | lambda0 | flux | u-center | no-jump-mass
    value: float
    stderr: float = 0.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    target: float
    tol: float
    detail: str = ""

    def __post_init__(self):
        # numpy comparisons yield numpy bools, which json cannot write
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass
class SweepResult:
    name: str
    rows: list
    checks: list
    fit: PowerLawFit | None = None
    meta: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def theory_quadratures(domain: Domain, boundary_resolution=400,
                       interior_resolution=None):
    if interior_resolution is None:
        interior_resolution = 10**5 if domain.dim == 1 else 1000
    return (domain.boundary_quadrature(boundary_resolution),
            domain.interior_quadrature(interior_resolution))


def theory_report(spec: ProblemSpec):
    """Limit quantities for a problem, as a JSON-ready dict."""
    quad, iquad = theory_quadratures(spec.domain)
    res = theory.evaluate(spec.coeffs, quad, iquad)
    return {
        "preset": spec.name,
        "k": res.k,
        "exponent": res.exponent,
        "phi0": res.phi0,
        "C_eig": res.prefactor,
        "density": {
            "nodes": [list(map(float, p)) for p in quad.nodes],
            "weights": [float(w) for w in quad.weights],
            "values": [float(v) for v in res.density.values],
            "normalization": res.density.normalization,
        },
    }


def _grid_for(spec: ProblemSpec, delta, factor):
    n = fdm.suggest_resolution(spec.domain, delta, spec.coeffs, factor=factor)
    return fdm.build_grid(spec.domain, n)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _mc_within_3se(mean, stderr, reference):
    """The one Monte Carlo gate: the mean lies within 3 standard errors of FDM."""
    gap = abs(mean - reference)
    return Check("mc_within_3se", gap <= 3 * stderr + 1e-30, gap, 0.0, 3 * stderr,
                 detail=f"mc={mean:.6f} (se {stderr:.2e}) vs fdm={reference:.6f}")


# ---------------------------------------------------------------------------
# exit-law limit experiment


def run_exit_law_experiment(spec: ProblemSpec, deltas=DEFAULT_DELTAS, x0=None,
                            x0_alt=None, grid_factor=0.03, workers=1) -> SweepResult:
    """Convergence of the exit functional of the boundary data to its limit.

    Solves the nonlocal Dirichlet problem at each delta, runs a Monte Carlo
    cross-check at the largest delta (20000 paths, dt = 1e-3, seed 7), and
    appends the limit value.  Checks: the gap to the limit shrinks along the
    sweep, two start points agree at the smallest delta, and the MC mean is
    within 3 standard errors.  ``x0_alt`` defaults to the midpoint of ``x0``
    and the domain centre.
    """
    spec.validate()
    deltas = sorted(deltas, reverse=True)
    x0 = np.asarray(x0 if x0 is not None else spec.start_point(), dtype=float)
    x0_alt = np.asarray((spec.domain.center + x0) / 2.0 if x0_alt is None else x0_alt,
                        dtype=float)
    f = spec.coeffs.boundary_data

    quad, iquad = theory_quadratures(spec.domain)
    density = theory.limit_exit_density(spec.coeffs, quad)
    phi0 = theory.limit_exit_functional(spec.coeffs, quad, f=f, density=density)

    def solve_point(d):
        grid = _grid_for(spec, d, grid_factor)
        sol = fdm.solve_exit_functional(d, spec.coeffs, grid, f=f)
        return sol.at(x0), sol.at(x0_alt)

    vals = [solve_point(d) for d in deltas]
    rows = [SweepRow(d, "fdm", "phi", v[0]) for d, v in zip(deltas, vals)]

    cfg = mc.SimConfig(delta=deltas[0], dt=1e-3, n_paths=20000, seed=7,
                       exit_mode="bridge-1d" if spec.domain.dim == 1 else "first-crossing",
                       horizon=_horizon_from_theory(spec, deltas[0]))
    est = mc.estimate_exit_law(x0, spec.coeffs, spec.domain, cfg, f=f, workers=workers)
    rows.append(SweepRow(deltas[0], "mc", "phi", est.mean_f, est.stderr_f))
    rows.append(SweepRow(deltas[-1], "theory", "phi", phi0))

    gaps = [abs(v[0] - phi0) for v in vals]
    monotone = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    xdiff = _rel(vals[-1][1], vals[-1][0])
    checks = [
        Check("gap_decreasing", monotone, gaps[-1], 0.0, 0.0,
              detail=f"|phi_fdm - phi0| along sweep: {[f'{g:.3e}' for g in gaps]}"),
        Check("x_independence", xdiff <= X_INDEPENDENCE_RTOL, xdiff, 0.0,
              X_INDEPENDENCE_RTOL,
              detail=f"phi({x0_alt})={vals[-1][1]:.6f} vs phi({x0})={vals[-1][0]:.6f} "
                     f"at delta={deltas[-1]:g}"),
        _mc_within_3se(est.mean_f, est.stderr_f, vals[0][0]),
    ]
    return SweepResult("exit-law", rows, checks,
                       meta={"phi0": phi0, "x0": x0.tolist(), "x0_alt": x0_alt.tolist(),
                             "preset": spec.name})


def _horizon_from_theory(spec: ProblemSpec, delta):
    """Censoring horizon: 50 / (theory decay rate), the harness default."""
    try:
        quad, iquad = theory_quadratures(spec.domain, boundary_resolution=128,
                                         interior_resolution=2000 if spec.domain.dim == 1 else 200)
        pref = theory.decay_rate_prefactor(spec.coeffs, quad, iquad)
        k = spec.coeffs.vanishing_order
        return 50.0 / (pref * delta ** ((k + 1) / 2.0))
    except ValidationError:
        return None  # falls back to the step-count cap


# ---------------------------------------------------------------------------
# eigenvalue scaling experiment


def _eigen_sweep(spec: ProblemSpec, deltas, grid_factor):
    """lambda0 at each delta, in the given order, as rows plus its power-law fit."""
    lams = [fdm.principal_eigenvalue(d, spec.coeffs, _grid_for(spec, d, grid_factor)).lambda0
            for d in deltas]
    rows = [SweepRow(d, "fdm", "lambda0", v) for d, v in zip(deltas, lams)]
    return lams, rows, fit_power_law(deltas, lams)


def run_eigenvalue_scaling_experiment(spec: ProblemSpec, deltas=DEFAULT_DELTAS,
                                      grid_factor=0.03,
                                      prefactor_delta=None) -> SweepResult:
    """Decay-rate scaling lambda0 ~ C * delta^{(k+1)/2} against the limit formulas.

    The scaling is a delta -> 0 limit, and lambda0 approaches it with a
    relative O(sqrt(delta)) correction.  Checks:

    - ``exponent_window``: the log-log OLS exponent over the three smallest
      deltas is within ``EXPONENT_WINDOW[k]`` of (k+1)/2;
    - ``exponent_limit_contains_theory``: the segment exponents of the same
      three deltas, extrapolated linearly in sqrt(delta) to delta = 0,
      reach (k+1)/2 within the size of that extrapolation;
    - ``prefactor``: lambda0 * delta^{-(k+1)/2} at ``prefactor_delta``
      (default: the smallest sweep delta) matches the closed-form prefactor
      within ``PREFACTOR_RTOL[k]``.
    """
    spec.validate()
    deltas = sorted(deltas, reverse=True)
    k = spec.coeffs.vanishing_order
    expo_target = (k + 1) / 2.0
    window = EXPONENT_WINDOW.get(k, 0.05)
    rtol = PREFACTOR_RTOL.get(k, 0.05)
    prefactor_delta = deltas[-1] if prefactor_delta is None else prefactor_delta
    if prefactor_delta not in deltas:
        raise ValidationError("prefactor_delta must be one of the sweep deltas")

    quad, iquad = theory_quadratures(spec.domain)
    pref_theory = theory.decay_rate_prefactor(spec.coeffs, quad, iquad)
    lams, rows, fit = _eigen_sweep(spec, deltas, grid_factor)

    i = deltas.index(prefactor_delta)
    pref_meas = lams[i] * prefactor_delta ** (-expo_target)
    checks = [
        Check("exponent_window", abs(fit.exponent - expo_target) <= window,
              fit.exponent, expo_target, window,
              detail=f"fitted exponent {fit.exponent:.4f}, window +/-{window}"),
        Check("exponent_limit_contains_theory", fit.limit_contains(expo_target),
              fit.exponent_limit, expo_target, fit.exponent_limit_band,
              detail=f"sqrt(delta)-extrapolated exponent {fit.exponent_limit:.5f} "
                     f"+/- {fit.exponent_limit_band:.1e}"),
        Check("prefactor", _rel(pref_meas, pref_theory) <= rtol,
              pref_meas, pref_theory, rtol,
              detail=f"lambda0*delta^-{expo_target} = {pref_meas:.4f} vs theory "
                     f"{pref_theory:.4f} at delta={prefactor_delta:g}"),
    ]
    return SweepResult("eigenvalue-scaling", rows, checks, fit=fit,
                       meta={"k": k, "prefactor_theory": pref_theory,
                             "prefactor_measured": pref_meas,
                             "prefactor_delta": prefactor_delta, "preset": spec.name})


# ---------------------------------------------------------------------------
# boundary flux experiment


def run_boundary_flux_experiment(spec: ProblemSpec, deltas=(1e-3, 1e-4, 1e-5),
                                 grid_factor=0.04) -> SweepResult:
    """Scaled boundary flux of the no-jump problem against -sqrt(2 V (n.an)).

    Rows carry sqrt(delta) * (n . a grad u) at the first boundary node; the
    checks compare all nodes at the smallest delta and, on smooth closed
    components, the node-to-node uniformity for symmetric data.
    """
    spec.validate()
    deltas = sorted(deltas, reverse=True)

    def fluxes(d):
        u = fdm.solve_no_jump_prob(d, spec.coeffs, _grid_for(spec, d, grid_factor))
        return u.grid, fdm.boundary_flux(u, spec.coeffs)

    results = [fluxes(d) for d in deltas]
    rows = [SweepRow(d, "fdm", "flux", math.sqrt(d) * bf.values[0])
            for d, (_, bf) in zip(deltas, results)]

    grid, bf = results[-1]
    d_min = deltas[-1]
    scaled = math.sqrt(d_min) * bf.values
    amat = spec.coeffs.diffusion(bf.nodes)
    nan = np.einsum("ni,nij,nj->n", bf.normals, amat, bf.normals)
    vvals = spec.coeffs.intensity.eval(bf.nodes)
    target = -np.sqrt(2.0 * vvals * nan)
    rel_dev = np.abs(scaled - target) / np.abs(target)
    checks = [Check("flux_value", float(np.max(rel_dev)) <= FLUX_VALUE_RTOL,
                    float(scaled[0]), float(target[0]), FLUX_VALUE_RTOL,
                    detail=f"max relative deviation over the boundary: {np.max(rel_dev):.3e} "
                           f"at delta={d_min:g}")]
    if isinstance(spec.domain, Ring):
        # outer component: the last ring of boundary nodes, one per angle
        outer = scaled[-grid.shape[1]:]
        spread = float((outer.max() - outer.min()) / abs(outer.mean()))
        checks.append(Check("flux_uniformity", spread <= FLUX_UNIFORMITY_TOL,
                            spread, 0.0, FLUX_UNIFORMITY_TOL,
                            detail=f"relative node spread over the outer ring: {spread:.3e}"))
    return SweepResult("boundary-flux", rows, checks,
                       meta={"preset": spec.name, "delta_min": d_min,
                             "max_rel_dev": float(np.max(rel_dev))})


# ---------------------------------------------------------------------------
# interior decay experiment


def run_interior_decay_experiment(spec: ProblemSpec, deltas=(1e-2, 1e-3, 1e-4),
                                  grid_factor=0.05, expected_slope=None) -> SweepResult:
    """Decay of the no-jump probability at the domain center.

    Fits log u(center) against delta^{-1/2}; the slope is negative, and for
    1D constant coefficients it equals -dist(center) * sqrt(2 V / a).
    """
    spec.validate()
    deltas = sorted(deltas, reverse=True)
    center = spec.domain.center

    def ucenter(d):
        grid = _grid_for(spec, d, grid_factor)
        u = fdm.solve_no_jump_prob(d, spec.coeffs, grid)
        return u.at(center)

    vals = [ucenter(d) for d in deltas]
    rows = [SweepRow(d, "fdm", "u-center", v) for d, v in zip(deltas, vals)]
    slope, _, r2 = fit_slope([d ** -0.5 for d in deltas], np.log(vals))
    checks = [Check("decay_slope_negative", slope < 0.0, slope, 0.0, 0.0,
                    detail=f"log u(center) vs delta^-1/2 slope {slope:.5f}, R^2={r2:.6f}")]
    if expected_slope is not None:
        checks.append(Check("decay_slope_value",
                            _rel(slope, expected_slope) <= DECAY_SLOPE_RTOL,
                            slope, expected_slope, DECAY_SLOPE_RTOL,
                            detail=f"slope {slope:.5f} vs {expected_slope:.5f}"))
    return SweepResult("interior-decay", rows, checks,
                       meta={"slope": slope, "r_squared": r2, "preset": spec.name})


# ---------------------------------------------------------------------------
# vanishing-intensity probe (exploratory; no value assertions)


def run_vanishing_intensity_probe(spec: ProblemSpec, deltas=DEFAULT_DELTAS) -> SweepResult:
    """Decay-rate order when the intensity vanishes on the boundary.

    The eigenvalue sweep on grid factor 0.05 grids without the theory
    checks: emits the fitted order and its sqrt(delta)-extrapolated limit
    with that limit's band, and deliberately asserts nothing about the value
    (the scaling law here is an open problem; the data is the product).  The
    problem is not validated, since its intensity vanishes on the boundary.
    """
    deltas = sorted(deltas, reverse=True)
    _, rows, fit = _eigen_sweep(spec, deltas, 0.05)
    return SweepResult("vanishing-intensity-probe", rows, [], fit=fit,
                       meta={"preset": spec.name, "alpha": fit.exponent,
                             "exponent_limit": fit.exponent_limit,
                             "exponent_limit_band": fit.exponent_limit_band})


def run_probe_suite(make_spec, ms=(1, 2, 3), deltas=DEFAULT_DELTAS):
    """Probe several vanishing orders of the intensity; record the ordering.

    ``make_spec`` maps the order m to a ProblemSpec.  Returns (per-m results,
    summary dict with alpha estimates, their delta -> 0 limits and bands, and
    whether alpha(1) < alpha(3)).
    """
    results = {}
    for m in ms:
        results[m] = run_vanishing_intensity_probe(make_spec(m), deltas=deltas)
    summary = {
        "alphas": {m: results[m].meta["alpha"] for m in ms},
        "exponent_limits": {m: results[m].meta["exponent_limit"] for m in ms},
        "exponent_limit_bands": {m: results[m].meta["exponent_limit_band"] for m in ms},
    }
    if 1 in results and 3 in results:
        summary["ordering_alpha1_lt_alpha3"] = bool(
            results[1].meta["alpha"] < results[3].meta["alpha"])
    return results, summary


# ---------------------------------------------------------------------------
# cross-method comparisons


def compare_mc_fdm(spec: ProblemSpec, mc_config, workers=1) -> SweepResult:
    """Monte Carlo exit mean of the boundary data against the nonlocal Dirichlet
    solve (grid factor 0.02), at the problem's start point and ``mc_config.delta``."""
    spec.validate()
    delta = mc_config.delta
    x0 = np.asarray(spec.start_point(), dtype=float)
    f = spec.coeffs.boundary_data
    est = mc.estimate_exit_law(x0, spec.coeffs, spec.domain, mc_config, f=f,
                               workers=workers)
    grid = _grid_for(spec, delta, 0.02)
    phi = fdm.solve_exit_functional(delta, spec.coeffs, grid, f=f).at(x0)
    rows = [SweepRow(delta, "mc", "phi", est.mean_f, est.stderr_f),
            SweepRow(delta, "fdm", "phi", phi)]
    return SweepResult("mc-fdm", rows, [_mc_within_3se(est.mean_f, est.stderr_f, phi)],
                       meta={"preset": spec.name, "x0": x0.tolist()})


def discrete_no_jump_mass(spec: ProblemSpec, delta, grid_factor=0.03):
    """The mu-weighted mass of the no-jump exit probability, on the grid: the
    denominator of the operator's rank-one solve."""
    grid = _grid_for(spec, delta, grid_factor)
    return fdm.RankOneSolver(fdm.assemble_operator(delta, spec.coeffs, grid)).denom


def no_jump_mass_limit(spec: ProblemSpec):
    """Limit of delta^{-(k+1)/2} * (mu-mass of the no-jump probability).

    Equals the unnormalized limit-density integral divided by sqrt(2) for
    even k and by 2 for odd k.
    """
    quad, _ = theory_quadratures(spec.domain)
    density = theory.limit_exit_density(spec.coeffs, quad)
    return density.normalization / theory.parity_divisor(spec.coeffs.vanishing_order)


def compare_no_jump_probability(spec: ProblemSpec, mc_config, grid_factor=0.03,
                                workers=1) -> SweepResult:
    """MC estimate of P(exit before the first jump) vs the discrete mu-mass,
    at ``mc_config.delta``.

    Paths start from the redistribution density and stop at their first jump.
    """
    spec.validate()
    delta = mc_config.delta
    p, se = mc.exit_before_jump_probability(spec.coeffs, spec.domain, mc_config,
                                            workers=workers)
    mass = discrete_no_jump_mass(spec, delta, grid_factor=grid_factor)
    rows = [SweepRow(delta, "mc", "no-jump-mass", p, se),
            SweepRow(delta, "fdm", "no-jump-mass", mass)]
    return SweepResult("no-jump-probability", rows, [_mc_within_3se(p, se, mass)],
                       meta={"preset": spec.name})


# ---------------------------------------------------------------------------
# writers


def write_rows_csv(rows, path):
    write_csv(path, ["delta", "method", "quantity", "value", "stderr"],
              ((r.delta, r.method, r.quantity, r.value, r.stderr) for r in rows))


def _fit_dict(fit: PowerLawFit | None):
    if fit is None:
        return None
    return {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
        "deltas": [float(d) for d in fit.deltas],
        "segment_exponents": [float(s) for s in fit.segment_exponents],
        "exponent_limit": fit.exponent_limit,
        "exponent_limit_band": fit.exponent_limit_band,
    }


def summary_dict(result: SweepResult):
    return {
        "name": result.name,
        "pass": result.passed,
        "fit": _fit_dict(result.fit),
        "checks": [
            {"name": c.name, "passed": c.passed, "value": c.value,
             "target": c.target, "tol": c.tol, "detail": c.detail}
            for c in result.checks
        ],
        "meta": result.meta,
    }


def write_summary_json(result_or_dict, path):
    """A SweepResult's summary, or a plain dict, as sorted, indented JSON."""
    payload = summary_dict(result_or_dict) if isinstance(result_or_dict, SweepResult) \
        else result_or_dict
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
