"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The paper's scaling results are delta -> 0 limits, and the finite-delta data
approach them with a relative O(sqrt(delta)) correction.  The scaling
clauses therefore assert the limit, extrapolated linearly in sqrt(delta),
and not a property of the data at finite delta:

- Criteria 1-3 pair the prefactor tolerance and the exponent window with
  ``exponent_limit_contains_theory``: the segment exponents of the three
  smallest deltas, extrapolated to delta = 0, must reach (k+1)/2 within the
  size of that extrapolation.  The exact eigenvalues pass this check and
  fail it when their exponent is shifted by 0.01.  The log-log OLS exponent
  that the exponent window gates uses the same three smallest deltas.
- Criterion 10 gates delta^{-(k+1)/2} * (mu-mass of the no-jump probability),
  extrapolated from delta = 1e-4 and 10^-4.5, at 3% of its limit.  At
  delta = 1e-4 alone the continuum value for k=2 is 6*sqrt(delta/2) (about
  4.2%) below the limit; the raw gaps are still printed.
"""
import math

import numpy as np
import pytest
import scipy.stats

import jumplab as jl
from jumplab import experiments as ex
from jumplab import fdm, mc, theory
from jumplab.fields import PolyField, const
from jumplab.fitting import sqrt_delta_limit


def report(cid, passed, detail):
    print(f"[criterion {cid:>2}] {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


EIGEN_DELTAS_LOW = (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5)
EIGEN_DELTAS_K2 = (1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5)


def _eigen_criterion(cid, preset_name, deltas, factor, target_pref, pref_rtol, expo):
    spec = jl.preset(preset_name)
    res = ex.run_eigenvalue_scaling_experiment(
        spec, deltas, grid_factor=factor, prefactor_delta=1e-4)
    pref = res.check("prefactor")
    lim = res.check("exponent_limit_contains_theory")
    win = res.check("exponent_window")
    assert abs(pref.target - target_pref) < 1e-9
    assert lim.target == expo
    detail = (f"{preset_name}: prefactor {pref.value:.4f} vs {target_pref:.4f} "
              f"({abs(pref.value / target_pref - 1):.2%}, tol {pref_rtol:.0%}) "
              f"{'ok' if pref.passed else 'off'}; exponent {res.fit.exponent:.4f} "
              f"(window +/-{win.tol} {'ok' if win.passed else 'off'}); delta->0 limit "
              f"{lim.value:.5f} +/- {lim.tol:.1e} reaches {expo}: {lim.passed}")
    report(cid, pref.passed and win.passed and lim.passed, detail)
    assert pref.passed, pref.detail
    assert win.passed, win.detail
    assert lim.passed, (f"sqrt(delta)-extrapolated exponent {lim.value:.5f} is "
                        f"{abs(lim.value - expo):.1e} from {expo}, outside its "
                        f"band {lim.tol:.1e}")


def test_criterion_01_eigenvalue_scaling_k0():
    _eigen_criterion(1, "interval-k0-uniform", EIGEN_DELTAS_LOW, 0.04,
                     math.sqrt(2.0), 0.02, 0.5)


def test_criterion_02_eigenvalue_scaling_k1():
    _eigen_criterion(2, "interval-k1-beta22", EIGEN_DELTAS_LOW, 0.04,
                     6.0, 0.03, 1.0)


def test_criterion_03_eigenvalue_scaling_k2():
    _eigen_criterion(3, "interval-k2-quartic", EIGEN_DELTAS_K2, 0.03,
                     60.0 / math.sqrt(2.0), 0.05, 1.5)


def test_criterion_04_exit_law_limit_asymmetric():
    spec = jl.preset("interval-k0-asym")
    res = ex.run_exit_law_experiment(spec, (1e-2, 1e-3, 1e-4),
                                     x0=np.array([0.5]), x0_alt=np.array([0.25]),
                                     grid_factor=0.03, workers=2)
    phi = next(r.value for r in res.rows
               if r.method == "fdm" and r.delta == pytest.approx(1e-4))
    value_ok = abs(phi - 0.600) <= 0.02 * 0.600
    xind = res.check("x_independence")
    detail = (f"phi(0.5)={phi:.6f} vs 0.600 ({abs(phi / 0.6 - 1):.2%}, tol 2%); "
              f"x-independence {xind.value:.2e} (tol 2%)")
    report(4, value_ok and xind.passed, detail)
    assert value_ok
    assert xind.passed


def test_criterion_05_boundary_flux():
    spec1 = jl.preset("interval-flux-a2v3")
    r1 = ex.run_boundary_flux_experiment(spec1, (1e-3, 1e-4, 1e-5),
                                         grid_factor=0.04)
    v1 = r1.check("flux_value")
    spec2 = jl.preset("annulus-flux")
    r2 = ex.run_boundary_flux_experiment(spec2, (1e-3, 10**-3.5, 1e-4),
                                         grid_factor=0.05)
    v2 = r2.check("flux_value")
    u2 = r2.check("flux_uniformity")
    detail = (f"1d a=2 V=3: {v1.value:.4f} vs {v1.target:.4f} "
              f"(max dev {r1.meta['max_rel_dev']:.2%}, tol 3%); annulus outer: "
              f"value dev {r2.meta['max_rel_dev']:.2%}, node spread {u2.value:.1e}")
    report(5, v1.passed and v2.passed and u2.passed, detail)
    assert v1.passed, v1.detail
    assert v2.passed, v2.detail
    assert u2.passed, u2.detail


def test_criterion_06_closed_form_oracle_convergence():
    spec = jl.preset("interval-k0-uniform")
    delta = 1e-3
    r = math.sqrt(2.0 / delta)
    errs = []
    for n in (501, 1001, 2001):
        grid = fdm.build_grid(spec.domain, n)
        u = fdm.solve_no_jump_prob(delta, spec.coeffs, grid)
        x = grid.points[:, 0]
        exact = np.cosh(r * (x - 0.5)) / np.cosh(r / 2)
        errs.append(float(np.max(np.abs(u.values - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.8
    report(6, ok, f"cosh-oracle sup errors {['%.2e' % e for e in errs]}, "
                  f"observed orders {['%.2f' % o for o in orders]} (need >= 1.8)")
    assert ok


def test_criterion_07_mc_fdm_cross_validation():
    results = []
    for name in ("interval-k0-uniform", "interval-k0-asym", "interval-flux-a2v3"):
        spec = jl.preset(name)
        cfg = mc.SimConfig(delta=0.05, dt=1e-4, n_paths=10**5, seed=29,
                           exit_mode="bridge-1d",
                           horizon=ex._horizon_from_theory(spec, 0.05),
                           chunk_size=50000)
        res = ex.compare_mc_fdm(spec, mc_config=cfg, workers=2)
        results.append((name, res.check("mc_within_3se")))
    ok = all(c.passed for _, c in results)
    detail = "; ".join(f"{n}: |diff|={c.value:.2e}" for n, c in results)
    report(7, ok, detail + " (need <= 3 se)")
    for n, c in results:
        assert c.passed, f"{n}: {c.detail}"


def test_criterion_08_disk_exit_angle_uniformity():
    spec = jl.preset("disk-k0-radial")
    cfg = mc.SimConfig(delta=0.05, dt=5e-4, n_paths=10**5, seed=31,
                       horizon=ex._horizon_from_theory(spec, 0.05),
                       chunk_size=50000)
    est = mc.estimate_exit_law(spec.start_point(), spec.coeffs, spec.domain, cfg,
                               bins=36, workers=2)
    n_exit = cfg.n_paths - est.n_censored
    counts = np.rint(est.bin_probs * n_exit)
    expected = n_exit / 36.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    crit = scipy.stats.chi2.ppf(0.99, 35)
    ok = stat < crit
    report(8, ok, f"exit-angle chi2 = {stat:.1f} vs 1% critical value {crit:.1f} "
                  f"(36 bins, {n_exit} exits)")
    assert ok


def test_criterion_09_no_jump_mass_vs_mc():
    spec = jl.preset("interval-k0-uniform")
    cfg = mc.SimConfig(delta=0.05, dt=1e-4, n_paths=20000, seed=37,
                       exit_mode="bridge-1d", horizon=None)
    check = ex.compare_no_jump_probability(spec, mc_config=cfg, grid_factor=0.02,
                                           workers=2).check("mc_within_3se")
    report(9, check.passed, f"P(exit before first jump): {check.detail}, "
                            f"|diff|={check.value:.2e} (need <= 3 se = {check.tol:.2e})")
    assert check.passed, check.detail


def test_criterion_10_no_jump_mass_scaling():
    deltas = (1e-4, 10**-4.5)
    rows = []
    for name in ("interval-k0-uniform", "interval-k1-beta22", "interval-k2-quartic"):
        spec = jl.preset(name)
        k = spec.coeffs.vanishing_order
        vals = [ex.discrete_no_jump_mass(spec, d, grid_factor=0.02) / d ** ((k + 1) / 2.0)
                for d in deltas]
        extrap, _ = sqrt_delta_limit(deltas, vals)
        limit = ex.no_jump_mass_limit(spec)
        rows.append((name, k, vals[0], extrap, limit, abs(extrap / limit - 1)))
    ok = all(r[5] <= 0.03 for r in rows)
    detail = "; ".join(f"k={k}: {e:.4f} vs {t:.4f} ({e / t - 1:+.3%}; raw at 1e-4 "
                       f"{v:.4f}, {v / t - 1:+.2%})"
                       for _, k, v, e, t, _ in rows)
    report(10, ok, detail + " (tol 3% on the sqrt(delta)-extrapolated value)")
    for name, k, v, e, t, d in rows:
        assert d <= 0.03, (f"{name}: sqrt(delta)-extrapolated scaled no-jump mass "
                           f"{e:.4f} vs limit {t:.4f} ({d:.2%} off; raw value at "
                           f"delta=1e-4 is {v:.4f}, where the finite-delta correction "
                           f"is ~{k * (k + 1) * math.sqrt(1e-4 / 2):.2%})")


def test_criterion_11_interior_decay_slope():
    spec = jl.preset("interval-k0-uniform")
    res = ex.run_interior_decay_experiment(spec, (1e-2, 1e-3, 1e-4),
                                           grid_factor=0.05,
                                           expected_slope=-1.0 / math.sqrt(2.0))
    c = res.check("decay_slope_value")
    report(11, c.passed, f"log u(center) vs delta^-1/2 slope {c.value:.5f} "
                         f"vs {c.target:.5f} (tol 5%)")
    assert c.passed, c.detail


def test_criterion_12_rank_one_solver_equivalence():
    spec = jl.preset("interval-k0-asym")
    grid = fdm.build_grid(spec.domain, 50)
    op = fdm.assemble_operator(2e-3, spec.coeffs, grid, allow_coarse=True)
    fb = spec.coeffs.boundary_data.eval(grid.points[grid.boundary])
    rhs = -(op.B_bc @ fb) - op.v * (op.w_boundary @ fb)
    fast = fdm.RankOneSolver(op).solve(rhs)
    dense = np.linalg.solve(op.A_loc.toarray() + np.outer(op.v, op.w_interior), rhs)
    diff = float(np.max(np.abs(fast - dense)))
    ok = diff <= 1e-10
    report(12, ok, f"rank-one update vs dense solve on a 50-node grid: "
                   f"max |diff| = {diff:.2e} (tol 1e-10)")
    assert ok


def test_criterion_13_property_suite():
    clauses = {}

    # adjointness of the generator pair, quadrature tolerance 1e-6
    dom = jl.Domain.interval(0.0, 1.0)
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 0.5})
    b = PolyField.from_dict(1, {(0,): 0.3, (1,): -0.1})
    c = jl.CoefficientSet(diffusion=jl.MatrixField.isotropic(1, a),
                          drift=jl.VectorField((b,)), intensity=const(1, 1.0),
                          redistribution=const(1, 1.0), boundary_data=const(1, 0.0),
                          vanishing_order=0)
    bump = {(3,): 1.0, (4,): -3.0, (5,): 3.0, (6,): -1.0}  # (x(1-x))^3
    phi = PolyField.from_dict(1, bump)
    psi = PolyField.from_dict(1, {(3,): 1.0, (4,): -2.0, (5,): 0.0, (6,): 2.0, (7,): -1.0})
    iq = dom.interior_quadrature(20001)
    lhs = iq.weights @ (jl.apply_generator(c, phi).eval(iq.nodes)
                        * psi.eval(iq.nodes))
    rhs = iq.weights @ (phi.eval(iq.nodes)
                        * jl.apply_adjoint(c, psi).eval(iq.nodes))
    clauses["adjointness"] = abs(lhs - rhs) <= 1e-6

    # scale invariance of the limit exit functional in mu, 1e-12
    quad = dom.boundary_quadrature()
    spec1 = jl.preset("interval-k1-beta22")
    mu_scaled = PolyField.from_dict(1, {(1,): 6.0 * 13.0, (2,): -6.0 * 13.0})
    c_scaled = jl.CoefficientSet(diffusion=spec1.coeffs.diffusion,
                                 drift=spec1.coeffs.drift,
                                 intensity=spec1.coeffs.intensity,
                                 redistribution=mu_scaled,
                                 boundary_data=spec1.coeffs.boundary_data,
                                 vanishing_order=1)
    p1 = theory.limit_exit_functional(spec1.coeffs, quad)
    p2 = theory.limit_exit_functional(c_scaled, quad)
    clauses["phi0_scale_invariance"] = abs(p1 - p2) <= 1e-12

    # constant boundary data solves to the constant
    spec = jl.preset("interval-k0-asym")
    grid = fdm.build_grid(spec.domain, 2001)
    phi1 = fdm.solve_exit_functional(1e-3, spec.coeffs, grid, f=const(1, 1.0))
    clauses["constant_data_exact"] = float(np.max(np.abs(phi1.values - 1.0))) <= 1e-11
    cfgc = mc.SimConfig(delta=0.3, dt=1e-3, n_paths=300, seed=41, horizon=500.0)
    estc = mc.estimate_exit_law(np.array([0.5]), spec.coeffs, spec.domain, cfgc,
                                f=const(1, 1.0))
    clauses["constant_data_exact"] &= estc.mean_f == 1.0 and estc.stderr_f == 0.0

    # drift independence of the k=0 and k=1 limit densities, 1e-12
    bshift = PolyField.from_dict(1, {(0,): 0.7, (1,): -0.3})
    ok_b = True
    for name in ("interval-k0-uniform", "interval-k1-beta22"):
        s = jl.preset(name)
        d0 = theory.limit_exit_density(s.coeffs, quad)
        d1 = theory.limit_exit_density(s.coeffs.with_drift(jl.VectorField((bshift,))), quad)
        ok_b &= float(np.max(np.abs(d0.values - d1.values))) <= 1e-12
    clauses["drift_independence_k01"] = ok_b

    # reproducibility: byte-identical outputs for fixed seed across worker counts
    cfg = mc.SimConfig(delta=0.1, dt=1e-3, n_paths=3000, seed=43, horizon=500.0,
                       chunk_size=750)
    rows = []
    for workers in (1, 2):
        ens = mc.simulate_ensemble(spec.coeffs, spec.domain, cfg,
                                   x0=np.array([0.5]), workers=workers)
        rows.append([(float(t), int(j), int(s), tuple(map(float, p)))
                     for t, j, s, p in zip(ens.exit_times, ens.jump_counts,
                                           ens.status, ens.exit_points)])
    clauses["reproducibility"] = rows[0] == rows[1]

    ok = all(clauses.values())
    report(13, ok, "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in clauses.items()))
    for k, v in clauses.items():
        assert v, k


def test_criterion_14_vanishing_intensity_probe():
    results, summary = ex.run_probe_suite(lambda m: jl.preset(f"probe-Vm{m}"),
                                          ms=(1, 2, 3))
    alphas = summary["alphas"]
    limits = summary["exponent_limits"]
    bands = summary["exponent_limit_bands"]
    finite = all(np.isfinite([alphas[m], limits[m], bands[m]]).all() for m in (1, 2, 3))
    recorded = "ordering_alpha1_lt_alpha3" in summary
    ordering = summary.get("ordering_alpha1_lt_alpha3", False)
    detail = ("; ".join(f"alpha({m})={alphas[m]:.3f} limit {limits[m]:.3f} +/- {bands[m]:.1e}"
                        for m in (1, 2, 3))
              + f"; alpha(1)<alpha(3): {ordering} (reported, not value-asserted)")
    report(14, finite and recorded and ordering, detail)
    assert finite
    assert recorded
    assert ordering  # the qualitative ordering; no numeric target is asserted
    # every probe run emitted rows for each delta
    for m in (1, 2, 3):
        assert len(results[m].rows) == len(ex.DEFAULT_DELTAS)
