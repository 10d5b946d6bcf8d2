"""The benchmark's references and checks: references reproduce their values,
checks pass on the program's outputs and reject perturbed ones.

    python3 -m pytest benchmark/test_checks.py -q

The Monte Carlo workloads run here with fewer paths than in the benchmark;
their checks scale with the standard error, so they are the same checks.
"""
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import references as R  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SEED = 1


def away(value, ref, step):
    """``value`` moved by ``step`` further from ``ref``."""
    return value + step * (1.0 if value >= ref else -1.0)


@pytest.mark.parametrize("value, expected, digits", [
    (lambda: R.exit_functional_const_1d(0.05, 0.3), 0.430869, 6),
    (lambda: R.exit_functional_const_1d(0.05, 0.3, a=2.0, V=3.0), 0.453238, 6),
    (lambda: R.exit_functional_asym(0.05, 0.5), 0.681694, 6),
    (lambda: R.no_jump_mass(0.05), 0.315097, 6),
    (lambda: R.disk_eigenvalue(1e-3), 0.0452419, 7),
    (lambda: R.annulus_outer_flux(1e-3), -44.2185, 4),
    (lambda: R.square_eigenvalue(1e-3), 0.0910122, 7),
])
def test_reference_values(value, expected, digits):
    assert round(value(), digits) == expected


def test_references_agree_with_each_other():
    # the quadrature route against the closed forms it generalizes
    r = math.sqrt(2.0 / 1e-3)
    assert R._mu_integral(R.MU_1D[0], r) == pytest.approx(R.no_jump_mass(1e-3), rel=1e-12)
    lam = R.eigenvalue_1d(1e-3, 0)
    s = math.sqrt(2.0 * (1.0 - lam) / 1e-3)
    assert lam == pytest.approx(2.0 / s * math.tanh(s / 2.0), rel=1e-12)
    # mid-edge flux of the square and outer flux of a large annulus: the 1D layer
    assert R.square_mid_edge_flux(1e-3) == pytest.approx(R.flux_1d(1e-3), rel=1e-9)
    assert R.disk_no_jump_flux(1e-3) == pytest.approx(R.annulus_outer_flux(1e-3), rel=1e-9)
    # uniform mu makes c = 1/2 and A = -B = 1/(4 sinh(r/2))
    assert R.exit_functional_const_1d(1e-2, 0.3) == pytest.approx(
        0.5 - math.sinh(0.2 * math.sqrt(200.0)) / (2.0 * math.sinh(0.5 * math.sqrt(200.0))),
        rel=1e-12)


def run_round(workload):
    refs = workload.references()
    ops = workload.ops()
    outs = [op.call() for op in ops]
    for op, out in zip(ops, outs):
        assert op.check(out, refs) == [], op.name
    return ops, outs, refs


def small(cls, **sizes):
    return type("Small" + cls.__name__, (cls,), sizes)(SEED)


def test_mc_interval_const_checks():
    wl = small(W.McIntervalConst, N_EXIT=400, N_JUMP=1000)
    ops, outs, refs = run_round(wl)
    names = list(wl.specs)
    for op, out, key in zip(ops, outs, names + [n + " no-jump" for n in names]):
        field = "mean" if "mean" in out else "p"
        bad = dict(out, **{field: away(out[field], refs[key], 5 * out["se"])})
        assert op.check(bad, refs), op.name


def test_mc_asym_disk_checks():
    wl = small(W.McAsymDisk, N_ASYM=400, N_DISK=2000)
    (asym, disk), (a_out, d_out), refs = run_round(wl)
    assert asym.check(dict(a_out, mean=away(a_out["mean"], refs["asym"], 5 * a_out["se"])), refs)
    one_bin = [0] * len(d_out["angle_counts"])
    one_bin[0] = sum(d_out["angle_counts"])
    assert disk.check(dict(d_out, angle_counts=one_bin), refs)
    assert disk.check(dict(d_out, mean_x=away(d_out["mean_x"], 0.0, 5 * d_out["se_x"])), refs)
    assert disk.check(dict(d_out, radius_error=1e-3), refs)


def test_fdm_2d_checks():
    wl = W.Fdm2d(SEED)
    ops, outs, refs = run_round(wl)
    for op, out in zip(ops, outs):
        name = op.name.split()[0]
        if "lambda0" in out:
            bad = dict(out, lambda0=1.01 * out["lambda0"])
        elif "phi" in out and name == "square-k0-uniform":
            bad = dict(out, phi=out["phi"] + 1e-6)
        elif "phi" in out:
            ref = refs[name + " phi"]
            bad = dict(out, phi=away(out["phi"], ref, 0.01 * abs(ref)))
        else:
            ref = refs[name + " flux"]
            bad = dict(out, flux=away(out["flux"], ref, 0.01 * abs(ref)))
            assert op.check(dict(out, u_min=-1e-3), refs), op.name
        assert op.check(bad, refs), op.name


def test_sweeps_1d_checks():
    wl = W.Sweeps1d(SEED)
    ops, outs, refs = run_round(wl)
    for op, out in zip(ops[:5], outs[:5]):  # eigenvalue, flux and decay sweeps
        assert op.check(dict(out, failed_checks=["program check x failed"]), refs), op.name
    for op, out in zip(ops[:3], outs[:3]):
        bad = dict(out, values=out["values"][:-1] + [1.01 * out["values"][-1]])
        assert op.check(bad, refs), op.name
    for kind, op, out in zip(("flux", "decay"), ops[3:5], outs[3:5]):
        ref = refs[kind, out["deltas"][-1]]
        v = away(out["values"][-1], ref, 0.01 * abs(ref))
        assert op.check(dict(out, values=out["values"][:-1] + [v]), refs), op.name
    probe, probe_out = ops[5], outs[5]
    values = dict(probe_out["values"])
    values[1] = values[1][::-1]  # lambda0 rising as delta falls
    assert probe.check(dict(probe_out, values=values), refs)
    assert probe.check(dict(probe_out, ordering=False), refs)
    keys = [("mass", name, d) for name in W.EIGEN_SWEEPS for d in wl.scaled(W.MASS_DELTAS)]
    for key, op, out in zip(keys, ops[6:], outs[6:]):
        assert op.check(dict(out, mass=away(out["mass"], refs[key], 0.01 * refs[key])), refs)


def test_hardware_free_counts_repeat():
    counts = ("mc.nominal_steps", "mc.lockstep_span", "fdm.lu_nnz", "fdm.unknowns",
              "fdm.eigen_iterations", "mc.sampler_acceptance")
    seen = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            for wl in (small(W.McIntervalConst, N_EXIT=100, N_JUMP=100), W.Sweeps1d(SEED)):
                with tracer.span("round"):
                    for op in wl.ops():
                        op.call()
        finally:
            tracer.uninstall()
        sampler = spans.sampler_probe(wl.presets, SEED)
        metrics = spans.layer_metrics(tracer, sampler)
        seen.append({k: metrics[k] for k in counts})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())
