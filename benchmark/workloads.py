"""The benchmark's workloads: their inputs, their operations and the checks on them.

Building a workload is its set-up: it makes the presets, validates them and
fixes every solver setting from the seed.  ``ops()`` lists the operations of
one round; an operation is one Monte Carlo ensemble, one solve, one eigen
solve or one ``experiments`` call, and returns the numbers its check reads.
``references()`` computes, apart from jumplab, the values those checks
compare against.  Every round repeats the same operations on the same inputs,
so a round's outputs must repeat exactly.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import jumplab as jl
from jumplab import experiments as ex
from jumplab import fdm, mc, theory

# A Monte Carlo mean passes within this many standard errors of its reference.
# One operation in about 1.5e5 fails by chance; a bias of 5 standard errors
# fails always.
MC_Z = 4.5
# Relative tolerances of the deterministic solvers against the continuum
# references, each above the error measured on these grids and below that
# error plus 1%.
EIGEN_RTOL = 0.005
EXIT_RTOL = 0.005
FLUX_RTOL = 0.01
MASS_RTOL = 0.001
DECAY_RTOL = 0.02
# Dirichlet data f = x is odd about the centre of the square and the disk.
SYMMETRY_ATOL = 1e-9
# Relative node-to-node spread of the flux on a circle, for radial data.
UNIFORMITY_RTOL = 1e-6
# Exit-angle histogram: bins, and the chi-square tail that rejects uniformity.
ANGLE_BINS = 36
ANGLE_PVALUE = 1e-6


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs jumplab, ``check(output, refs)`` lists what is wrong."""

    name: str
    call: Callable[[], dict]
    check: Callable[[dict, dict], list]


def rel_close(label, value, target, rtol):
    err = value / target - 1.0
    if abs(err) <= rtol:
        return []
    return [f"{label}: {value:.9g} vs reference {target:.9g} ({err:+.3%}, tol {rtol:.2%})"]


def within_se(label, value, se, target, z=MC_Z):
    if abs(value - target) <= z * se:
        return []
    return [f"{label}: {value:.6f} +/- {se:.2e} vs reference {target:.6f} "
            f"({(value - target) / se:+.2f} se, limit {z})"]


def horizon(spec, delta):
    """Censoring horizon 50 / lambda0 of the limit law, as the acceptance MC runs set it."""
    quad, iquad = ex.theory_quadratures(
        spec.domain, boundary_resolution=128,
        interior_resolution=2000 if spec.domain.dim == 1 else 200)
    pref = theory.decay_rate_prefactor(spec.coeffs, quad, iquad)
    return 50.0 / (pref * delta ** ((spec.coeffs.vanishing_order + 1) / 2.0))


def validated(name):
    spec = jl.preset(name)
    spec.validate()
    return spec


class Workload:
    name = ""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.presets = []  # ProblemSpecs, for the sampler probe of the traced run

    def ops(self):
        raise NotImplementedError

    def references(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo


MC_DELTA = 0.05
MC_DT_1D = 1e-4
MC_DT_2D = 5e-4


def exit_law_op(label, spec, cfg, x0, ref_key):
    def call():
        est = mc.estimate_exit_law(x0, spec.coeffs, spec.domain, cfg)
        return {"mean": est.mean_f, "se": est.stderr_f}

    def check(out, refs):
        return within_se(label, out["mean"], out["se"], refs[ref_key])
    return Op(label, call, check)


def exit_before_jump_op(label, spec, cfg, ref_key):
    def call():
        p, se = mc.exit_before_jump_probability(spec.coeffs, spec.domain, cfg)
        return {"p": p, "se": se}

    def check(out, refs):
        return within_se(label, out["p"], out["se"], refs[ref_key])
    return Op(label, call, check)


class McIntervalConst(Workload):
    """1D bridge MC on the constant-coefficient presets (criteria 7 and 9)."""

    name = "mc-interval-const"
    PRESETS = {"interval-k0-uniform": (1.0, 1.0), "interval-flux-a2v3": (2.0, 3.0)}  # (a, V)
    X0 = 0.3
    N_EXIT = 4500
    N_JUMP = 4500

    def __init__(self, seed):
        super().__init__(seed)
        self.specs = {name: validated(name) for name in self.PRESETS}
        self.presets = list(self.specs.values())
        self.cfgs = {}
        for name, spec in self.specs.items():
            self.cfgs[name, "exit"] = mc.SimConfig(
                delta=MC_DELTA, dt=MC_DT_1D, n_paths=self.N_EXIT,
                seed=self.rng.randrange(2**32), exit_mode="bridge-1d",
                horizon=horizon(spec, MC_DELTA))
            self.cfgs[name, "jump"] = mc.SimConfig(
                delta=MC_DELTA, dt=MC_DT_1D, n_paths=self.N_JUMP,
                seed=self.rng.randrange(2**32), exit_mode="bridge-1d", horizon=None)

    def ops(self):
        ops = []
        for name, spec in self.specs.items():
            ops.append(exit_law_op(f"{name} exit law from x={self.X0}", spec,
                                   self.cfgs[name, "exit"], np.array([self.X0]), name))
        for name, spec in self.specs.items():
            ops.append(exit_before_jump_op(f"{name} exit before first jump", spec,
                                           self.cfgs[name, "jump"], name + " no-jump"))
        return ops

    def references(self):
        import references as R
        refs = {}
        for name, (a, V) in self.PRESETS.items():
            refs[name] = R.exit_functional_const_1d(MC_DELTA, self.X0, a=a, V=V)
            refs[name + " no-jump"] = R.no_jump_mass(MC_DELTA, a=a, V=V)
        return refs


def disk_exit_op(label, spec, cfg):
    def call():
        ens = mc.simulate_ensemble(spec.coeffs, spec.domain, cfg, x0=spec.start_point())
        pts = ens.exit_points[ens.exited()]
        n = len(pts)
        theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
        counts = np.histogram(theta, bins=np.linspace(0.0, 2 * math.pi, ANGLE_BINS + 1))[0]
        return {"mean_x": float(pts[:, 0].mean()), "mean_y": float(pts[:, 1].mean()),
                "se_x": float(pts[:, 0].std(ddof=1) / math.sqrt(n)),
                "se_y": float(pts[:, 1].std(ddof=1) / math.sqrt(n)),
                "radius_error": float(np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0))),
                "angle_counts": counts.tolist()}

    def check(out, refs):
        problems = within_se(label + " E[x_exit]", out["mean_x"], out["se_x"], 0.0)
        problems += within_se(label + " E[y_exit]", out["mean_y"], out["se_y"], 0.0)
        if not out["radius_error"] <= SYMMETRY_ATOL:
            problems.append(f"{label}: exit point off the unit circle by {out['radius_error']:.2e}")
        counts = np.asarray(out["angle_counts"], dtype=float)
        expected = counts.sum() / len(counts)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        if not chi2 < refs["chi2 critical"]:
            problems.append(f"{label}: exit-angle chi2 {chi2:.1f} over {len(counts)} bins "
                            f"above {refs['chi2 critical']:.1f} (p = {ANGLE_PVALUE:g})")
        return problems
    return Op(label, call, check)


class McAsymDisk(Workload):
    """Varying-coefficient 1D bridge MC (criterion 7) and 2D first-crossing MC (criterion 8)."""

    name = "mc-asym-disk"
    X0_ASYM = 0.5
    N_ASYM = 6000
    N_DISK = 10000

    def __init__(self, seed):
        super().__init__(seed)
        self.asym = validated("interval-k0-asym")
        self.disk = validated("disk-k0-radial")
        self.presets = [self.asym, self.disk]
        self.cfg_asym = mc.SimConfig(
            delta=MC_DELTA, dt=MC_DT_1D, n_paths=self.N_ASYM,
            seed=self.rng.randrange(2**32), exit_mode="bridge-1d",
            horizon=horizon(self.asym, MC_DELTA))
        self.cfg_disk = mc.SimConfig(
            delta=MC_DELTA, dt=MC_DT_2D, n_paths=self.N_DISK,
            seed=self.rng.randrange(2**32), horizon=horizon(self.disk, MC_DELTA))

    def ops(self):
        return [exit_law_op(f"interval-k0-asym exit law from x={self.X0_ASYM}", self.asym,
                            self.cfg_asym, np.array([self.X0_ASYM]), "asym"),
                disk_exit_op("disk-k0-radial exit from the centre", self.disk, self.cfg_disk)]

    def references(self):
        import references as R
        from scipy.stats import chi2
        return {"asym": R.exit_functional_asym(MC_DELTA, self.X0_ASYM),
                "chi2 critical": float(chi2.isf(ANGLE_PVALUE, ANGLE_BINS - 1))}


# ---------------------------------------------------------------------------
# 2D finite differences


class Fdm2d(Workload):
    """Eigen, nonlocal Dirichlet and no-jump solves on the 2D presets, about 1e5 nodes each."""

    name = "fdm-2d"
    # nodes per axis: square n x n; polar n_radial x n_angular
    GRIDS = {"square-k0-uniform": (319, None), "disk-k0-radial": (400, 256),
             "annulus-flux": (400, 256)}
    PROBE = {"square-k0-uniform": (0.5, 0.5), "disk-k0-radial": (0.95, 0.0),
             "annulus-flux": (0.95, 0.0)}

    def __init__(self, seed):
        super().__init__(seed)
        self.delta = 1e-3 * 10 ** self.rng.uniform(-0.05, 0.05)
        self.specs = {name: validated(name) for name in self.GRIDS}
        self.presets = list(self.specs.values())

    def grid(self, name):
        n, n_angular = self.GRIDS[name]
        return fdm.build_grid(self.specs[name].domain, n, n_angular)

    def ops(self):
        ops = []
        for name in self.GRIDS:
            ops += [self.eigen_op(name), self.exit_op(name), self.flux_op(name)]
        return ops

    def eigen_op(self, name):
        spec, label = self.specs[name], f"{name} principal eigenvalue"

        def call():
            res = fdm.principal_eigenvalue(self.delta, spec.coeffs, self.grid(name))
            return {"lambda0": res.lambda0, "iterations": res.iterations}

        def check(out, refs):
            return rel_close(label, out["lambda0"], refs[name + " lambda0"], EIGEN_RTOL)
        return Op(label, call, check)

    def exit_op(self, name):
        spec, label = self.specs[name], f"{name} exit functional"
        probe = np.array(self.PROBE[name])

        def call():
            u = fdm.solve_exit_functional(self.delta, spec.coeffs, self.grid(name))
            return {"phi": u.at(probe)}

        def check(out, refs):
            if name == "square-k0-uniform":  # f = x is odd about the centre
                if abs(out["phi"] - 0.5) <= SYMMETRY_ATOL:
                    return []
                return [f"{label}: phi(centre) = {out['phi']!r}, not 1/2"]
            return rel_close(label, out["phi"], refs[name + " phi"], EXIT_RTOL)
        return Op(label, call, check)

    def flux_op(self, name):
        spec, label = self.specs[name], f"{name} no-jump boundary flux"
        polar = name != "square-k0-uniform"
        n_angular = self.GRIDS[name][1]

        def call():
            u = fdm.solve_no_jump_prob(self.delta, spec.coeffs, self.grid(name))
            bf = fdm.boundary_flux(u, spec.coeffs)
            out = {"u_min": float(u.values.min()), "u_max": float(u.values.max())}
            if polar:  # the outer circle is the last ring of boundary nodes
                outer = bf.values[-n_angular:]
                out["flux"] = float(outer.mean())
                out["spread"] = float(np.ptp(outer) / abs(outer.mean()))
            else:
                mid = np.flatnonzero(np.all(np.isclose(bf.nodes, [0.0, 0.5]), axis=1))
                out["flux"] = float(bf.values[mid[0]])
            return out

        def check(out, refs):
            problems = rel_close(label, out["flux"], refs[name + " flux"], FLUX_RTOL)
            if not 0.0 < out["u_min"] <= out["u_max"] <= 1.0:
                problems.append(f"{label}: no-jump probability outside (0, 1]: "
                                f"[{out['u_min']:.3e}, {out['u_max']:.6f}]")
            if polar and not out["spread"] <= UNIFORMITY_RTOL:
                problems.append(f"{label}: flux spread {out['spread']:.2e} over the outer "
                                f"circle above {UNIFORMITY_RTOL:g}")
            return problems
        return Op(label, call, check)

    def references(self):
        import references as R
        d = self.delta
        return {
            "square-k0-uniform lambda0": R.square_eigenvalue(d),
            "square-k0-uniform flux": R.square_mid_edge_flux(d),
            "disk-k0-radial lambda0": R.disk_eigenvalue(d),
            "disk-k0-radial phi": R.disk_exit_functional(d, self.PROBE["disk-k0-radial"][0]),
            "disk-k0-radial flux": R.disk_no_jump_flux(d),
            "annulus-flux lambda0": R.annulus_eigenvalue(d),
            "annulus-flux phi": R.annulus_exit_functional(d, self.PROBE["annulus-flux"][0]),
            "annulus-flux flux": R.annulus_outer_flux(d),
        }


# ---------------------------------------------------------------------------
# 1D sweeps through experiments


EIGEN_SWEEPS = {  # preset: (k, deltas, grid factor), as acceptance criteria 1-3
    "interval-k0-uniform": (0, (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5), 0.04),
    "interval-k1-beta22": (1, (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5), 0.04),
    "interval-k2-quartic": (2, (1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5), 0.03),
}
FLUX_DELTAS = (1e-3, 1e-4, 1e-5)       # criterion 5, interval-flux-a2v3
DECAY_DELTAS = (1e-2, 1e-3, 1e-4)      # criterion 11
MASS_DELTAS = (1e-4, 10**-4.5)         # criterion 10


def sweep_op(label, ref_tag, rtol, run):
    """An ``experiments`` sweep; each row must lie within ``rtol`` of refs[ref_tag, delta]
    and each of the experiment's own checks must pass."""
    def call():
        res = run()
        return {"deltas": [r.delta for r in res.rows], "values": [r.value for r in res.rows],
                "failed_checks": [f"program check {c.name} failed: {c.detail}"
                                  for c in res.checks if not c.passed]}

    def check(out, refs):
        problems = list(out["failed_checks"])
        for d, v in zip(out["deltas"], out["values"]):
            problems += rel_close(f"{label} at delta={d:.4g}", v, refs[ref_tag, d], rtol)
        return problems
    return Op(label, call, check)


class Sweeps1d(Workload):
    """The 1D delta-sweeps of acceptance criteria 1-3, 5, 10, 11 and 14, through experiments.

    The seed shifts every delta by one common factor within 10^(+-0.01).
    """

    name = "sweeps-1d"

    def __init__(self, seed):
        super().__init__(seed)
        self.shift = 10 ** self.rng.uniform(-0.01, 0.01)
        names = list(EIGEN_SWEEPS) + ["interval-flux-a2v3"] + [f"probe-Vm{m}" for m in (1, 2, 3)]
        self.specs = {name: jl.preset(name) for name in names}
        self.presets = list(self.specs.values())

    def scaled(self, deltas):
        return tuple(d * self.shift for d in deltas)

    def ops(self):
        ops = [self.eigen_op(name) for name in EIGEN_SWEEPS]
        ops.append(sweep_op(
            "interval-flux-a2v3 boundary flux sweep, sqrt(delta)*flux", "flux", FLUX_RTOL,
            lambda: ex.run_boundary_flux_experiment(self.specs["interval-flux-a2v3"],
                                                    self.scaled(FLUX_DELTAS), grid_factor=0.04)))
        ops.append(sweep_op(
            "interval-k0-uniform interior decay sweep, u(1/2)", "decay", DECAY_RTOL,
            lambda: ex.run_interior_decay_experiment(self.specs["interval-k0-uniform"],
                                                     self.scaled(DECAY_DELTAS), grid_factor=0.05,
                                                     expected_slope=-1.0 / math.sqrt(2.0))))
        ops.append(self.probe_op())
        ops += [self.mass_op(name, d) for name in EIGEN_SWEEPS for d in self.scaled(MASS_DELTAS)]
        return ops

    def eigen_op(self, name):
        _, deltas, factor = EIGEN_SWEEPS[name]
        return sweep_op(
            f"{name} eigenvalue scaling, lambda0", name, EIGEN_RTOL,
            lambda: ex.run_eigenvalue_scaling_experiment(
                self.specs[name], self.scaled(deltas), grid_factor=factor,
                prefactor_delta=1e-4 * self.shift))

    def probe_op(self):
        label = "vanishing-intensity probe suite, m = 1, 2, 3"
        deltas = self.scaled(ex.DEFAULT_DELTAS)

        def call():
            results, summary = ex.run_probe_suite(lambda m: self.specs[f"probe-Vm{m}"],
                                                  ms=(1, 2, 3), deltas=deltas)
            return {"values": {m: [r.value for r in res.rows] for m, res in results.items()},
                    "alphas": summary["alphas"],
                    "ordering": summary["ordering_alpha1_lt_alpha3"]}

        def check(out, refs):
            # No closed form exists here: lambda0 must be positive and fall as
            # delta falls, and the fitted order for m=1 must stay below m=3's.
            problems = []
            for m, values in out["values"].items():
                if not (all(v > 0 for v in values)
                        and all(a > b for a, b in zip(values, values[1:]))):
                    problems.append(f"{label}: lambda0 for m={m} is not positive and "
                                    f"falling as delta falls: {values}")
                if not math.isfinite(out["alphas"][m]):
                    problems.append(f"{label}: fitted order for m={m} is {out['alphas'][m]}")
            if not out["ordering"]:
                problems.append(f"{label}: alpha(1) < alpha(3) does not hold: {out['alphas']}")
            return problems
        return Op(label, call, check)

    def mass_op(self, name, delta):
        spec = self.specs[name]
        label = f"{name} no-jump mass at delta={delta:.4g}"

        def call():
            return {"mass": ex.discrete_no_jump_mass(spec, delta, grid_factor=0.02)}

        def check(out, refs):
            return rel_close(label, out["mass"], refs["mass", name, delta], MASS_RTOL)
        return Op(label, call, check)

    def references(self):
        import references as R
        refs = {}
        for name, (k, deltas, _) in EIGEN_SWEEPS.items():
            for d in self.scaled(deltas):
                refs[name, d] = R.eigenvalue_1d(d, k)
            for d in self.scaled(MASS_DELTAS):
                refs["mass", name, d] = R.no_jump_mass(d, k)
        for d in self.scaled(FLUX_DELTAS):
            refs["flux", d] = math.sqrt(d) * R.flux_1d(d, a=2.0, V=3.0)
        for d in self.scaled(DECAY_DELTAS):
            refs["decay", d] = R.no_jump_center_1d(d)
        return refs


WORKLOADS = {w.name: w for w in (McIntervalConst, McAsymDisk, Fdm2d, Sweeps1d)}
