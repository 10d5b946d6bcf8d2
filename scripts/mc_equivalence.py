#!/usr/bin/env python3
"""Two-sample equivalence check of the Monte Carlo engine between two source trees.

    python3 scripts/mc_equivalence.py run --tree OLD --seed 1 --out old.npz
    python3 scripts/mc_equivalence.py run --tree NEW --seed 2 --out new.npz
    python3 scripts/mc_equivalence.py compare old.npz new.npz --json table.json

``run`` imports ``jumplab`` from ``TREE/src``, simulates a fixed list of cases
and writes every path's outcome (exit coordinate and component from
``Domain.boundary_coordinate``, exit time, jump count, status) plus the
engine's work counts to an ``.npz`` file.  Give the two sides different seeds:
runs that share a stream are not independent.

``compare`` prints one p-value per case and statistic: status, and the exit
point in 16 equal bins of the boundary coordinate crossed with its component,
by a chi-squared contingency test; the exit coordinate and the exit time (of
exited paths) and the jump count by the two-sample Kolmogorov-Smirnov test.
Exit times and jump counts are on a lattice, and in 1D the exit coordinate
takes two values, where KS is conservative.  It also says, per case, whether
the two files are equal field for field (every per-path array and work count,
bit for bit).  Run both sides at the same seed to check a change that must not
move a single draw, such as a performance change: equal files for every case
are that check, and the p-values then read 1.

The cases, all at delta = 0.05:

- bridge-1d: ``interval-k0-uniform``, ``interval-k0-asym``,
  ``interval-flux-a2v3`` and ``interval-k0-uniform`` with the constant drift
  b = 0.5, each run as the exit law from x0 = 0.3 (horizon 20) at dt = 1e-4
  and at dt = 1e-3, and as exit-before-jump from mu at dt = 1e-4 (no horizon);
- first crossing in 2D: ``disk-k0-radial`` and ``annulus-flux`` as the exit
  law from ``start_point()`` (horizon 20) at dt = 5e-4 and at dt = 1e-3;
  ``square-k0-uniform`` and the unit square with the constant anisotropic
  a = [[1, 0.3], [0.3, 0.5]] and drift b = (0.5, -0.2) (``aniso-drift-square``)
  from (0.5, 0.5) at dt = 1e-3 (horizon 20); exit-before-jump from mu on
  ``disk-k0-radial`` at dt = 5e-4 (no horizon).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

DELTA = 0.05
X0_1D = 0.3
HORIZON = 20.0
EXIT_BINS = 16
BRIDGE_PROBLEMS = ["interval-k0-uniform", "interval-k0-asym", "interval-flux-a2v3",
                   "drift-0.5"]
BRIDGE_RUNS = {"exit-dt1e-4": (1e-4, False), "exit-dt1e-3": (1e-3, False),
               "no-jump": (1e-4, True)}  # (dt, stop at the first jump from mu)
# (problem, run label, dt, stop at the first jump from mu), first crossing
FIRST_CROSSING_CASES = [
    ("disk-k0-radial", "exit-dt5e-4", 5e-4, False),
    ("disk-k0-radial", "exit-dt1e-3", 1e-3, False),
    ("annulus-flux", "exit-dt5e-4", 5e-4, False),
    ("annulus-flux", "exit-dt1e-3", 1e-3, False),
    ("square-k0-uniform", "exit-dt1e-3", 1e-3, False),
    ("aniso-drift-square", "exit-dt1e-3", 1e-3, False),
    ("disk-k0-radial", "no-jump", 5e-4, True),
]
FIELDS = ["coord", "component", "exit_times", "jump_counts", "status"]
WORK = ["lane_steps", "iterations", "nominal_steps"]
STATISTICS = ["status", "exit_bins", "exit_coord", "exit_time", "jumps"]


def cases():
    """(label, problem, exit mode, dt, stop at the first jump), in seed order."""
    bridge = [(f"{p}/{r}", p, "bridge-1d", dt, stop)
              for p in BRIDGE_PROBLEMS for r, (dt, stop) in BRIDGE_RUNS.items()]
    return bridge + [(f"{p}/{r}", p, "first-crossing", dt, stop)
                     for p, r, dt, stop in FIRST_CROSSING_CASES]


def problem(jl, name):
    """(coefficients, domain, start point) of a named case problem."""
    if name == "drift-0.5":
        spec = jl.preset("interval-k0-uniform")
        return (replace(spec.coeffs, drift=jl.VectorField.constant((0.5,))), spec.domain,
                np.array([X0_1D]))
    if name == "aniso-drift-square":
        spec = jl.preset("square-k0-uniform")
        rows = ((jl.const(2, 1.0), jl.const(2, 0.3)), (jl.const(2, 0.3), jl.const(2, 0.5)))
        coeffs = replace(spec.coeffs, diffusion=jl.MatrixField(rows),
                         drift=jl.VectorField.constant((0.5, -0.2)))
        return coeffs, spec.domain, spec.start_point()
    spec = jl.preset(name)
    x0 = np.array([X0_1D]) if spec.domain.dim == 1 else spec.start_point()
    return spec.coeffs, spec.domain, x0


def run(args):
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    import jumplab as jl
    from jumplab import mc

    arrays = {}
    for i, (label, name, mode, dt, stop_on_jump) in enumerate(cases()):
        coeffs, domain, x0 = problem(jl, name)
        cfg = mc.SimConfig(delta=DELTA, dt=dt, n_paths=args.paths, seed=1000 * args.seed + i,
                           exit_mode=mode, horizon=None if stop_on_jump else HORIZON)
        ens = mc.simulate_ensemble(coeffs, domain, cfg, x0=None if stop_on_jump else x0,
                                   stop_on_jump=stop_on_jump)
        exited = ens.exited()
        coord = np.full(ens.n_paths, np.nan)
        component = np.full(ens.n_paths, -1)
        coord[exited], component[exited] = domain.boundary_coordinate(ens.exit_points[exited])
        outcome = {"coord": coord, "component": component, "exit_times": ens.exit_times,
                   "jump_counts": ens.jump_counts, "status": ens.status,
                   "edges": np.linspace(*domain.coordinate_range, EXIT_BINS + 1),
                   "lane_steps": ens.lane_steps, "iterations": ens.iterations,
                   "nominal_steps": int(np.rint(ens.exit_times / dt).sum())}
        arrays.update({f"{label}/{k}": np.asarray(v) for k, v in outcome.items()})
        print(f"{label}: lane_steps {ens.lane_steps}, iterations {ens.iterations}", flush=True)
    np.savez_compressed(args.out, **arrays)


def _chi2(a, b, categories):
    from scipy.stats import chi2_contingency
    table = np.array([[np.count_nonzero(x == c) for c in categories] for x in (a, b)])
    table = table[:, table.sum(axis=0) > 0]
    return float(chi2_contingency(table).pvalue) if table.shape[1] > 1 else 1.0


def _exit_cells(side, edges):
    """Per exited path, the cell (coordinate bin, component) of its exit point."""
    ex = side["status"] == 0
    bins = np.clip(np.searchsorted(edges, side["coord"][ex], side="right") - 1,
                   0, len(edges) - 2)
    return side["component"][ex] * (len(edges) - 1) + bins


def pvalues(a, b, edges):
    """Per statistic, the p-value of equal laws for one case's outcomes."""
    from scipy.stats import ks_2samp
    ex_a, ex_b = a["status"] == 0, b["status"] == 0
    cells = [_exit_cells(s, edges) for s in (a, b)]
    return {"status": _chi2(a["status"], b["status"], np.union1d(a["status"], b["status"])),
            "exit_bins": _chi2(*cells, np.union1d(*cells)),
            "exit_coord": float(ks_2samp(a["coord"][ex_a], b["coord"][ex_b]).pvalue),
            "exit_time": float(ks_2samp(a["exit_times"][ex_a], b["exit_times"][ex_b]).pvalue),
            "jumps": float(ks_2samp(a["jump_counts"], b["jump_counts"]).pvalue)}


def _same(x, y):
    """Whether two arrays are equal bit for bit, in dtype and shape too."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def compare(args):
    sides = [np.load(p) for p in (args.a, args.b)]
    rows = []
    print(f"{'case':34s} " + " ".join(f"{s[:8]:>8s}" for s in STATISTICS)
          + "   equal   lane_steps A -> B")
    for label, *_ in cases():
        a, b = ({k: s[f"{label}/{k}"] for k in FIELDS + WORK + ["edges"]} for s in sides)
        p = pvalues(a, b, a["edges"])
        equal = all(_same(a[k], b[k]) for k in a)
        rows.append({"case": label, "pvalues": p, "equal": equal,
                     "work": {k: [int(a[k]), int(b[k])] for k in WORK}})
        print(f"{label:34s} " + " ".join(f"{v:8.3g}" for v in p.values())
              + f"   {'yes' if equal else 'no':5s}   {int(a['lane_steps'])} -> "
              f"{int(b['lane_steps'])}")
    smallest = min(min(r["pvalues"].values()) for r in rows)
    n_equal = sum(r["equal"] for r in rows)
    print(f"smallest of {len(STATISTICS) * len(rows)} p-values: {smallest:.3g}")
    print(f"cases equal field for field: {n_equal} of {len(rows)}")
    if args.json:
        Path(args.json).write_text(json.dumps({"rows": rows, "min_pvalue": smallest,
                                               "equal_cases": n_equal}, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="simulate the cases with the engine of one tree")
    r.add_argument("--tree", required=True, help="source tree whose src/ holds jumplab")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--paths", type=int, default=100_000)
    r.add_argument("--out", required=True, help=".npz file for the per-path outcomes")
    r.set_defaults(fn=run)
    c = sub.add_parser("compare",
                       help="two-sample p-values of two runs, and whether they are equal")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--json", help="also write the table as JSON")
    c.set_defaults(fn=compare)
    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
