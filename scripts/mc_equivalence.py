#!/usr/bin/env python3
"""Two-sample equivalence check of the Monte Carlo engine between two source trees.

    python3 scripts/mc_equivalence.py run --tree OLD --seed 1 --out old.npz
    python3 scripts/mc_equivalence.py run --tree NEW --seed 2 --out new.npz
    python3 scripts/mc_equivalence.py compare old.npz new.npz --json table.json

``run`` imports ``jumplab`` from ``TREE/src``, simulates a fixed list of 1D
bridge cases and writes every path's outcome (exit side, exit time, jump
count, status) plus the engine's work counts to an ``.npz`` file.  Give the
two sides different seeds: runs that share a stream are not independent.

``compare`` prints one p-value per case and statistic: status and exit side by
a chi-squared contingency test, exit times (of exited paths) and jump counts by
the two-sample Kolmogorov-Smirnov test.  Exit times and jump counts are on a
lattice, where KS is conservative.

The cases, at delta = 0.05 in bridge-1d mode: ``interval-k0-uniform``,
``interval-k0-asym``, ``interval-flux-a2v3`` and ``interval-k0-uniform`` with
the constant drift b = 0.5, each run as the exit law from x0 = 0.3 (horizon
20) at dt = 1e-4 and at dt = 1e-3, and as exit-before-jump from mu at
dt = 1e-4 (no horizon).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

DELTA = 0.05
X0 = 0.3
HORIZON = 20.0
PROBLEMS = ["interval-k0-uniform", "interval-k0-asym", "interval-flux-a2v3", "drift-0.5"]
RUNS = {"exit-dt1e-4": (1e-4, False), "exit-dt1e-3": (1e-3, False),
        "no-jump": (1e-4, True)}  # (dt, stop at the first jump from mu)
FIELDS = ["right", "exit_times", "jump_counts", "status"]
WORK = ["lane_steps", "iterations", "nominal_steps"]


def cases():
    return [(f"{p}/{r}", p, r) for p in PROBLEMS for r in RUNS]


def problem(jl, name):
    if name == "drift-0.5":
        spec = jl.preset("interval-k0-uniform")
        return replace(spec.coeffs, drift=jl.VectorField.constant((0.5,))), spec.domain
    spec = jl.preset(name)
    return spec.coeffs, spec.domain


def run(args):
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    import jumplab as jl
    from jumplab import mc

    arrays = {}
    for i, (label, name, kind) in enumerate(cases()):
        coeffs, domain = problem(jl, name)
        dt, stop_on_jump = RUNS[kind]
        cfg = mc.SimConfig(delta=DELTA, dt=dt, n_paths=args.paths, seed=1000 * args.seed + i,
                           exit_mode="bridge-1d", horizon=None if stop_on_jump else HORIZON)
        ens = mc.simulate_ensemble(coeffs, domain, cfg,
                                   x0=None if stop_on_jump else np.array([X0]),
                                   stop_on_jump=stop_on_jump)
        outcome = {"right": ens.exit_points[:, 0] > 0.5, "exit_times": ens.exit_times,
                   "jump_counts": ens.jump_counts, "status": ens.status,
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


def pvalues(a, b):
    """Per statistic, the p-value of equal laws for one case's outcomes."""
    from scipy.stats import ks_2samp
    ex_a, ex_b = a["status"] == 0, b["status"] == 0
    return {"status": _chi2(a["status"], b["status"], np.union1d(a["status"], b["status"])),
            "exit_side": _chi2(a["right"][ex_a], b["right"][ex_b], [False, True]),
            "exit_time": float(ks_2samp(a["exit_times"][ex_a], b["exit_times"][ex_b]).pvalue),
            "jumps": float(ks_2samp(a["jump_counts"], b["jump_counts"]).pvalue)}


def compare(args):
    sides = [np.load(p) for p in (args.a, args.b)]
    rows = []
    print(f"{'case':34s} {'status':>8s} {'side':>8s} {'time':>8s} {'jumps':>8s}"
          f"   lane_steps A -> B")
    for label, _, _ in cases():
        a, b = ({k: s[f"{label}/{k}"] for k in FIELDS + WORK} for s in sides)
        p = pvalues(a, b)
        rows.append({"case": label, "pvalues": p,
                     "work": {k: [int(a[k]), int(b[k])] for k in WORK}})
        print(f"{label:34s} " + " ".join(f"{v:8.3g}" for v in p.values())
              + f"   {int(a['lane_steps'])} -> {int(b['lane_steps'])}")
    smallest = min(min(r["pvalues"].values()) for r in rows)
    print(f"smallest of {4 * len(rows)} p-values: {smallest:.3g}")
    if args.json:
        Path(args.json).write_text(json.dumps({"rows": rows, "min_pvalue": smallest},
                                              indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="simulate the cases with the engine of one tree")
    r.add_argument("--tree", required=True, help="source tree whose src/ holds jumplab")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--paths", type=int, default=100_000)
    r.add_argument("--out", required=True, help=".npz file for the per-path outcomes")
    r.set_defaults(fn=run)
    c = sub.add_parser("compare", help="two-sample p-values of two runs")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--json", help="also write the table as JSON")
    c.set_defaults(fn=compare)
    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
