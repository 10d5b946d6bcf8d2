#!/usr/bin/env python3
"""Hardware-free work counts of one round of a Monte Carlo benchmark workload.

    python3 scripts/mc_work.py --workload mc-interval-const --seed 1

Builds the workload of benchmark/workloads.py from the seed, runs its round of
operations once and prints one JSON object with the sums over the round's
ensembles: paths, ``nominal_steps`` (exit time / dt summed over paths, the
fixed-step equivalent that the benchmark's spans report), ``lockstep_span``
(per chunk, the nominal steps of its longest path), and the engine's own
``lane_steps`` (blocks simulated) and ``iterations`` (lockstep iterations).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from jumplab import mc  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mc-interval-const", "mc-asym-disk"])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    counts = dict.fromkeys(["paths", "nominal_steps", "lockstep_span", "lane_steps",
                            "iterations"], 0)
    simulate = mc.simulate_ensemble

    def counted(coeffs, domain, cfg, *rest, **kwargs):
        ens = simulate(coeffs, domain, cfg, *rest, **kwargs)
        steps = np.rint(ens.exit_times / cfg.dt).astype(np.int64)
        counts["paths"] += ens.n_paths
        counts["nominal_steps"] += int(steps.sum())
        counts["lockstep_span"] += sum(int(steps[c:c + cfg.chunk_size].max())
                                       for c in range(0, len(steps), cfg.chunk_size))
        counts["lane_steps"] += ens.lane_steps
        counts["iterations"] += ens.iterations
        return ens

    mc.simulate_ensemble = counted
    try:
        for op in workloads.WORKLOADS[args.workload](args.seed).ops():
            op.call()
    finally:
        mc.simulate_ensemble = simulate
    print(json.dumps({"workload": args.workload, "seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
