#!/usr/bin/env python3
"""Hardware-free work counts of one round of a benchmark workload.

    python3 scripts/work_counts.py --workload fdm-2d --seed 1

Builds the workload of benchmark/workloads.py from the seed, runs its round of
operations once and prints one JSON object with the round's sums.

Monte Carlo, over the ensembles: paths, ``nominal_steps`` (exit time / dt
summed over paths, the fixed-step equivalent that the benchmark's spans
report), ``lockstep_span`` (per chunk, the nominal steps of its longest path),
and the engine's own ``lane_steps`` (blocks simulated) and ``iterations``
(lockstep iterations).

Finite differences: ``assemblies`` (calls of ``fdm.assemble_operator``, one
per public solve), ``stencil_floats`` (the floats the assembled stencils hold,
the summed ``.size`` of their entries: per axis where a coefficient varies
along one axis only), ``sparse_builds`` (sparse A_loc matrices built from an
operator's stencil, which only the sparse LU reads), ``factorizations``
(sparse LUs of 2D operators that do not separate, every one of them, the
local factor of ``solve_no_jump_prob`` included), ``lu_nnz`` (their L+U
nonzeros summed), ``lu_nnz_max`` (the L+U nonzeros of the largest single
factor), ``fast_setups`` (``_SeparableSolver`` set-ups: fast diagonalization
of a 2D operator that separates, and the tridiagonal factor of every 1D
operator), ``solves`` (local solves with either kind) and
``eigen_iterations`` (inverse power iterations).

Start-up: ``setup_scipy_modules``, the ``scipy`` modules this interpreter
holds after importing jumplab and building the workload, before any
operation runs.  Only a local-solver set-up imports scipy, so it reads 0 on
the Monte Carlo workloads.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from jumplab import fdm, mc  # noqa: E402
import workloads  # noqa: E402

COUNTS = ["setup_scipy_modules", "paths", "nominal_steps", "lockstep_span", "lane_steps",
          "iterations", "assemblies", "stencil_floats", "sparse_builds", "factorizations",
          "lu_nnz", "lu_nnz_max", "fast_setups", "solves", "eigen_iterations"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    counts = dict.fromkeys(COUNTS, 0)
    simulate, eigen = mc.simulate_ensemble, fdm.principal_eigenvalue
    assemble = fdm.assemble_operator
    local, separable = fdm._LocalSolver, fdm._SeparableSolver
    a_loc = vars(fdm.DiscreteOperator)["A_loc"]

    def counted_ensemble(coeffs, domain, cfg, *rest, **kwargs):
        ens = simulate(coeffs, domain, cfg, *rest, **kwargs)
        steps = np.rint(ens.exit_times / cfg.dt).astype(np.int64)
        counts["paths"] += ens.n_paths
        counts["nominal_steps"] += int(steps.sum())
        counts["lockstep_span"] += sum(int(steps[c:c + cfg.chunk_size].max())
                                       for c in range(0, len(steps), cfg.chunk_size))
        counts["lane_steps"] += ens.lane_steps
        counts["iterations"] += ens.iterations
        return ens

    class CountedLU(local):
        def __init__(self, op):
            super().__init__(op)
            counts["factorizations"] += 1
            counts["lu_nnz"] += self.lu.nnz
            counts["lu_nnz_max"] = max(counts["lu_nnz_max"], self.lu.nnz)

        def solve(self, rhs):
            counts["solves"] += 1
            return super().solve(rhs)

    class CountedSeparable(separable):
        def __init__(self, *args):
            super().__init__(*args)
            counts["fast_setups"] += 1

        def solve(self, rhs):
            counts["solves"] += 1
            return super().solve(rhs)

    def counted_assemble(*args, **kwargs):
        op = assemble(*args, **kwargs)
        counts["assemblies"] += 1
        counts["stencil_floats"] += sum(c.size for c in op.stencil.values())
        return op

    @functools.cached_property
    def counted_a_loc(op):
        counts["sparse_builds"] += 1
        return a_loc.func(op)

    counted_a_loc.__set_name__(fdm.DiscreteOperator, "A_loc")

    def counted_eigen(*args, **kwargs):
        res = eigen(*args, **kwargs)
        counts["eigen_iterations"] += res.iterations
        return res

    mc.simulate_ensemble = counted_ensemble
    fdm.principal_eigenvalue, fdm.assemble_operator = counted_eigen, counted_assemble
    fdm._LocalSolver, fdm._SeparableSolver = CountedLU, CountedSeparable
    fdm.DiscreteOperator.A_loc = counted_a_loc
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        counts["setup_scipy_modules"] = sum(name.split(".")[0] == "scipy" for name in sys.modules)
        for op in workload.ops():
            op.call()
    finally:
        mc.simulate_ensemble, fdm.principal_eigenvalue = simulate, eigen
        fdm.assemble_operator = assemble
        fdm._LocalSolver, fdm._SeparableSolver = local, separable
        fdm.DiscreteOperator.A_loc = a_loc
    print(json.dumps({"workload": args.workload, "seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
