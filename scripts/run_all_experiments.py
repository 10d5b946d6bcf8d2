#!/usr/bin/env python3
"""Run the full experiment battery and write CSV/JSON reports.

Covers: eigenvalue scaling for k = 0, 1, 2, the asymmetric exit-law limit,
boundary-flux and interior-decay sweeps, MC/FDM cross-validation, and the
vanishing-intensity probe.  Outputs land under --out (default results/).

The Monte Carlo runs dominate the runtime; --quick shrinks them for a smoke
pass (about a minute), the full settings match the acceptance suite.
"""
import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

import jumplab as jl
from jumplab import experiments as ex
from jumplab import mc


def log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def save(result, out):
    ex.write_rows_csv(result.rows, out / f"{result.name}.csv")
    ex.write_summary_json(result, out / f"{result.name}.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--workers", type=int, default=2,
                    help="processes that Monte Carlo chunks are spread over")
    ap.add_argument("--quick", action="store_true", help="smaller MC runs")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    w = args.workers
    n_mc = 10**4 if args.quick else 10**5
    summary = {}

    eigen_cases = [
        ("interval-k0-uniform", (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5), 0.04),
        ("interval-k1-beta22", (10**-2.5, 1e-3, 10**-3.5, 1e-4, 10**-4.5), 0.04),
        ("interval-k2-quartic", (1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5), 0.03),
    ]
    for name, deltas, factor in eigen_cases:
        log(f"eigenvalue scaling: {name}")
        res = ex.run_eigenvalue_scaling_experiment(jl.preset(name), deltas,
                                                   grid_factor=factor,
                                                   prefactor_delta=1e-4)
        res.meta["csv"] = f"{res.name}-{name}.csv"
        ex.write_rows_csv(res.rows, out / f"{res.name}-{name}.csv")
        summary[f"eigenvalue-{name}"] = ex.summary_dict(res)

    log("exit-law limit: interval-k0-asym")
    res = ex.run_exit_law_experiment(jl.preset("interval-k0-asym"),
                                     (1e-2, 1e-3, 1e-4), x0=np.array([0.5]),
                                     x0_alt=np.array([0.25]), grid_factor=0.03,
                                     workers=w)
    save(res, out)
    summary["exit-law"] = ex.summary_dict(res)

    log("boundary flux: interval a=2 V=3 and annulus")
    res = ex.run_boundary_flux_experiment(jl.preset("interval-flux-a2v3"),
                                          (1e-3, 1e-4, 1e-5), grid_factor=0.04)
    ex.write_rows_csv(res.rows, out / "boundary-flux-interval.csv")
    summary["flux-interval"] = ex.summary_dict(res)
    res = ex.run_boundary_flux_experiment(jl.preset("annulus-flux"),
                                          (1e-3, 10**-3.5, 1e-4), grid_factor=0.05)
    ex.write_rows_csv(res.rows, out / "boundary-flux-annulus.csv")
    summary["flux-annulus"] = ex.summary_dict(res)

    log("interior decay: interval-k0-uniform")
    res = ex.run_interior_decay_experiment(jl.preset("interval-k0-uniform"),
                                           (1e-2, 1e-3, 1e-4), grid_factor=0.05,
                                           expected_slope=-1 / math.sqrt(2))
    save(res, out)
    summary["decay"] = ex.summary_dict(res)

    log(f"MC/FDM cross-validation at delta=0.05 ({n_mc} paths each)")
    for name in ("interval-k0-uniform", "interval-k0-asym", "interval-flux-a2v3"):
        spec = jl.preset(name)
        cfg = mc.SimConfig(delta=0.05, dt=1e-4, n_paths=n_mc, seed=29,
                           exit_mode="bridge-1d",
                           horizon=ex._horizon_from_theory(spec, 0.05),
                           chunk_size=50000)
        res = ex.compare_mc_fdm(spec, mc_config=cfg, workers=w)
        summary[f"mc-fdm-{name}"] = ex.summary_dict(res)
        check = res.check("mc_within_3se")
        log(f"  {name}: {check.detail} -> {'PASS' if check.passed else 'FAIL'}")

    log("vanishing-intensity probe, m = 1, 2, 3")
    results, probe_summary = ex.run_probe_suite(lambda m: jl.preset(f"probe-Vm{m}"))
    for m, r in results.items():
        ex.write_rows_csv(r.rows, out / f"probe-m{m}.csv")
    summary["probe"] = {str(k): v for k, v in probe_summary.items()}

    ex.write_summary_json(summary, out / "summary.json")
    ok = all(v.get("pass", True) for v in summary.values() if isinstance(v, dict))
    log(f"done; reports in {out}/ (all asserted checks pass: {ok})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
