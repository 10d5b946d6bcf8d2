"""Command-line interface.

Subcommands: theory, solve, eigen, mc, sweep, probe, validate.  Problems
come from --preset or --config; outputs land in --out as CSV tables plus a
summary JSON.  The exit code is 0 iff every asserted check passed.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, fdm, mc
from .config import build_problem, load_config
from .errors import ConfigError, JumplabError
from .presets import PRESET_NAMES, preset
from .tables import write_csv


def _deltas(items, source):
    """A non-empty list of finite deltas > 0, from ``--delta`` or ``experiment.deltas``."""
    if not isinstance(items, list):
        raise ConfigError(f"{source} must be a list of deltas, got {items!r}")
    try:
        deltas = [float(d) for d in items]
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if not deltas or not all(math.isfinite(d) and d > 0 for d in deltas):
        raise ConfigError(f"{source} must list finite deltas > 0, got {items!r}")
    return deltas


def _parse_deltas(text):
    return _deltas([t for t in text.split(",") if t.strip()], "--delta")


def _section(doc, name):
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"the {name!r} section must be an object, got {section!r}")
    return section


def _mc_setting(section, key, default, kinds):
    """``section[key]`` if it is one of ``kinds`` (never a bool), else ConfigError."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"mc.{key} has the wrong type: {value!r}")
    return value


def _load_spec_and_doc(args):
    """Problem plus the raw config document (for the experiment and mc sections)."""
    if args.preset and args.config:
        raise JumplabError("pass either --preset or --config, not both")
    if args.preset:
        return preset(args.preset), {}
    if args.config:
        doc = load_config(args.config)
        return build_problem(doc), doc
    raise JumplabError("a problem is required: --preset NAME or --config FILE")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _problem_on_grid(args):
    """The validated problem, the first --delta, and the grid that resolves it."""
    spec, _ = _load_spec_and_doc(args)
    spec.validate()
    delta = _parse_deltas(args.delta)[0]
    n = args.grid_n or fdm.suggest_resolution(spec.domain, delta, spec.coeffs, factor=0.03)
    angular = {} if args.grid_angular is None else {"n_angular": args.grid_angular}
    return spec, delta, fdm.build_grid(spec.domain, n, **angular)


def cmd_theory(args):
    spec, _ = _load_spec_and_doc(args)
    report = experiments.theory_report(spec)
    out = _outdir(args)
    experiments.write_summary_json(report, out / "theory.json")
    if args.format == "csv":
        density = report["density"]
        rows = zip(density["nodes"], density["weights"], density["values"])
        header = [f"x{i}" for i in range(spec.domain.dim)] + ["weight", "value"]
        write_csv(out / "theory_density.csv", header, ([*x, w, v] for x, w, v in rows))
    print(f"k={report['k']} exponent={report['exponent']} "
          f"phi0={report['phi0']:.8f} C_eig={report['C_eig']:.8f}")
    return 0


def cmd_solve(args):
    spec, delta, grid = _problem_on_grid(args)
    if args.quantity == "u":
        sol = fdm.solve_no_jump_prob(delta, spec.coeffs, grid)
    else:
        sol = fdm.solve_exit_functional(delta, spec.coeffs, grid)
    out = _outdir(args)
    sol.to_csv(out / f"{args.quantity}_grid.csv")
    x0 = spec.start_point()
    summary = {"delta": delta, "quantity": args.quantity, "n_nodes": grid.n_nodes,
               "value_at_x0": sol.at(x0), "x0": np.asarray(x0).tolist()}
    experiments.write_summary_json(summary, out / "solve.json")
    print(f"{args.quantity}(x0) = {summary['value_at_x0']:.10f} "
          f"(delta={delta:g}, {grid.n_nodes} nodes)")
    return 0


def cmd_eigen(args):
    spec, delta, grid = _problem_on_grid(args)
    res = fdm.principal_eigenvalue(delta, spec.coeffs, grid)
    out = _outdir(args)
    experiments.write_summary_json({"delta": delta, "lambda0": res.lambda0,
                                    "iterations": res.iterations,
                                    "residual": res.residual, "n_nodes": grid.n_nodes},
                                   out / "eigen.json")
    if args.format == "csv":
        res.eigenfunction.to_csv(out / "eigenfunction.csv")
    print(f"lambda0 = {res.lambda0:.10e} ({res.iterations} iterations, "
          f"residual {res.residual:.2e})")
    return 0


def cmd_mc(args):
    spec, doc = _load_spec_and_doc(args)
    spec.validate()
    section = _section(doc, "mc")
    delta = _parse_deltas(args.delta)[0]
    number = (int, float)
    dt = args.dt if args.dt is not None else _mc_setting(section, "dt", 1e-3, number)
    paths = args.paths if args.paths is not None \
        else _mc_setting(section, "paths", 10000, int)
    exit_mode = args.exit_mode if args.exit_mode is not None \
        else _mc_setting(section, "exit_mode", "first-crossing", str)
    horizon = args.horizon if args.horizon is not None \
        else _mc_setting(section, "horizon", None, number + (type(None),))
    cfg = mc.SimConfig(delta=delta, dt=dt, n_paths=paths, seed=args.seed,
                       exit_mode=exit_mode, horizon=horizon,
                       chunk_size=_mc_setting(section, "chunk_size", 32768, int))
    edges = mc.bin_edges(spec.domain, args.bins if args.bins is not None
                         else (2 if spec.domain.dim == 1 else 36))
    ens = mc.simulate_ensemble(spec.coeffs, spec.domain, cfg, x0=spec.start_point(),
                               workers=args.workers)
    est = mc.exit_law_summary(ens, spec.coeffs, spec.domain, cfg, bins=edges)
    out = _outdir(args)
    payload = {
        "delta": delta, "dt": dt, "n_paths": paths, "seed": args.seed,
        "exit_mode": exit_mode,
        "histogram": {"edges": est.bin_edges.tolist(), "probs": est.bin_probs.tolist()},
        "mean_f": est.mean_f, "stderr_f": est.stderr_f, "mean_jumps": est.mean_jumps,
        "survival": {"t": est.survival_times.tolist(), "p": est.survival_probs.tolist()},
        "n_censored": est.n_censored,
    }
    experiments.write_summary_json(payload, out / "mc.json")
    if args.save_paths:
        ens.to_csv(out / "paths.csv")
    print(f"mean f = {est.mean_f:.6f} +/- {est.stderr_f:.2e} "
          f"(jumps/path {est.mean_jumps:.2f}, censored {est.n_censored})")
    return 0


def cmd_sweep(args):
    spec, doc = _load_spec_and_doc(args)
    section = _section(doc, "experiment")
    if args.delta:
        deltas = _parse_deltas(args.delta)
    elif "deltas" in section:
        deltas = _deltas(section["deltas"], "experiment.deltas")
    else:
        deltas = list(experiments.DEFAULT_DELTAS)
    kind = args.experiment if args.experiment is not None else section.get("kind")
    if kind is None:
        raise JumplabError("an experiment is required: --experiment or the config's "
                           "experiment.kind")
    if kind == "exit-law":
        result = experiments.run_exit_law_experiment(spec, deltas, workers=args.workers)
    elif kind == "eigenvalue":
        result = experiments.run_eigenvalue_scaling_experiment(spec, deltas)
    elif kind == "flux":
        result = experiments.run_boundary_flux_experiment(spec, deltas)
    elif kind == "decay":
        result = experiments.run_interior_decay_experiment(spec, deltas)
    else:
        raise JumplabError(f"unknown experiment {kind!r}")
    out = _outdir(args)
    experiments.write_rows_csv(result.rows, out / f"{result.name}.csv")
    experiments.write_summary_json(result, out / f"{result.name}.json")
    for c in result.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return 0 if result.passed else 1


def cmd_probe(args):
    try:
        ms = [int(t) for t in args.m.split(",")]
    except ValueError:
        raise ConfigError(f"--m must list integer orders, got {args.m!r}") from None
    deltas = _parse_deltas(args.delta) if args.delta else list(experiments.DEFAULT_DELTAS)
    results, summary = experiments.run_probe_suite(
        lambda m: preset(f"probe-Vm{m}"), ms=ms, deltas=deltas)
    out = _outdir(args)
    for m, res in results.items():
        experiments.write_rows_csv(res.rows, out / f"probe_m{m}.csv")
    keys = ("alpha", "exponent_limit", "exponent_limit_band")
    payload = {str(m): {k: results[m].meta[k] for k in keys} for m in results}
    payload["summary"] = summary  # json writes the integer orders as string keys
    experiments.write_summary_json(payload, out / "probe.json")
    for m in ms:
        meta = results[m].meta
        print(f"m={m}: alpha = {meta['alpha']:.4f}  delta->0 limit "
              f"{meta['exponent_limit']:.4f} +/- {meta['exponent_limit_band']:.1e}")
    if "ordering_alpha1_lt_alpha3" in summary:
        print(f"alpha(1) < alpha(3): {summary['ordering_alpha1_lt_alpha3']}")
    return 0


def cmd_validate(args):
    spec, _ = _load_spec_and_doc(args)
    try:
        report, vreport = spec.validate()
    except JumplabError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"PASS: k={vreport.k} (order-k boundary quantity max {vreport.order_k_max:.4g}, "
          f"tol {vreport.tol:.2e})")
    if report["reduced_accuracy"]:
        print("note: black-box fields present; derivatives are finite-difference "
              "approximations (reduced accuracy)")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="jumplab",
                                description="Exit laws and decay-rate scaling of "
                                            "small-diffusion processes with random jumps")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags its cmd_* reads
    def problem(sp):
        sp.add_argument("--preset", choices=PRESET_NAMES, help="named problem preset")
        sp.add_argument("--config", help="JSON problem configuration")

    def output(sp):
        sp.add_argument("--out", default="out", help="output directory")

    def fmt(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="json")

    def grid(sp):
        sp.add_argument("--grid-n", type=int,
                        help="nodes per axis (default: resolve the boundary layer)")
        sp.add_argument("--grid-angular", type=int,
                        help="angular nodes of disk and annulus grids")

    def workers(sp):
        sp.add_argument("--workers", type=int, default=1,
                        help="processes that Monte Carlo chunks are spread over")

    def command(name, fn, summary, *options):
        sp = sub.add_parser(name, help=summary)
        for add in options:
            add(sp)
        sp.set_defaults(fn=fn)
        return sp

    command("theory", cmd_theory, "closed-form limit quantities", problem, output, fmt)

    sp = command("solve", cmd_solve, "nonlocal Dirichlet / no-jump solves",
                 problem, output, grid)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--quantity", choices=("phi", "u"), default="phi")

    sp = command("eigen", cmd_eigen, "principal decay rate", problem, output, fmt, grid)
    sp.add_argument("--delta", required=True)

    sp = command("mc", cmd_mc, "Monte Carlo exit-law estimate", problem, output, workers)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--paths", type=int)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--exit-mode", choices=("first-crossing", "bridge-1d"))
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--bins", type=int)
    sp.add_argument("--save-paths", action="store_true")

    sp = command("sweep", cmd_sweep, "delta sweeps with fits and checks",
                 problem, output, workers)
    sp.add_argument("--experiment", choices=("exit-law", "eigenvalue", "flux", "decay"))
    sp.add_argument("--delta", help="comma-separated list")

    sp = command("probe", cmd_probe, "vanishing-intensity decay-order probe", output)
    sp.add_argument("--m", default="1,2,3", help="comma-separated vanishing orders")
    sp.add_argument("--delta", help="comma-separated list")

    command("validate", cmd_validate, "coefficient and vanishing-order checks", problem)
    return p


def _check_counts(args):
    """ConfigError where --grid-n is below 3 or --workers below 1."""
    for flag, least in (("grid_n", 3), ("workers", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except JumplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
