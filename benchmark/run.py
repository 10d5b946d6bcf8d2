#!/usr/bin/env python3
"""Run one benchmark workload of jumplab and print its metrics.

    python3 benchmark/run.py --workload fdm-2d --seed 1 --seconds 25 --trace 0

The workload (see workloads.py and README.md) is built from the seed, then
its round of operations is repeated, one process and one worker, until the
next round would end after ``--seconds``.  Each operation's output is checked
against a reference computed without jumplab.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the rounds run under the span tracer of spans.py, the metrics
are the per-layer ones and the spans are written to benchmark/out/.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-ups timed in fresh interpreters, besides the run's own; setup_s is the median.
SETUP_PROBES = 4


def set_up(workload, seed):
    """Import jumplab from this checkout and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import jumplab
    if Path(jumplab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"jumplab was imported from {jumplab.__file__}, not from {SRC}")
    import workloads
    built = workloads.WORKLOADS[workload](seed)
    return built, time.perf_counter() - start


def probe_set_up(workload, seed):
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                          "--setup-probe"], capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def run_op(op):
    """The operation's output, or None if it raised (the traceback goes to stderr)."""
    try:
        return op.call()
    except Exception:
        print(f"operation {op.name!r} raised:", file=sys.stderr)
        traceback.print_exc()
        return None


def run_rounds(ops, seconds, tracer=None):
    """Repeat the round until the next one would end after ``seconds``; at least one round.

    Returns a list of (wall seconds, CPU seconds of all threads, outputs).
    """
    rounds = []
    start = time.perf_counter()
    while True:
        wall, cpu = time.perf_counter(), time.process_time()
        if tracer is None:
            outputs = [run_op(op) for op in ops]
        else:
            with tracer.span("round"):
                outputs = []
                for op in ops:
                    with tracer.span("op: " + op.name):
                        outputs.append(run_op(op))
        rounds.append((time.perf_counter() - wall, time.process_time() - cpu, outputs))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def check_rounds(ops, rounds, refs):
    """Count failed operations and say whether every round repeated the first one's outputs."""
    failed = 0
    for _, _, outputs in rounds:
        for op, out in zip(ops, outputs):
            problems = ["raised"] if out is None else op.check(out, refs)
            failed += bool(problems)
            for p in problems:
                print(f"FAILED {op.name}: {p}")
    first = rounds[0][2]
    repeat = all(outputs == first for _, _, outputs in rounds[1:])
    if not repeat:
        print("NOT REPRODUCED: a later round's outputs differ from the first round's")
    return failed, repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc-interval-const", "mc-asym-disk", "fdm-2d", "sweeps-1d"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print its seconds (used by the run itself)")
    args = ap.parse_args(argv)

    try:
        workload, setup_own = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import jumplab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    refs = workload.references()
    ops = workload.ops()
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            rounds = run_rounds(ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
        sampler = spans.sampler_probe(workload.presets, args.seed)
        metrics = {name: (value, spans.UNITS[name]) for name, value in
                   spans.layer_metrics(tracer, sampler).items()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"traced wall per round {statistics.median(r[0] for r in rounds):.4f} s; "
              f"layer spans cover {spans.coverage(tracer):.1%} of it; spans in {path}")
    else:
        setups = [setup_own] + [probe_set_up(args.workload, args.seed)
                                for _ in range(SETUP_PROBES)]
        rounds = run_rounds(ops, args.seconds)
        metrics = {
            "wall_s": (statistics.median(r[0] for r in rounds), "s"),
            "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failed, repeat = check_rounds(ops, rounds, refs)
    walls = [r[0] for r in rounds]
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations, {failed} failed; "
          f"round wall time min {min(walls):.4f} s, max {max(walls):.4f} s")
    print(json.dumps({"correct": repeat, "attempted": len(ops) * len(rounds), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
