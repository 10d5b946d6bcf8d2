"""Spans around jumplab's public functions, recorded from outside the package.

``Tracer.install()`` replaces the functions and methods listed in ``LAYERS``
by wrappers that record a span (name, start, end, parent) in memory; the
package itself is not changed on disk, and ``uninstall()`` puts the originals
back.  Calls inside jumplab go through module attributes, so a wrapped
function is traced wherever it is called from.  A layer's self time is its
spans' durations minus the part covered by their child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from jumplab import experiments, fdm, fitting, mc, presets, theory


def _ensemble_counts(args, result):
    """Paths, nominal steps (sum of exit_time/dt) and lockstep span.

    The lockstep span sums, over chunks, the nominal steps of the chunk's longest path.
    """
    cfg = args["cfg"]
    steps = np.rint(result.exit_times / cfg.dt).astype(np.int64)
    chunks = range(0, len(steps), cfg.chunk_size)
    return {"paths": len(steps), "nominal_steps": int(steps.sum()),
            "lockstep_span": int(sum(steps[c:c + cfg.chunk_size].max() for c in chunks))}


def _unknowns(args, result):
    return {"unknowns": len(args["grid"].interior)}


def _eigen_counts(args, result):
    return {"unknowns": len(args["grid"].interior), "iterations": result.iterations}


def _factor_nnz(args, result):
    lu = getattr(getattr(args["self"], "local", None), "lu", None)
    return {"lu_nnz": int(lu.nnz) if lu is not None else 0}


# (owner, attribute, span name, counts taken from the bound arguments and result)
LAYERS = [
    (mc, "simulate_ensemble", "mc.simulate_ensemble", _ensemble_counts),
    (mc, "estimate_exit_law", "mc.estimate_exit_law", None),
    (mc, "exit_before_jump_probability", "mc.exit_before_jump_probability", None),
    (fdm, "suggest_resolution", "fdm.suggest_resolution", None),
    (fdm, "build_grid", "fdm.build_grid", None),
    (fdm, "assemble_local", "fdm.assemble_local", None),
    (fdm, "assemble_operator", "fdm.assemble_operator", None),
    (fdm.RankOneSolver, "__init__", "fdm.RankOneSolver.__init__", _factor_nnz),
    (fdm.RankOneSolver, "solve", "fdm.RankOneSolver.solve", None),
    (fdm, "principal_eigenvalue", "fdm.principal_eigenvalue", _eigen_counts),
    (fdm, "solve_no_jump_prob", "fdm.solve_no_jump_prob", _unknowns),
    (fdm, "solve_exit_functional", "fdm.solve_exit_functional", _unknowns),
    (fdm, "boundary_flux", "fdm.boundary_flux", None),
    (presets.ProblemSpec, "validate", "presets.ProblemSpec.validate", None),
    (theory, "limit_exit_density", "theory.limit_exit_density", None),
    (theory, "decay_rate_prefactor", "theory.decay_rate_prefactor", None),
    (theory, "evaluate", "theory.evaluate", None),
    (fitting, "fit_power_law", "fitting.fit_power_law", None),
    (experiments, "fit_power_law", "fitting.fit_power_law", None),  # imported by name
    (experiments, "run_exit_law_experiment", "experiments.run_exit_law_experiment", None),
    (experiments, "run_eigenvalue_scaling_experiment",
     "experiments.run_eigenvalue_scaling_experiment", None),
    (experiments, "run_boundary_flux_experiment",
     "experiments.run_boundary_flux_experiment", None),
    (experiments, "run_interior_decay_experiment",
     "experiments.run_interior_decay_experiment", None),
    (experiments, "run_vanishing_intensity_probe",
     "experiments.run_vanishing_intensity_probe", None),
    (experiments, "run_probe_suite", "experiments.run_probe_suite", None),
    (experiments, "discrete_no_jump_mass", "experiments.discrete_no_jump_mass", None),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._originals = []

    @contextmanager
    def span(self, name):
        s = Span(len(self.spans), name, self._open[-1] if self._open else None,
                 time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, original, name, counts):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if counts is not None:  # outside the span, so it costs the layer nothing
                s.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self):
        for owner, attr, name, counts in LAYERS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# per-layer metric: span names whose self time it sums
SELF_TIME = {
    "mc.ensemble_s": ["mc.simulate_ensemble"],
    "mc.estimate_self_s": ["mc.estimate_exit_law", "mc.exit_before_jump_probability"],
    "fdm.grid_s": ["fdm.suggest_resolution", "fdm.build_grid"],
    "fdm.assemble_s": ["fdm.assemble_local", "fdm.assemble_operator"],
    "fdm.factor_s": ["fdm.RankOneSolver.__init__"],
    "fdm.eigen_self_s": ["fdm.principal_eigenvalue"],
    "fdm.dirichlet_s": ["fdm.solve_no_jump_prob", "fdm.solve_exit_functional"],
    "fdm.flux_s": ["fdm.boundary_flux"],
    "presets.validate_s": ["presets.ProblemSpec.validate"],
    "theory.evaluate_s": ["theory.limit_exit_density", "theory.decay_rate_prefactor",
                          "theory.evaluate"],
    "fitting.fit_s": ["fitting.fit_power_law"],
    "experiments.self_s": ["experiments.run_exit_law_experiment",
                           "experiments.run_eigenvalue_scaling_experiment",
                           "experiments.run_boundary_flux_experiment",
                           "experiments.run_interior_decay_experiment",
                           "experiments.run_vanishing_intensity_probe",
                           "experiments.run_probe_suite", "experiments.discrete_no_jump_mass"],
}

UNITS = {
    "mc.ensemble_s": "s", "mc.paths_per_s": "1/s", "mc.nominal_steps": "count",
    "mc.ns_per_nominal_step": "ns", "mc.lockstep_span": "count", "mc.estimate_self_s": "s",
    "mc.sampler_ns_per_draw": "ns", "mc.sampler_acceptance": "ratio",
    "fdm.grid_s": "s", "fdm.assemble_s": "s", "fdm.factor_s": "s", "fdm.lu_nnz": "count",
    "fdm.unknowns": "count", "fdm.solve_ms": "ms", "fdm.eigen_s": "s",
    "fdm.eigen_iterations": "count", "fdm.eigen_self_s": "s", "fdm.dirichlet_s": "s",
    "fdm.flux_s": "s", "presets.validate_s": "s", "theory.evaluate_s": "s",
    "fitting.fit_s": "s", "experiments.run_s": "s", "experiments.self_s": "s",
}

LAYER_NAMES = {n for _, _, n, _ in LAYERS}


class SpanTree:
    """The spans under a set of root spans, with their self times."""

    def __init__(self, spans, roots):
        self.children = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
        self.spans = []
        stack = list(roots)
        while stack:
            s = stack.pop()
            self.spans.append(s)
            stack.extend(self.children.get(s.id, []))

    def self_time(self, s):
        return s.duration - sum(c.duration for c in self.children.get(s.id, []))

    def named(self, names):
        return [s for s in self.spans if s.name in names]

    def outermost(self, names, roots):
        """Spans named in ``names`` with no ancestor named in ``names``, below ``roots``."""
        found, stack = [], list(roots)
        while stack:
            s = stack.pop()
            if s.name in names:
                found.append(s)
            else:
                stack.extend(self.children.get(s.id, []))
        return found


def layer_metrics(tracer, sampler):
    """Every per-layer metric, per round of the traced run (see README.md)."""
    roots = [s for s in tracer.spans if s.name == "round"]
    tree = SpanTree(tracer.spans, roots)
    n = len(roots)
    m = {name: sum(tree.self_time(s) for s in tree.named(set(names))) / n
         for name, names in SELF_TIME.items()}

    ensembles = tree.named({"mc.simulate_ensemble"})
    ens_time = sum(tree.self_time(s) for s in ensembles)
    paths = sum(s.counts["paths"] for s in ensembles)
    steps = sum(s.counts["nominal_steps"] for s in ensembles)
    m["mc.paths_per_s"] = paths / ens_time if ens_time else 0.0
    m["mc.nominal_steps"] = steps // n
    m["mc.ns_per_nominal_step"] = 1e9 * ens_time / steps if steps else 0.0
    m["mc.lockstep_span"] = sum(s.counts["lockstep_span"] for s in ensembles) // n
    m["mc.sampler_ns_per_draw"], m["mc.sampler_acceptance"] = sampler

    factors = tree.named({"fdm.RankOneSolver.__init__"})
    m["fdm.lu_nnz"] = sum(s.counts["lu_nnz"] for s in factors) // n
    solves = ("fdm.principal_eigenvalue", "fdm.solve_no_jump_prob", "fdm.solve_exit_functional")
    m["fdm.unknowns"] = sum(s.counts["unknowns"] for s in tree.outermost(set(solves), roots)) // n
    one_solve = [s.duration for s in tree.named({"fdm.RankOneSolver.solve"})]
    m["fdm.solve_ms"] = 1e3 * statistics.median(one_solve) if one_solve else 0.0
    eigen = tree.named({"fdm.principal_eigenvalue"})
    m["fdm.eigen_s"] = sum(s.duration for s in eigen) / n
    m["fdm.eigen_iterations"] = sum(s.counts["iterations"] for s in eigen) // n
    runs = tree.outermost(set(SELF_TIME["experiments.self_s"]), roots)
    m["experiments.run_s"] = sum(s.duration for s in runs) / n
    return {name: m[name] for name in UNITS}


def coverage(tracer):
    """Share of the traced rounds' wall time spent inside jumplab's layer spans."""
    roots = [s for s in tracer.spans if s.name == "round"]
    tree = SpanTree(tracer.spans, roots)
    inside = sum(s.duration for s in tree.outermost(LAYER_NAMES, roots))
    return inside / sum(s.duration for s in roots)


SAMPLER_DRAWS = 100_000
SAMPLER_REPEATS = 9


def sampler_probe(specs, seed):
    """MuSampler.draw time per point on batches from each preset's mu, and its acceptance.

    Returns the median ns per point over all presets and repeats, and the mean
    over presets of 1 / (sampler bound x bounding-box volume).
    """
    ns, acceptance = [], []
    for spec in specs:
        sampler = mc.MuSampler(spec.coeffs, spec.domain)
        lo, hi = spec.domain.bounding_box
        acceptance.append(1.0 / (sampler.bound * float(np.prod(np.asarray(hi) - np.asarray(lo)))))
        rng = np.random.default_rng(seed)
        for _ in range(SAMPLER_REPEATS):
            t = time.perf_counter()
            sampler.draw(rng, SAMPLER_DRAWS)
            ns.append(1e9 * (time.perf_counter() - t) / SAMPLER_DRAWS)
    return statistics.median(ns), statistics.fmean(acceptance)
