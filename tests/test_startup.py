"""Start-up: what a fresh interpreter loads, and that the first FDM solve still
works when scipy is imported only at the first local-solver set-up."""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import jumplab
from jumplab import (CoefficientSet, Domain, MatrixField, PolyField, VectorField, const, fdm,
                     preset)

SRC = str(Path(jumplab.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)


def _fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports jumplab from this
    tree and this test module from its directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                          env=env, timeout=300).stdout


def _scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def _no_fdm_work(out_dir):
    """Import the package and its CLI, then validate, evaluate the theory, run the
    CLI's theory command and simulate a 2D first-crossing and a 1D bridge
    ensemble; the scipy modules loaded by then."""
    import jumplab.cli
    from jumplab import experiments, mc, theory
    disk, interval = preset("disk-k0-radial"), preset("interval-k0-asym")
    for spec in (disk, interval):
        spec.validate()
        theory.evaluate(spec.coeffs, *experiments.theory_quadratures(spec.domain))
    assert jumplab.cli.main(["theory", "--preset", "annulus-flux", "--out", out_dir]) == 0
    for spec, mode in ((disk, "first-crossing"), (interval, "bridge-1d")):
        cfg = mc.SimConfig(delta=0.05, dt=1e-3, n_paths=50, seed=3, exit_mode=mode)
        mc.simulate_ensemble(spec.coeffs, spec.domain, cfg)
    return _scipy_modules()


def test_monte_carlo_theory_and_validation_load_no_scipy(tmp_path):
    out = _fresh("import json, test_startup as t; "
                 f"print(json.dumps(t._no_fdm_work({str(tmp_path / 'theory')!r})))")
    assert json.loads(out.splitlines()[-1]) == []  # the CLI prints its report before


def _first_solves():
    """A 1D no-jump probability, a separable 2D eigenvalue and a 2D exit functional
    on the sparse LU path (a cross term a12), as raw arrays; scipy loads here."""
    interval, disk = preset("interval-k0-asym"), preset("disk-k0-radial")
    a12 = PolyField.from_dict(2, {(1, 1): 0.2})
    coeffs = CoefficientSet(  # the rectangle-a12 solver case of test_fdm
        diffusion=MatrixField(((const(2, 1.0), a12), (a12, const(2, 1.5)))),
        drift=VectorField.constant((0.0, 0.0)), intensity=const(2, 1.0),
        redistribution=const(2, 0.5), boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),
        vanishing_order=0)
    rect = fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 2.0), (21, 31))
    assert fdm._SeparableSolver.of(fdm.assemble_operator(0.05, coeffs, rect)) is None
    eig = fdm.principal_eigenvalue(0.05, disk.coeffs, fdm.build_grid(disk.domain, 41, 32))
    return {
        "no-jump-1d": fdm.solve_no_jump_prob(
            0.05, interval.coeffs, fdm.build_grid(interval.domain, 101)).values,
        "eigen-2d-separable": np.append(eig.eigenfunction.values, eig.lambda0),
        "exit-2d-lu": fdm.solve_exit_functional(0.05, coeffs, rect).values,
    }


def test_first_solves_in_a_fresh_interpreter_are_bit_equal():
    fresh = pickle.loads(_fresh(
        "import pickle, sys, test_startup as t; "
        "assert not t._scipy_modules(); "
        "sys.stdout.buffer.write(pickle.dumps(t._first_solves()))"))
    here = _first_solves()
    assert sorted(fresh) == sorted(here)
    for name, values in here.items():
        assert np.array_equal(fresh[name].view(np.uint64), values.view(np.uint64)), name
