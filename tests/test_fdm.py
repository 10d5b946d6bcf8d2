import dataclasses
import math
import os
import time
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg

from jumplab import (CoefficientSet, Domain, MatrixField, PolyField, SolverError,
                     ValidationError, VectorField, const, apply_generator, preset)
from jumplab import experiments, fdm
from jumplab.reductions import dot


def coeffs_1d(a=None, b=None, V=None, mu=None, k=0):
    return CoefficientSet(
        diffusion=MatrixField.isotropic(1, a if a is not None else const(1, 1.0)),
        drift=VectorField((b,)) if b is not None else VectorField.zero(1),
        intensity=V if V is not None else const(1, 1.0),
        redistribution=mu if mu is not None else const(1, 1.0),
        boundary_data=PolyField.from_dict(1, {(1,): 1.0}),
        vanishing_order=k)


def test_local_stencil_rows_constant_coefficients():
    c = coeffs_1d()
    grid = fdm.build_grid(c_dom := preset("interval-k0-uniform").domain, 11)
    delta = 1.0
    A, B = fdm.assemble_local(delta, c, grid, allow_coarse=True)
    h = grid.spacing[0]
    row = A[3].toarray().ravel()
    assert row[2] == pytest.approx(0.5 * delta / h**2)
    assert row[4] == pytest.approx(0.5 * delta / h**2)
    assert row[3] == pytest.approx(-delta / h**2 - 1.0)  # -V on the diagonal


def test_local_operator_exact_on_quadratics():
    c = coeffs_1d()
    grid = fdm.build_grid(preset("interval-k0-uniform").domain, 41)
    delta = 0.3
    A, B = fdm.assemble_local(delta, c, grid, allow_coarse=True)
    x = grid.points[:, 0]
    phi_i = x[grid.interior] ** 2
    phi_b = x[grid.boundary] ** 2
    out = A @ phi_i + B @ phi_b
    # delta * (1/2) * 2 - V * x^2, exactly (second-order stencil on a quadratic)
    assert np.allclose(out, delta - x[grid.interior] ** 2, atol=1e-12)


@pytest.mark.parametrize("u,exact", [
    (lambda x, y: x**2, lambda x, y, a, b: a[0][0] + 2 * b[0] * x),
    (lambda x, y: x * y, lambda x, y, a, b: a[0][1] + b[0] * y + b[1] * x),
    (lambda x, y: y**2, lambda x, y, a, b: a[1][1] + 2 * b[1] * y),
], ids=["x^2", "xy", "y^2"])
def test_rectangle_operator_exact_on_quadratics_with_cross_term_and_drift(u, exact):
    a = ((1.0, 0.3), (0.3, 1.5))
    b = (0.5, -0.7)
    c = CoefficientSet(
        diffusion=MatrixField(tuple(tuple(const(2, e) for e in row) for row in a)),
        drift=VectorField.constant(b), intensity=PolyField.from_dict(2, {(0, 0): 1.0, (1, 0): 1.0}),
        redistribution=const(2, 0.5), boundary_data=const(2, 0.0), vanishing_order=0)
    grid = fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 2.0), (21, 31))
    delta = 0.3
    A, B = fdm.assemble_local(delta, c, grid, allow_coarse=True)
    x, y = grid.points.T
    out = A @ u(x, y)[grid.interior] + B @ u(x, y)[grid.boundary]
    xi, yi = x[grid.interior], y[grid.interior]
    # delta * (1/2 tr(a hess u) + b . grad u) - V u, exactly on a quadratic
    target = delta * exact(xi, yi, a, b) - (1.0 + xi) * u(xi, yi)
    assert np.allclose(out, target, rtol=0, atol=1e-10)


def test_annulus_operator_exact_on_r_squared():
    spec = preset("annulus-flux")
    grid = fdm.build_grid(spec.domain, 41, n_angular=16)
    delta = 0.3
    A, B = fdm.assemble_local(delta, spec.coeffs, grid, allow_coarse=True)
    r2 = np.sum((grid.points - spec.domain.origin) ** 2, axis=1)
    out = A @ r2[grid.interior] + B @ r2[grid.boundary]
    V = spec.coeffs.intensity.eval(grid.points[grid.interior])
    assert np.allclose(out, 2 * delta - V * r2[grid.interior], rtol=0, atol=1e-10)


def test_local_operator_matches_field_operator():
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 1.0})
    c = coeffs_1d(a=a)
    grid = fdm.build_grid(preset("interval-k0-uniform").domain, 201)
    delta = 1.0
    A, B = fdm.assemble_local(delta, c, grid, allow_coarse=True)
    x = grid.points[:, 0]
    out = A @ x[grid.interior] + B @ x[grid.boundary]
    exact = apply_generator(c, PolyField.from_dict(1, {(1,): 1.0}))
    target = delta * exact.eval(grid.points[grid.interior]) - x[grid.interior]
    h = grid.spacing[0]
    assert np.max(np.abs(out - target)) <= 5 * h**2


def test_no_jump_solution_matches_cosh_oracle():
    spec = preset("interval-k0-uniform")
    delta = 1e-3
    errs = []
    for n in (501, 1001):
        grid = fdm.build_grid(spec.domain, n)
        u = fdm.solve_no_jump_prob(delta, spec.coeffs, grid)
        r = math.sqrt(2.0 / delta)
        x = grid.points[:, 0]
        exact = np.cosh(r * (x - 0.5)) / np.cosh(r / 2)
        errs.append(np.max(np.abs(u.values - exact)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8
    assert errs[1] <= 1e-4


def test_no_jump_solution_in_unit_range_and_monotone_in_intensity():
    spec = preset("interval-k0-uniform")
    delta = 1e-2
    grid = fdm.build_grid(spec.domain, 501)
    u1 = fdm.solve_no_jump_prob(delta, spec.coeffs, grid)
    assert np.all(u1.values > 0) and np.all(u1.values <= 1.0)
    u2 = fdm.solve_no_jump_prob(delta, coeffs_1d(V=const(1, 2.0)), grid)
    assert np.all(u2.values[grid.interior] < u1.values[grid.interior])


def test_dirichlet_constant_data_gives_constant_solution():
    spec = preset("interval-k0-asym")
    grid = fdm.build_grid(spec.domain, 801)
    phi = fdm.solve_exit_functional(1e-3, spec.coeffs, grid, f=const(1, 1.0))
    assert np.max(np.abs(phi.values - 1.0)) <= 1e-11


def test_dirichlet_respects_boundary_range():
    spec = preset("interval-k0-asym")
    grid = fdm.build_grid(spec.domain, 801)
    phi = fdm.solve_exit_functional(1e-3, spec.coeffs, grid)
    h = grid.spacing[0]
    fb = spec.coeffs.boundary_data.eval(grid.points[grid.boundary])
    assert np.all(phi.values >= fb.min() - 10 * h**2)
    assert np.all(phi.values <= fb.max() + 10 * h**2)


def test_rank_one_solver_matches_dense():
    spec = preset("interval-k0-asym")
    grid = fdm.build_grid(spec.domain, 50, )
    op = fdm.assemble_operator(2e-3, spec.coeffs, grid, allow_coarse=True)
    fb = spec.coeffs.boundary_data.eval(grid.points[grid.boundary])
    rhs = -(op.B_bc @ fb) - op.v * (op.w_boundary @ fb)
    solver = fdm.RankOneSolver(op)
    x_fast = solver.solve(rhs)
    dense = op.A_loc.toarray() + np.outer(op.v, op.w_interior)
    x_dense = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x_fast - x_dense)) <= 1e-10


def _thomas_sherman_morrison(op, rhs):
    """(A + v w^T)^{-1} rhs and 1 + w . A^{-1} v for a tridiagonal A, in long double."""
    A, ld = op.A_loc.tocsr(), np.longdouble
    lower = np.concatenate([[0], A.diagonal(-1)]).astype(ld)
    diag, upper = A.diagonal().astype(ld), np.append(A.diagonal(1), 0).astype(ld)
    b = np.stack([np.asarray(op.v, ld), np.asarray(rhs, ld)], axis=1)
    n = len(diag)
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        b[i] -= m * b[i - 1]
    x = np.empty_like(b)
    x[-1] = b[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - upper[i] * x[i + 1]) / diag[i]
    z, y = x.T
    w = np.asarray(op.w_interior, ld)
    denom = 1 + np.sum(w * z)
    return y - z * (np.sum(w * y) / denom), denom


def test_rank_one_solve_is_exact_at_a_tiny_denominator():
    """At k = 2, delta = 1e-5 the no-jump mass 1 + w . A^{-1} v is about 1e-6:
    the rank-one solve and its denominator stay within 1e-10 of a long-double
    reference on the same float64 matrices, where 1 + w . A^{-1} v summed in
    float64 misses by more than 1e-9."""
    spec = preset("interval-k2-quartic")
    grid = fdm.build_grid(spec.domain, 2001)
    op = fdm.assemble_operator(1e-5, spec.coeffs, grid)
    fb = spec.coeffs.boundary_data.eval(grid.points[grid.boundary])
    rhs = -(op.B_bc @ fb) - op.v * (op.w_boundary @ fb)
    solver = fdm.RankOneSolver(op)
    assert isinstance(solver.local, fdm._SeparableSolver)
    x_ref, denom_ref = _thomas_sherman_morrison(op, rhs)
    assert denom_ref < 1e-5
    assert float(abs(solver.denom - denom_ref) / denom_ref) <= 1e-10
    x = solver.solve(rhs)
    assert float(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref))) <= 1e-10


def test_singular_factor_is_a_solver_error():
    grid = fdm.build_grid(Domain.interval(0.0, 1.0), 4)
    op = fdm.assemble_operator(1.0, coeffs_1d(), grid)
    # entries of length 1 broadcast over the 2-node interior, as a constant's do
    zero = dataclasses.replace(op, stencil={o: np.zeros(1) for o in op.stencil})
    with pytest.raises(SolverError, match="singular"):
        fdm._SeparableSolver.of(zero)


@pytest.mark.parametrize("name,n,n_angular", [
    ("square-k0-uniform", 101, None), ("disk-k0-radial", 101, 64), ("annulus-flux", 101, 64)])
def test_lu_ordering_cuts_fill(name, n, n_angular):
    """The LU in the grid's nested-dissection order P fills at most 3/4 of what
    COLAMD makes of the same matrix P A P^T (COLAMD's ties depend on the order
    it is given)."""
    spec = preset(name)
    grid = fdm.build_grid(spec.domain, n, n_angular)
    op = fdm.assemble_operator(1e-2, spec.coeffs, grid, allow_coarse=True)
    local = fdm._LocalSolver(op)
    order = local.order
    assert np.array_equal(grid.interior[order], _nested_dissection_reference(grid))
    colamd = scipy.sparse.linalg.splu(op.A_loc[order][:, order].tocsc(), permc_spec="COLAMD")
    assert local.lu.nnz <= 0.75 * colamd.nnz
    rhs = -(op.B_bc @ spec.coeffs.boundary_data.eval(grid.points[grid.boundary]))
    x = local.solve(rhs)[order]
    x_colamd = colamd.solve(rhs[order])
    assert np.max(np.abs(x - x_colamd)) <= 1e-12 * np.max(np.abs(x_colamd))


def _nested_dissection_reference(grid):
    """The flat ids of a 2D interior in the sparse LU's documented order, one
    Python call per block."""
    width = grid.shape[1]
    rows, cols = (list(range(int(0 in ends), m - int(-1 in ends)))
                  for m, ends in zip(grid.shape, grid.dirichlet))

    def box(rows, cols):
        if min(len(rows), len(cols)) < fdm.ND_MIN_WIDTH:
            return [r * width + c for r in rows for c in cols]
        if len(rows) >= len(cols):
            m = len(rows) // 2
            return box(rows[:m], cols) + box(rows[m + 1:], cols) + box([rows[m]], cols)
        m = len(cols) // 2
        return box(rows, cols[:m]) + box(rows, cols[m + 1:]) + box(rows, [cols[m]])

    def band(rows):  # whole rings of a periodic second axis
        if width < 2 * len(rows):
            m = len(rows) // 2
            return band(rows[:m]) + band(rows[m + 1:]) + box([rows[m]], cols)
        half = width // 2
        return (box(rows, cols[1:half]) + box(rows, cols[half + 1:])
                + box(rows, [0]) + box(rows, [half]))

    return np.array(band(rows) if grid.periodic[1] else box(rows, cols))


@pytest.mark.parametrize("domain,n,n_angular", [
    (Domain.interval(0.0, 1.0), 41, 64),
    (Domain.rectangle(0.0, 0.0, 1.0, 2.0), (41, 23), 64),
    (Domain.rectangle(0.0, 0.0, 1.0, 2.0), (5, 60), 64),
    (Domain.rectangle(0.0, 0.0, 1.0, 2.0), (3, 3), 64),
    (Domain.disk(0.0, 0.0, 1.0), 30, 8), (Domain.disk(0.0, 0.0, 1.0), 30, 64),
    (Domain.annulus(0.0, 0.0, 0.5, 1.0), 30, 8), (Domain.annulus(0.0, 0.0, 0.5, 1.0), 30, 64),
], ids=["interval", "rect-41x23", "rect-5x60", "rect-3x3", "disk-8", "disk-64",
        "annulus-8", "annulus-64"])
def test_interior_order_is_a_permutation_of_the_non_boundary_ids(domain, n, n_angular):
    """The interior is row-major; the sparse LU factors it in nested-dissection
    order in 2D, and a 1D grid takes the tridiagonal solve in that order."""
    grid = fdm.build_grid(domain, n, n_angular)
    index = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
    on_bdy = np.zeros(grid.n_nodes, dtype=bool)
    for k, ends in enumerate(grid.dirichlet):
        on_bdy |= ((index[k] == 0) & (0 in ends)) | ((index[k] == grid.shape[k] - 1) & (-1 in ends))
    assert np.array_equal(grid.interior, np.flatnonzero(~on_bdy))
    assert np.array_equal(grid.boundary, np.flatnonzero(on_bdy))
    assert np.array_equal(fdm.build_grid(domain, n, n_angular).interior, grid.interior)
    coeffs = (coeffs_1d() if domain.dim == 1 else _coeffs_2d() if grid.family == "box"
              else preset("disk-k0-radial").coeffs)
    op = fdm.assemble_operator(10.0, coeffs, grid)
    if domain.dim == 1:
        assert isinstance(fdm._SeparableSolver.of(op), fdm._SeparableSolver)
    else:
        lu = fdm._LocalSolver(op)
        assert np.array_equal(grid.interior[lu.order], _nested_dissection_reference(grid))


@pytest.mark.parametrize("case", ["rectangle-a12", "disk", "annulus"])
def test_solves_do_not_depend_on_the_interior_order(case, monkeypatch):
    """The sparse LU in nested-dissection order and in the row-major order of
    the unknowns give the same results; the disk and the annulus, which
    separate, are sent to the LU too."""
    if case == "rectangle-a12":
        a12 = PolyField.from_dict(2, {(1, 1): 0.2})
        coeffs = CoefficientSet(
            diffusion=MatrixField(((const(2, 1.0), a12), (a12, const(2, 1.5)))),
            drift=VectorField.constant((0.5, -0.7)),
            intensity=PolyField.from_dict(2, {(0, 0): 1.0, (1, 0): 1.0}),
            redistribution=const(2, 0.5), boundary_data=const(2, 0.0), vanishing_order=0)
        grid = fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 2.0), (21, 31))
    else:
        spec = preset("disk-k0-radial" if case == "disk" else "annulus-flux")
        coeffs, grid = spec.coeffs, fdm.build_grid(spec.domain, 41, 32)
    delta = 0.05
    f = PolyField.from_dict(2, {(1, 0): 1.0})
    order = fdm._nested_dissection(grid)
    assert not np.array_equal(order, np.arange(len(order)))
    monkeypatch.setattr(fdm._SeparableSolver, "of", classmethod(lambda cls, op: None))
    assert isinstance(fdm.RankOneSolver(fdm.assemble_operator(delta, coeffs, grid)).local,
                      fdm._LocalSolver)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def solve():
        u = fdm.solve_no_jump_prob(delta, coeffs, grid)
        phi = fdm.solve_exit_functional(delta, coeffs, grid, f=f)
        return fdm.principal_eigenvalue(delta, coeffs, grid), phi, u, fdm.boundary_flux(u, coeffs)

    eig, phi, u, flux = solve()
    monkeypatch.setattr(fdm, "_nested_dissection", _row_major)
    eig_sorted, phi_sorted, u_sorted, flux_sorted = solve()
    diag = fdm.assemble_local(delta, coeffs, grid)[0].diagonal()
    floor = 32 * np.finfo(float).eps * np.max(np.abs(diag))
    assert abs(eig.lambda0 - eig_sorted.lambda0) <= floor + 1e-10 * eig_sorted.lambda0
    assert close(eig.eigenfunction.values, eig_sorted.eigenfunction.values)
    assert close(phi.values, phi_sorted.values)
    assert close(u.values, u_sorted.values)
    assert close(flux.values, flux_sorted.values)


def _row_major(grid):
    """The identity permutation of the interior: the sparse LU in the row-major
    order of the unknowns."""
    return np.arange(len(grid.interior))


def _coeffs_2d(a11=None, V=None, b=(0.0, 0.0)):
    return CoefficientSet(
        diffusion=MatrixField(((a11 if a11 is not None else const(2, 1.0), const(2, 0.0)),
                               (const(2, 0.0), const(2, 1.5)))),
        drift=VectorField.constant(b), intensity=V if V is not None else const(2, 1.0),
        redistribution=const(2, 0.5), boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),
        vanishing_order=0)


def _solver_case(case):
    """(coeffs, grid, delta) of an operator; the ``separable-`` ones separate along axis 1."""
    x = lambda c: PolyField.from_dict(2, {(0, 0): 1.0, (1, 0): c})
    if case in ("separable-square", "separable-disk", "separable-annulus", "separable-disk-33"):
        name = {"square": "square-k0-uniform", "disk": "disk-k0-radial",
                "annulus": "annulus-flux"}[case.split("-")[1]]
        spec = preset(name)
        return spec.coeffs, fdm.build_grid(spec.domain, 41, 33 if case.endswith("33") else 32), 0.05
    if case in FDM_2D_COPIES:  # the fdm-2d benchmark presets at its delta, on smaller grids
        spec = preset(case.removeprefix("fdm-2d-"))
        n, n_angular = {"square-k0-uniform": (81, None), "disk-k0-radial": (81, 64),
                        "annulus-flux": (41, 64)}[spec.name]
        return spec.coeffs, fdm.build_grid(spec.domain, n, n_angular), 1e-3
    if case == "separable-annulus-radial-V":  # V differs in its last bit from angle to angle
        spec = preset("annulus-flux")
        V = PolyField.from_dict(2, {(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0})
        return (dataclasses.replace(spec.coeffs, intensity=V),
                fdm.build_grid(spec.domain, 101, 64), 0.01)
    if case == "separable-rectangle-V-of-x":  # a11, V and the drift vary along x only
        return (_coeffs_2d(a11=x(0.5), V=x(1.0), b=(0.5, 0.0)),
                fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 2.0), (21, 31)), 0.05)
    if case == "rectangle-a12":
        a12 = PolyField.from_dict(2, {(1, 1): 0.2})
        coeffs = dataclasses.replace(_coeffs_2d(), diffusion=MatrixField(
            ((const(2, 1.0), a12), (a12, const(2, 1.5)))))
        return coeffs, fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 2.0), (21, 31)), 0.05
    if case == "disk-V-of-x":  # V = 1 + 0.5x varies with theta
        spec = preset("disk-k0-radial")
        return (dataclasses.replace(spec.coeffs, intensity=x(0.5)),
                fdm.build_grid(spec.domain, 41, 32), 0.05)
    if case == "disk-drift":  # a cartesian drift: one-sided at the reflecting core ring
        spec = preset("disk-k0-radial")
        return (dataclasses.replace(spec.coeffs, drift=VectorField.constant((0.3, -0.2))),
                fdm.build_grid(spec.domain, 41, 32), 0.05)
    if case == "square-drift-y":  # drift along axis 1 makes its stencil unsymmetric
        return (_coeffs_2d(b=(0.0, 0.7)),
                fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 1.0), 41), 0.05)
    if case == "interval-drift":  # cell Peclet number |b| h / a = 3: gttrf must pivot
        return (coeffs_1d(b=const(1, -60.0)), fdm.build_grid(Domain.interval(0.0, 1.0), 21), 0.05)
    spec = preset("interval-k0-asym")
    return spec.coeffs, fdm.build_grid(spec.domain, 101), 0.05


def _rank_one_problem(case):
    coeffs, grid, delta = _solver_case(case)
    op = fdm.assemble_operator(delta, coeffs, grid)
    fb = coeffs.boundary_data.eval(grid.points[grid.boundary])
    return op, -(op.B_bc @ fb) - op.v * (op.w_boundary @ fb)


FDM_2D_COPIES = ["fdm-2d-square-k0-uniform", "fdm-2d-disk-k0-radial", "fdm-2d-annulus-flux"]
ALL_CASES = ["separable-square", "separable-disk", "separable-disk-33", "separable-annulus",
             "separable-annulus-radial-V", "separable-rectangle-V-of-x", "rectangle-a12",
             "disk-V-of-x", "square-drift-y", "disk-drift", "interval", "interval-drift"]


@pytest.mark.parametrize("order", ["nested-dissection", "sorted"])
@pytest.mark.parametrize("case", ["separable-square", "separable-disk", "separable-disk-33",
                                  "separable-annulus", "separable-annulus-radial-V",
                                  "separable-rectangle-V-of-x"])
def test_separable_solver_matches_lu(case, order, monkeypatch):
    """Against the sparse LU in nested-dissection order and in the sorted
    (row-major) order of the unknowns."""
    op, rhs = _rank_one_problem(case)
    fast = fdm.RankOneSolver(op)
    if order == "sorted":
        monkeypatch.setattr(fdm, "_nested_dissection", _row_major)
    lu = fdm._LocalSolver(op)
    assert np.array_equal(lu.order, _row_major(op.grid)) == (order == "sorted")
    assert isinstance(fast.local, fdm._SeparableSolver)
    dense = np.linalg.solve(op.A_loc.toarray() + np.outer(op.v, op.w_interior), rhs)
    for x, ref in ((fast.local.solve(rhs), lu.solve(rhs)), (fast.solve(rhs), dense)):
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["rectangle-a12", "disk-V-of-x", "square-drift-y", "disk-drift"])
def test_operators_that_do_not_separate_take_the_lu_path(case):
    op, rhs = _rank_one_problem(case)
    solver = fdm.RankOneSolver(op)
    assert isinstance(solver.local, fdm._LocalSolver)
    dense = np.linalg.solve(op.A_loc.toarray() + np.outer(op.v, op.w_interior), rhs)
    assert np.max(np.abs(solver.solve(rhs) - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("case", ["interval", "interval-drift"])
def test_1d_operators_take_the_tridiagonal_solve(case):
    """A 1D local part is the fast path's case with no axis 1: one tridiagonal
    system, no transform and no sparse LU.  With the drift, partial pivoting
    swaps rows."""
    op, rhs = _rank_one_problem(case)
    solver = fdm.RankOneSolver(op)
    assert isinstance(solver.local, fdm._SeparableSolver)
    ipiv = solver.local.factors[-1]  # 1-based row of each pivot
    assert np.array_equal(ipiv, np.arange(1, len(ipiv) + 1)) == (case == "interval")
    dense = np.linalg.solve(op.A_loc.toarray() + np.outer(op.v, op.w_interior), rhs)
    given = rhs.copy()
    assert np.max(np.abs(solver.solve(rhs) - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert np.array_equal(rhs, given)


@pytest.mark.parametrize("domain,n", [
    (Domain.interval(0.0, 1.0), 3), (Domain.interval(0.0, 1.0), 4),
    (Domain.rectangle(0.0, 0.0, 1.0, 1.0), (3, 3)), (Domain.rectangle(0.0, 0.0, 1.0, 1.0), (3, 4)),
    (Domain.rectangle(0.0, 0.0, 1.0, 1.0), (4, 3))], ids=["interval-3", "interval-4", "rect-3x3",
                                                         "rect-3x4", "rect-4x3"])
def test_tridiagonal_solve_of_fewer_than_three_unknowns(domain, n):
    """One or two unknowns in all: scipy's gttrf and gttrs take at least three
    rows, and decoupled rows fill the system up."""
    coeffs = coeffs_1d() if domain.dim == 1 else _coeffs_2d()
    grid = fdm.build_grid(domain, n)
    op = fdm.assemble_operator(1.0, coeffs, grid)
    solver = fdm.RankOneSolver(op)
    assert isinstance(solver.local, fdm._SeparableSolver)
    rhs = np.arange(1.0, len(grid.interior) + 1)
    dense = np.linalg.solve(op.A_loc.toarray() + np.outer(op.v, op.w_interior), rhs)
    assert np.max(np.abs(solver.solve(rhs) - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert fdm.principal_eigenvalue(1.0, coeffs, grid).lambda0 > 0


@pytest.mark.parametrize("case", ALL_CASES)
def test_local_rows_and_intensity_sum_to_zero(case):
    """A_loc 1 + B_bc 1 = -v: the rows of delta*G_h sum to zero, which makes the
    rank-one denominator the no-jump mass.  The gate sees a 1e-12 change in
    one diagonal entry."""
    op, _ = _rank_one_problem(case)
    ones = np.ones(len(op.grid.boundary))
    gate = 8 * np.finfo(float).eps * np.max(np.abs(op.A_loc.diagonal()))

    def residual(A):
        return np.max(np.abs(A @ np.ones(A.shape[1]) + op.B_bc @ ones + op.v))

    assert residual(op.A_loc) <= gate
    perturbed = op.A_loc.copy()
    k = np.argmax(np.abs(perturbed.diagonal()))
    perturbed[k, k] *= 1 + 1e-12
    assert residual(perturbed) > gate


@pytest.mark.parametrize("case", ALL_CASES)
def test_apply_matches_the_sparse_rows(case):
    """op.apply(x) = A_loc x_int + B_bc x_bdy, within 4 eps max|diag| max|x|.  In
    1D each part is bit-equal to its CSC or CSR product, which is how the
    solvers use it: interior values with a zero boundary, or the reverse."""
    op, _ = _rank_one_problem(case)
    grid, A, B = op.grid, op.A_loc, op.B_bc
    x = np.random.default_rng(5).normal(size=grid.n_nodes)
    reference = A @ x[grid.interior] + B @ x[grid.boundary]
    gate = 4 * np.finfo(float).eps * np.max(np.abs(A.diagonal())) * np.max(np.abs(x))
    assert np.max(np.abs(op.apply(x) - reference)) <= gate
    if len(grid.shape) == 1:
        interior, boundary = (fdm._on_grid(grid, x[grid.interior], 0.0).values,
                              fdm._on_grid(grid, 0.0, x[grid.boundary]).values)
        assert np.array_equal(op.apply(interior), A @ x[grid.interior])
        assert np.array_equal(op.apply(boundary), B @ x[grid.boundary])


def _stencil_per_node(delta, coeffs, grid):
    """The local stencil of ``fdm._stencil`` node by node, flat over
    ``grid.interior``: scale factors, face points, face weights, reflecting-end
    masks and every coefficient evaluated at each interior node."""
    d, me = len(grid.shape), grid.interior
    index, xi, pts = np.unravel_index(me, grid.shape), grid.coordinates[me], grid.points[me]
    polar = grid.family == "polar"
    scales = lambda q: np.stack([np.ones(len(q)), q[:, 0]], axis=1) if polar else np.ones((1, d))
    scale = scales(xi)
    jac = math.prod(scale.T)
    centre = (0,) * d
    along = lambda k, s: tuple(s * (axis == k) for axis in range(d))
    stencil = {centre: -coeffs.intensity.eval(pts)}
    if d == 2 and (a12 := coeffs.diffusion.entry(0, 1)).constant_value() != 0.0:
        c = delta * 0.5 / (4 * grid.spacing[0] * grid.spacing[1])
        at = lambda p, q: me + p * grid.shape[1] + q
        a = {pq: a12.eval(grid.points[at(*pq)]) for pq in ((1, 0), (-1, 0), (0, 1), (0, -1))}
        for p in (1, -1):
            for q in (1, -1):
                stencil[p, q] = c * p * q * (a[p, 0] + a[0, q])
    bvals = np.stack([c.eval(pts) for c in coeffs.drift.components], axis=1)
    drift = (np.einsum("...kj,...j->...k", grid.coords.units(xi), bvals) / scale
             if np.any(bvals) else None)
    one_sided = 0.0
    for k, (h, n) in enumerate(zip(grid.spacing, grid.shape)):
        wall = 0 if grid.periodic[k] or len(grid.dirichlet[k]) == 2 \
            else (index[k] == 0).astype(int) - (index[k] == n - 1)
        for s in (1, -1):
            face = xi.copy()
            face[:, k] += s * h / 2
            face_scale = scales(face)
            weight = math.prod(face_scale.T) / (jac * face_scale[:, k] ** 2) * (wall != -s)
            a_kk = coeffs.diffusion.entry(k, k).eval(grid.coords.to_cartesian(face))
            c = delta * 0.5 * a_kk * weight / h**2
            stencil[along(k, s)] = c
            stencil[centre] = stencil[centre] - c
        if drift is not None:
            c = delta * drift[:, k] / ((2 - np.abs(wall)) * h)
            for s in (1, -1):
                stencil[along(k, s)] = stencil[along(k, s)] + s * c * (wall != -s)
                one_sided = one_sided + s * c * (wall == -s)
    stencil[centre] = stencil[centre] + one_sided
    return stencil


@pytest.mark.parametrize("case", ALL_CASES + FDM_2D_COPIES)
def test_stencil_matches_the_per_node_reference(case):
    """Every stencil entry, broadcast to the interior block, is bit for bit the
    per-node formula; on the fdm-2d presets each neighbour entry has one value
    per index of axis 0 (length 1 along axis 1)."""
    coeffs, grid, delta = _solver_case(case)
    op = fdm.assemble_operator(delta, coeffs, grid)
    reference = _stencil_per_node(delta, coeffs, grid)
    block = tuple(len(rows) for rows in grid.block)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    assert set(op.stencil) == set(reference)
    for offset, c in op.stencil.items():
        expected = reference[offset].reshape(block)
        assert np.array_equal(bits(np.broadcast_to(c, block)), bits(expected)), offset
    if case in FDM_2D_COPIES:
        assert all(np.shape(c)[1] == 1 for offset, c in op.stencil.items() if any(offset))


@pytest.mark.parametrize("case", ["separable-square", "separable-disk", "separable-annulus"])
def test_fast_diagonalization_builds_no_sparse_matrix(case, monkeypatch):
    coeffs, grid, delta = _solver_case(case)
    op = fdm.assemble_operator(delta, coeffs, grid)
    solver = fdm.RankOneSolver(op)
    solver.solve(np.ones(len(grid.interior)))
    assert isinstance(solver.local, fdm._SeparableSolver)
    assert "A_loc" not in vars(op) and "B_bc" not in vars(op)
    assert op.A_loc.shape == (len(grid.interior),) * 2 and "A_loc" in vars(op)

    def build(*args):
        raise AssertionError("a sparse matrix was built")

    monkeypatch.setattr(fdm, "_columns", build)
    fdm.principal_eigenvalue(delta, coeffs, grid)
    fdm.solve_exit_functional(delta, coeffs, grid)
    fdm.solve_no_jump_prob(delta, coeffs, grid)


def test_separable_solver_admits_last_bit_differences():
    """V differs in its last bits from angle to angle, so the node's own entry
    is the one that spans axis 1; the neighbours hold one value per radius."""
    op, _ = _rank_one_problem("separable-annulus-radial-V")
    diag = op.stencil[0, 0]
    assert diag.shape == tuple(len(rows) for rows in op.grid.block)
    assert all(np.shape(c)[1] == 1 for offset, c in op.stencil.items() if any(offset))
    spread = np.max(np.abs(diag - diag[:, :1]) / np.abs(diag[:, :1]))
    assert 0 < spread <= fdm.SEPARABLE_RTOL
    assert isinstance(fdm._SeparableSolver.of(op), fdm._SeparableSolver)


def test_singular_separable_factor_is_a_solver_error():
    grid = fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 1.0), 6)
    op = fdm.assemble_operator(1.0, preset("square-k0-uniform").coeffs, grid)
    axis_offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    zero = dataclasses.replace(op, stencil={o: np.zeros((1, 1)) for o in axis_offsets})
    with pytest.raises(SolverError, match="singular"):
        fdm._SeparableSolver.of(zero)


def _basis_solver(basis, m):
    """A separable solver whose axis 1 has m interior nodes: a box, a ring, or in
    1D m unknowns and no axis 1."""
    if basis == "1d":
        ones = np.ones(m)
        return fdm._SeparableSolver((m,), False, ones, -3 * ones, ones, 0.0)
    ones = np.ones(3)
    return fdm._SeparableSolver((3, m), basis == "ring", ones, -6 * ones, ones, ones)


@pytest.mark.parametrize("m", [1, 2, 7, 32])
def test_box_modes_are_the_orthonormal_sine_transform(m):
    x = np.random.default_rng(m).normal(size=(3, m))
    k, l = np.meshgrid(np.arange(1, m + 1), np.arange(m), indexing="ij")
    exact = x @ np.sin(math.pi * k * (l + 1) / (m + 1)).T * math.sqrt(2 / (m + 1))
    modes = _basis_solver("box", m).to_modes(x.ravel()).reshape(m, 3).T  # mode after mode
    assert np.allclose(modes, exact, rtol=0, atol=1e-13 * m)


@pytest.mark.parametrize("m", [1, 2, 7, 32])
@pytest.mark.parametrize("basis", ["box", "ring", "1d"])
def test_modes_are_an_orthonormal_basis(basis, m):
    """``from_modes`` inverts ``to_modes`` and dot products are kept: on a box,
    around rings of odd (1, 7) and even (2, 32) angular counts, and in 1D, where
    the basis is the identity and ``to_modes`` copies."""
    solver = _basis_solver(basis, m)
    x, y = np.random.default_rng(m).normal(size=(2, math.prod(solver.shape)))
    mx, my = solver.to_modes(x), solver.to_modes(y)
    assert np.allclose(solver.from_modes(mx), x, rtol=0, atol=1e-13 * m)
    assert abs(dot(mx, my) - dot(x, y)) <= 1e-13 * m
    assert abs(dot(mx, mx) - dot(x, x)) <= 1e-13 * m
    if basis == "1d":
        assert mx is not x and np.array_equal(solver.from_modes(mx), x)


@pytest.mark.parametrize("case", ["separable-square", "separable-disk", "separable-disk-33",
                                  "interval", "rectangle-a12"])
def test_rank_one_solve_in_modes_matches_the_node_solve(case):
    op, rhs = _rank_one_problem(case)
    solver = fdm.RankOneSolver(op)
    x = solver.solve(rhs)
    y = solver.local.from_modes(solver.solve_modes(solver.local.to_modes(rhs)))
    assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))


def _dense_principal_eigenvalue(op):
    M = op.A_loc.toarray() + np.outer(op.v, op.w_interior)
    eigs = np.linalg.eigvals(-M)
    return np.min(eigs[np.abs(eigs.imag) < 1e-10].real)


def _assert_true_residual(op, res):
    """``res.residual`` is ||(-M) psi - lambda0 psi||, as the dense matrix gives it."""
    M = op.A_loc.toarray() + np.outer(op.v, op.w_interior)
    psi = res.eigenfunction.values[op.grid.interior]
    dense = np.linalg.norm(-M @ psi - res.lambda0 * psi)
    tol = 64 * np.finfo(float).eps * np.max(np.abs(M)) * np.linalg.norm(psi)
    assert abs(res.residual - dense) <= tol


def test_principal_eigenvalue_against_dense_spectrum():
    spec = preset("interval-k0-uniform")
    grid = fdm.build_grid(spec.domain, 101)
    delta = 5e-3
    res = fdm.principal_eigenvalue(delta, spec.coeffs, grid)
    op = fdm.assemble_operator(delta, spec.coeffs, grid)
    lam_min = _dense_principal_eigenvalue(op)
    assert res.lambda0 == pytest.approx(lam_min, rel=1e-8)
    assert res.residual <= 1e-10
    _assert_true_residual(op, res)
    psi = res.eigenfunction.values[grid.interior]
    assert np.all(psi > 0)


@pytest.mark.parametrize("name,n,n_angular", [
    ("square-k0-uniform", 21, None), ("disk-k0-radial", 16, 16), ("annulus-flux", 16, 15)])
def test_principal_eigenvalue_against_dense_spectrum_2d(name, n, n_angular):
    # the polar angular axis is periodic: its factor includes the wrap-around
    # entries, and an odd count has no mode k = m1/2
    spec = preset(name)
    grid = fdm.build_grid(spec.domain, n, n_angular)
    delta = 5e-2
    res = fdm.principal_eigenvalue(delta, spec.coeffs, grid)
    op = fdm.assemble_operator(delta, spec.coeffs, grid)
    lam_min = _dense_principal_eigenvalue(op)
    assert res.lambda0 == pytest.approx(lam_min, rel=1e-8)
    assert res.residual <= 1e-10
    _assert_true_residual(op, res)
    assert np.all(res.eigenfunction.values[grid.interior] > 0)


def test_tiny_principal_eigenvalue_is_exact():
    """At k = 2, delta = 1e-6 lambda0 is about 4e-8 while max|diag A_loc| is about
    1e3: lambda0 stays within 1e-8 relative of a long-double reference on the same
    float64 operator, two long-double inverse steps from the returned
    eigenfunction and the inverse Rayleigh quotient 1/(psi . y) after them,
    where the Rayleigh quotient psi . (-M) psi misses by more than 1e-6."""
    spec, delta = preset("interval-k2-quartic"), 1e-6
    n = fdm.suggest_resolution(spec.domain, delta, spec.coeffs, factor=0.03)
    grid = fdm.build_grid(spec.domain, n)
    assert grid.n_nodes == 33_335
    res = fdm.principal_eigenvalue(delta, spec.coeffs, grid)
    op = fdm.assemble_operator(delta, spec.coeffs, grid)
    y = np.asarray(res.eigenfunction.values[grid.interior], np.longdouble)
    for _ in range(2):
        psi = y / np.sqrt(np.sum(y * y))
        y, _ = _thomas_sherman_morrison(op, -psi)  # (-M) y = psi
    lam_ref = 1 / np.sum(psi * y)
    assert 1e-8 < lam_ref < 1e-7
    assert float(abs(res.lambda0 - lam_ref) / lam_ref) <= 1e-8


def test_principal_eigenvalue_monotone_in_intensity():
    grid = fdm.build_grid(preset("interval-k0-uniform").domain, 801)
    l1 = fdm.principal_eigenvalue(1e-3, coeffs_1d(V=const(1, 1.0)), grid).lambda0
    l2 = fdm.principal_eigenvalue(1e-3, coeffs_1d(V=const(1, 2.0)), grid).lambda0
    assert l2 > l1


@pytest.mark.parametrize("delta", [1e-3, 1e-4])
def test_principal_eigenvalue_matches_closed_form_k0(delta):
    # a=1, b=0, V=1, mu=1 on (0,1): lambda0 is the root of
    # lam = (2/r) tanh(r/2) with r = sqrt(2 (1 - lam) / delta)
    def g(lam):
        r = math.sqrt(2.0 * (1.0 - lam) / delta)
        return 2.0 / r * math.tanh(r / 2.0) - lam
    exact = scipy.optimize.brentq(g, 1e-12, 0.999, xtol=1e-16, rtol=1e-14)
    spec = preset("interval-k0-uniform")
    n = fdm.suggest_resolution(spec.domain, delta, spec.coeffs, factor=0.04)
    res = fdm.principal_eigenvalue(delta, spec.coeffs, fdm.build_grid(spec.domain, n))
    assert res.lambda0 == pytest.approx(exact, rel=1e-3)


def test_boundary_flux_1d_limit_value():
    spec = preset("interval-flux-a2v3")
    delta = 1e-4
    n = fdm.suggest_resolution(spec.domain, delta, spec.coeffs, factor=0.04)
    grid = fdm.build_grid(spec.domain, n)
    u = fdm.solve_no_jump_prob(delta, spec.coeffs, grid)
    bf = fdm.boundary_flux(u, spec.coeffs)
    scaled = math.sqrt(delta) * bf.values
    assert np.allclose(scaled, -math.sqrt(12.0), rtol=0.01)


def test_mu_quadrature_weights():
    spec = preset("interval-k1-beta22")
    grid = fdm.build_grid(spec.domain, 2001)
    w = fdm.mu_quadrature_weights(spec.coeffs, grid)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    x = grid.points[:, 0]
    assert w @ x == pytest.approx(0.5, abs=1e-6)      # beta(2,2) mean
    assert w @ (2 * x + 1) == pytest.approx(2.0, abs=1e-6)


def test_layer_resolution_precondition():
    spec = preset("interval-k0-uniform")
    grid = fdm.build_grid(spec.domain, 11)  # far too coarse for delta = 1e-6
    with pytest.raises(ValidationError):
        fdm.assemble_local(1e-6, spec.coeffs, grid)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        fdm.assemble_local(1e-6, spec.coeffs, grid, allow_coarse=True)
    assert any("resolve" in str(w.message) for w in rec)


@pytest.mark.parametrize("shape", [(11, 401), (401, 11)])
def test_layer_resolution_checks_every_boundary_normal_axis(shape):
    spec = preset("square-k0-uniform")
    grid = fdm.build_grid(spec.domain, shape)  # one axis at h = 0.1 against the 0.0158 limit
    with pytest.raises(ValidationError):
        fdm.solve_no_jump_prob(1e-3, spec.coeffs, grid)


def test_polar_disk_radial_symmetry_and_solution():
    spec = preset("disk-k0-radial")
    grid = fdm.build_grid(spec.domain, 301, n_angular=24)
    u = fdm.solve_no_jump_prob(1e-2, spec.coeffs, grid)
    V = u.values.reshape(grid.shape)
    assert np.max(V.max(axis=1) - V.min(axis=1)) <= 1e-11
    assert np.all(u.values > 0) and np.all(u.values <= 1.0)


def test_polar_annulus_constant_dirichlet_and_flux_symmetry():
    spec = preset("annulus-flux")
    grid = fdm.build_grid(spec.domain, 401, n_angular=24)
    phi = fdm.solve_exit_functional(1e-2, spec.coeffs, grid, f=const(2, 1.0))
    assert np.max(np.abs(phi.values - 1.0)) <= 1e-10
    u = fdm.solve_no_jump_prob(1e-3, spec.coeffs, grid)
    bf = fdm.boundary_flux(u, spec.coeffs)
    outer = bf.values[-24:]
    assert (outer.max() - outer.min()) <= 1e-9 * abs(outer.mean())


def test_polar_rejects_anisotropic_diffusion():
    spec = preset("annulus-flux")
    grid = fdm.build_grid(spec.domain, 51, n_angular=16)
    rows = ((const(2, 2.0), const(2, 0.5)), (const(2, 0.5), const(2, 1.0)))
    bad = CoefficientSet(diffusion=MatrixField(rows), drift=VectorField.zero(2),
                         intensity=const(2, 1.0),
                         redistribution=spec.coeffs.redistribution,
                         boundary_data=const(2, 0.0), vanishing_order=0)
    with pytest.raises(ValidationError):
        fdm.assemble_local(1e-2, bad, grid, allow_coarse=True)


def test_rectangle_solution_symmetric_center():
    spec = preset("square-k0-uniform")
    grid = fdm.build_grid(spec.domain, 81)
    phi = fdm.solve_exit_functional(1e-2, spec.coeffs, grid)
    assert phi.at(np.array([0.5, 0.5])) == pytest.approx(0.5, abs=1e-10)


def test_rectangle_cross_term_assembly_kills_constants():
    dom = preset("square-k0-uniform").domain
    a12 = PolyField.from_dict(2, {(1, 1): 0.2})
    rows = ((const(2, 1.0), a12), (a12, const(2, 1.5)))
    c = CoefficientSet(diffusion=MatrixField(rows), drift=VectorField.zero(2),
                       intensity=const(2, 1.0), redistribution=const(2, 1.0),
                       boundary_data=const(2, 1.0), vanishing_order=0)
    grid = fdm.build_grid(dom, 41)
    phi = fdm.solve_exit_functional(0.05, c, grid)
    assert np.max(np.abs(phi.values - 1.0)) <= 1e-11


def test_grid_function_interpolation_and_csv(tmp_path):
    spec = preset("interval-k0-uniform")
    grid = fdm.build_grid(spec.domain, 11)
    gf = fdm.GridFunction(grid, grid.points[:, 0] ** 2)
    assert gf.at(np.array([grid.axes[0][3]])) == pytest.approx(grid.axes[0][3] ** 2)
    path = tmp_path / "g.csv"
    gf.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,value"
    assert len(lines) == 12


@pytest.mark.parametrize("name", ["interval-k0-uniform", "disk-k0-radial"])
def test_grid_function_rejects_points_outside_the_domain(name):
    spec = preset(name)
    grid = fdm.build_grid(spec.domain, 11)
    gf = fdm.GridFunction(grid, np.ones(grid.n_nodes))
    outside = [np.array([1.5]), np.array([-1e-3])] if spec.domain.dim == 1 \
        else [np.array([1.5, 0.0]), np.array([0.0, -1.001])]
    for x in outside:
        with pytest.raises(ValidationError, match="outside"):
            gf.at(x)
    on_boundary = np.array([1.0]) if spec.domain.dim == 1 else np.array([0.0, -1.0])
    assert gf.at(on_boundary) == pytest.approx(1.0)


@pytest.mark.parametrize("domain", [Domain.disk(0.0, 0.0, 1.0), Domain.disk(0.3, -0.2, 2.0),
                                    Domain.annulus(0.1, 0.4, 0.5, 1.0)],
                         ids=["disk", "shifted-disk", "annulus"])
@pytest.mark.parametrize("shape", [(400, 256), (37, 8)], ids=["400x256", "37x8"])
def test_polar_points_are_the_mapped_coordinates(domain, shape):
    grid = fdm.build_grid(domain, shape[0], n_angular=shape[1])
    assert np.array_equal(grid.points, grid.coords.to_cartesian(grid.coordinates))


def test_interior_decay_slope_constant_coefficients():
    spec = preset("interval-k0-uniform")
    vals = []
    deltas = [1e-2, 1e-3]
    for d in deltas:
        n = fdm.suggest_resolution(spec.domain, d, spec.coeffs, factor=0.1)
        grid = fdm.build_grid(spec.domain, n)
        u = fdm.solve_no_jump_prob(d, spec.coeffs, grid)
        vals.append(u.at(np.array([0.5])))
    slope = (math.log(vals[1]) - math.log(vals[0])) / (deltas[1] ** -0.5 - deltas[0] ** -0.5)
    assert slope == pytest.approx(-1 / math.sqrt(2), rel=0.05)


def test_grid_too_large_for_memory_is_a_validation_error():
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="160,000,800,001 nodes"):
            fdm.build_grid(Domain.rectangle(0.0, 0.0, 1.0, 1.0), 400_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 400,001 nodes of one axis alone would take 3.2 MB


def test_polar_grid_zero_angular_nodes_is_too_few():
    # n_angular = 0 is not a request for the default of 64
    disk = Domain.disk(0.0, 0.0, 1.0)
    assert fdm.build_grid(disk, 50).shape == (50, 64)
    with pytest.raises(ValidationError):
        fdm.build_grid(disk, 50, n_angular=0)


@pytest.mark.parametrize("delta", [0.0, -1e-3, float("nan"), float("inf")])
def test_suggest_resolution_rejects_bad_delta(delta):
    spec = preset("interval-k0-uniform")
    with pytest.raises(ValidationError):
        fdm.suggest_resolution(spec.domain, delta, spec.coeffs)


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((CPUS or 1) < 2, reason="needs 2 CPUs to see a spinning thread")
def test_eigen_sweep_keeps_to_one_core():
    # A sweep is serial.  A dense reduction through BLAS would wake the
    # OpenBLAS pool, whose threads then spin: on the second core (process CPU
    # time near twice the wall time) or on the sweep's own core (CPU time of
    # threads other than this one near half the wall time).  Host noise only
    # adds wall time.
    spec = preset("interval-k0-uniform")
    run = lambda: experiments.run_eigenvalue_scaling_experiment(
        spec, (10**-2.5, 1e-3, 10**-3.5), grid_factor=0.04)
    run()
    wall, cpu, own = time.perf_counter(), time.process_time(), time.thread_time()
    while time.perf_counter() - wall < 0.5:
        run()
    wall, cpu, own = (time.perf_counter() - wall, time.process_time() - cpu,
                      time.thread_time() - own)
    assert cpu / wall <= 1.3
    assert (cpu - own) / wall <= 0.3


@pytest.mark.skipif((CPUS or 1) < 2, reason="needs 2 CPUs to see a spinning thread")
def test_2d_eigen_solve_keeps_to_one_core():
    # The 2D twin of the sweep above: a separable eigen solve on 159 x 159 =
    # 25,281 unknowns, whose transforms and stacked solves must not reach BLAS.
    spec = preset("square-k0-uniform")
    grid = fdm.build_grid(spec.domain, 161)
    run = lambda: fdm.principal_eigenvalue(3e-3, spec.coeffs, grid)
    assert isinstance(fdm.RankOneSolver(fdm.assemble_operator(3e-3, spec.coeffs, grid)).local,
                      fdm._SeparableSolver)
    run()
    wall, cpu, own = time.perf_counter(), time.process_time(), time.thread_time()
    while time.perf_counter() - wall < 0.5:
        run()
    wall, cpu, own = (time.perf_counter() - wall, time.process_time() - cpu,
                      time.thread_time() - own)
    assert cpu / wall <= 1.3
    assert (cpu - own) / wall <= 0.3
