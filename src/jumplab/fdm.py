"""Finite-difference discretization and solvers.

``build_grid`` alone knows the shape of the domain.  It returns a tensor grid
in grid coordinates (cartesian for the box family: interval, rectangle;
(r, theta) for the polar family: disk, annulus) with per-axis periodicity,
the axis ends that carry Dirichlet data, and the map to cartesian points; a
non-periodic end without Dirichlet data is reflecting (the excised core ring
of a disk).  Assembly, interpolation and the boundary flux are written once
for that model, axis by axis.  Node ids are row-major, and the interior is
one tensor block of them, so interior vectors reshape to that block.  The
local part A = delta*G_h - diag(V) has one record, its stencil {offset: an
array that broadcasts to the interior block}: products with A (``apply``) and
the choice of local solver read it in place, and the sparse A_loc and B_bc are
built from it, broadcast per node, only for the sparse LU.

The redistribution term is a rank-one coupling v w^T (the intensity column
times the mu-quadrature row); Dirichlet solves and the inverse-power
eigenvalue iteration reuse one set-up of a local solver for the local part
A through a rank-one update identity.  Each local solver has an orthonormal
basis of the interior vectors in which it solves: the eigenvectors of its
axis-1 operator, or the identity.  Inverse iteration runs on coefficients in
it and transforms only at its two ends.  The set-up solve is the no-jump
probability u, and the identity's denominator is its mu-mass w . u: the
rows of delta*G_h sum to zero, so A^{-1} v is u - 1 at the interior nodes.
That mass is a sum of nonnegative terms and does not cancel as delta -> 0.
There are two local solvers, and the stencil picks one:

- fast diagonalization (``_SeparableSolver``) on every 1D grid, and on a 2D
  grid where the stencil holds only the node and its axis neighbours, and
  along axis 1 (y on a box, theta on a polar grid) it is symmetric and the
  same at every index, as with constant coefficients or ones that vary with x
  or r only.  A is then a Kronecker sum; a solve is an orthonormal sine or
  real Fourier transform along axis 1, one tridiagonal solve per mode and
  the transform back, and in 1D one tridiagonal solve.  No sparse matrix is
  formed.
- one sparse LU factorization for every other 2D operator: cross terms a12,
  coefficients that vary along axis 1, and drift along it.  It factors the
  unknowns in nested-dissection order, taken from the tensor shape.
Vector dots and norms go through ``reductions.dot``.  Assembly enforces
h <= 0.5 * sqrt(delta a_min / V_max), which resolves the boundary layer of
width ~ sqrt(delta a / V), along every axis with Dirichlet ends unless
overridden.

scipy is imported where a local solver is set up (LAPACK's tridiagonal
routines, scipy.fft in 2D; SuperLU and scipy.sparse for the LU), not with
this module, so it loads at the first FDM set-up: Monte Carlo, theory and
problem validation never load it.
"""
from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .fields import CoefficientSet
from .geometry import Box, Domain
from .reductions import dot
from .tables import write_csv

# Excised-core radius of polar disk grids, relative to the disk radius.  The
# core gets a reflecting closure; a controlled perturbation at this scale.
DISK_CORE_FRACTION = 1e-3


class _Cartesian:
    """Grid coordinates that are the cartesian ones."""

    def to_cartesian(self, xi):
        return xi

    from_cartesian = to_cartesian

    def scales(self, axes):
        """Scale factors |d x / d xi_k| over the tensor grid of per-axis coordinates
        ``axes``: one array per axis k that broadcasts to that grid."""
        return [np.ones((1,) * len(axes))] * len(axes)

    def units(self, xi):
        """Unit axis vectors e_k as rows, (n, d, d) or broadcastable (1, d, d)."""
        return np.eye(xi.shape[1])[None]

    def tensor(self, axes):
        """Cartesian points of the tensor grid of per-axis coordinates, row-major (n, d)."""
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@dataclass(frozen=True)
class _Polar:
    """(r, theta) about a centre: scale factors (1, r), unit vectors (e_r, e_theta)."""

    cx: float
    cy: float

    def to_cartesian(self, xi):
        return np.stack([self.cx + xi[:, 0] * np.cos(xi[:, 1]),
                         self.cy + xi[:, 0] * np.sin(xi[:, 1])], axis=1)

    def from_cartesian(self, x):
        dx, dy = x[..., 0] - self.cx, x[..., 1] - self.cy
        return np.stack([np.hypot(dx, dy), np.arctan2(dy, dx) % (2 * math.pi)], axis=-1)

    def scales(self, axes):
        return [np.ones((1, 1)), axes[0][:, None]]

    def units(self, xi):
        c, s = np.cos(xi[:, 1]), np.sin(xi[:, 1])
        return np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)

    def tensor(self, axes):
        """One cosine and sine per angle, broadcast over the radii."""
        r, theta = axes
        return np.stack([self.cx + r[:, None] * np.cos(theta),
                         self.cy + r[:, None] * np.sin(theta)], axis=-1).reshape(-1, 2)


@dataclass(frozen=True)
class Grid:
    domain: Domain
    family: str               # box | polar
    axes: tuple               # node arrays per axis ((x,) | (x, y) | (r, theta))
    shape: tuple
    periodic: tuple           # per axis
    dirichlet: tuple          # per axis: the ends (0 low, -1 high) that carry Dirichlet data
    coords: object            # grid coordinates <-> cartesian, scale factors, unit vectors
    coordinates: np.ndarray   # (N, d) grid coordinates
    points: np.ndarray        # (N, d) cartesian coordinates
    interior: np.ndarray      # flat ids, row-major: the tensor block ``block``
    boundary: np.ndarray      # flat ids
    cell_weights: np.ndarray  # (N,) trapezoid volume weights

    @property
    def n_nodes(self):
        return len(self.points)

    @property
    def spacing(self):
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    @property
    def block(self):
        """The interior as a tensor block: per axis, the range of its node indices,
        every node but the axis ends that carry Dirichlet data."""
        return tuple(range(int(0 in ends), m - int(-1 in ends))
                     for m, ends in zip(self.shape, self.dirichlet))

    @property
    def boundary_normals(self):
        """Unit inward normals at the boundary nodes."""
        return self.domain.inward_normal(self.points[self.boundary])

    def step(self, ids, index, axis, shift):
        """Ids ``shift`` nodes along ``axis`` from ``ids`` (at ``index`` on it), wrapping
        around periodic axes and stopping at the end nodes of the others."""
        n = self.shape[axis]
        moved = np.mod(index + shift, n) if self.periodic[axis] else np.clip(index + shift, 0, n - 1)
        return ids + (moved - index) * math.prod(self.shape[axis + 1:])

    def padded(self, values):
        """``values`` at the nodes as an array of ``shape`` with one more node at each
        end of every axis, the node where ``step`` lands past that end."""
        x = np.reshape(values, self.shape)
        for k, periodic in enumerate(self.periodic):
            low, high = (-1, 0) if periodic else (0, -1)
            x = np.concatenate([x.take([low], axis=k), x, x.take([high], axis=k)], axis=k)
        return x

    def shifted(self, offset):
        """Slices of ``padded`` values that hold the interior block moved
        ``offset`` steps, at most one, along each axis."""
        return tuple(slice(rows.start + 1 + shift, rows.stop + 1 + shift)
                     for rows, shift in zip(self.block, offset))


def _trapezoid(x):
    w = np.full(len(x), x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# Nested dissection does not split a block under this many nodes wide.
ND_MIN_WIDTH = 3


def _nested_dissection(grid):
    """The sparse LU's order of a 2D interior, as positions in the row-major
    interior block: nested dissection, a block's two halves, then the line
    between them.

    A box bisects its longer axis (across the rows on a tie) until it is under
    ND_MIN_WIDTH nodes wide; such a leaf is row-major.  On a periodic second
    axis whole rings (one row) separate while a ring is shorter than the two
    radial lines, half a turn apart, that would open the axis; then those two
    lines cut each band of rings into two boxes.  A block's order depends on
    its shape alone, so each shape is ordered once, as offsets from the
    block's first node: one or two shapes per level of the tree.
    """
    rows, width = (len(axis) for axis in grid.block)
    half = width // 2

    def join(low, high, shift, *lines):  # shifts high in the copy, not in the cache
        order = np.concatenate([low, high, *lines])
        order[len(low):len(low) + len(high)] += shift
        return order

    @functools.cache
    def box(h, w):
        if min(h, w) < ND_MIN_WIDTH:
            return (np.arange(h)[:, None] * width + np.arange(w)).ravel()
        if h >= w:
            m = h // 2
            return join(box(m, w), box(h - m - 1, w), (m + 1) * width, m * width + np.arange(w))
        m = w // 2
        return join(box(h, m), box(h, w - m - 1), m + 1, np.arange(h) * width + m)

    @functools.cache
    def band(h):  # h whole rings
        if width < 2 * h:
            m = h // 2
            return join(band(m), band(h - m - 1), (m + 1) * width, m * width + np.arange(width))
        lines = np.arange(h) * width
        return join(box(h, half - 1) + 1, box(h, width - half - 1), half + 1, lines, lines + half)

    order = band(rows) if grid.periodic[1] else box(rows, width)
    # box and band refer to themselves: free their cached orders now, not at
    # the next cycle collection
    box.cache_clear()
    band.cache_clear()
    return order


def _require_memory(shape):
    """Raise ValidationError where the node arrays of a grid of ``shape`` (grid
    and cartesian coordinates, cell weights, ids) would not fit in memory."""
    nodes = math.prod(shape)
    need = 8 * nodes * (2 * len(shape) + 2)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValidationError(f"a grid of {nodes:,} nodes needs {need / 2**30:,.1f} GiB for its "
                              f"node arrays, more than the {have / 2**30:,.1f} GiB of physical memory")


def build_grid(domain: Domain, n, n_angular=64) -> Grid:
    """Tensor grid with ``n`` nodes per principal axis.

    Box grids take ``n`` or a per-axis tuple.  Polar grids take ``n`` radial
    and ``n_angular`` angular nodes; the disk excises a small core whose ring
    is closed by a reflecting face.  Node ids are row-major, and the interior
    is listed in that order: it is one tensor block (``Grid.block``), so
    interior vectors reshape to the block's shape.  Too few nodes, or node
    arrays larger than the physical memory, raise ValidationError.
    """
    if isinstance(domain, Box):
        d = domain.dim
        shape = tuple(int(m) for m in n) if isinstance(n, (tuple, list)) else (int(n),) * d
        if len(shape) != d or min(shape) < 3:
            raise ValidationError(f"need at least 3 nodes on each of {d} axes, got {shape}")
        _require_memory(shape)
        axes = tuple(np.linspace(a, b, m) for a, b, m in zip(domain.lo, domain.hi, shape))
        family, periodic, coords = "box", (False,) * d, _Cartesian()
        dirichlet = ((0, -1),) * d
        weights = [_trapezoid(ax) for ax in axes]
    else:
        inner = domain.has_inner  # the disk's excised core ring reflects instead
        ro = domain.r_outer
        ri = domain.r_inner if inner else DISK_CORE_FRACTION * ro
        shape = (int(n), int(n_angular))
        if shape[0] < 3 or shape[1] < 8:
            raise ValidationError(f"polar grids need nr >= 3 and n_angular >= 8, got {shape}")
        _require_memory(shape)
        r = np.linspace(ri, ro, shape[0])
        axes = (r, 2 * math.pi * np.arange(shape[1]) / shape[1])
        family, periodic, coords = "polar", (False, True), _Polar(*domain.origin)
        dirichlet = ((0, -1) if inner else (-1,), ())
        weights = [_trapezoid(r) * r, np.full(shape[1], 2 * math.pi / shape[1])]

    d = len(shape)
    xi = np.empty(shape + (d,))
    for k, ax in enumerate(axes):
        xi[..., k] = ax.reshape((-1,) + (1,) * (d - 1 - k))
    on_bdy = np.zeros(shape, dtype=bool)
    for k, ends in enumerate(dirichlet):
        on_bdy[(slice(None),) * k + (list(ends),)] = True
    cell_weights = weights[0]
    for w in weights[1:]:
        cell_weights = np.multiply.outer(cell_weights, w)
    return Grid(domain, family, axes, shape, periodic, dirichlet, coords, xi.reshape(-1, d),
                coords.tensor(axes), np.flatnonzero(~on_bdy), np.flatnonzero(on_bdy),
                cell_weights.ravel())


def _smallest_diffusion(coeffs: CoefficientSet, points):
    """The smallest eigenvalue of the diffusion matrix over ``points`` (every
    k-th of them beyond 20,000), in closed form for a 1 x 1 or 2 x 2 matrix."""
    if len(points) > 20000:
        points = points[:: len(points) // 20000 + 1]
    a = coeffs.diffusion(points)
    if a.shape[1] == 1:
        return float(np.min(a))
    mean, half_gap = (a[:, 0, 0] + a[:, 1, 1]) / 2, (a[:, 0, 0] - a[:, 1, 1]) / 2
    return float(np.min(mean - np.hypot(half_gap, a[:, 0, 1])))


def layer_scale(coeffs: CoefficientSet, grid: Grid):
    """sqrt(delta-free layer scale) ingredients: (a_min, V_max) over the grid."""
    return (_smallest_diffusion(coeffs, grid.points),
            float(np.max(coeffs.intensity(grid.points))))


def suggest_resolution(domain: Domain, delta, coeffs: CoefficientSet, factor=0.25):
    """Nodes per axis so the spacing is ``factor`` times the layer width scale.

    Acceptance runs use factor <= 0.25; smaller factors cut the O(h^2)
    discretization error further.  At most 400,001.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError(f"delta must be finite and > 0, got {delta!r}")
    probe = build_grid(domain, 11, 16)
    amin, vmax = layer_scale(coeffs, probe)
    h = factor * math.sqrt(delta * amin / vmax)
    # boundary layers sit across the axes with Dirichlet ends
    length = max(ax[-1] - ax[0] for ax, ends in zip(probe.axes, probe.dirichlet) if ends)
    return int(min(400001, max(11, math.ceil(length / h) + 1)))


def _check_layer_resolution(delta, coeffs, grid, vmax, allow_coarse):
    if vmax <= 0:
        return
    amin = _smallest_diffusion(coeffs, grid.points)
    h = max(hk for hk, ends in zip(grid.spacing, grid.dirichlet) if ends)
    limit = 0.5 * math.sqrt(delta * amin / vmax)
    if h > limit:
        msg = (f"grid spacing {h:.3e} does not resolve the boundary layer: it must be "
               f"<= {limit:.3e} = 0.5*sqrt(delta*a_min/V_max); raise --grid-n or the "
               f"grid factor")
        if allow_coarse:
            warnings.warn(msg)
        else:
            raise ValidationError(msg)


def _stencil(delta, coeffs: CoefficientSet, grid: Grid, allow_coarse):
    """(stencil, v): delta*G_h - diag(V) as {offset: coefficients at the interior
    nodes}, an offset counting the steps along each grid axis, (0, ..., 0) the
    node itself; and V at the interior nodes, from the one evaluation of V.
    Each coefficient broadcasts to the interior block (``Grid.block``), of length
    1 along the axes it does not vary along: metric weights, reflecting ends and a
    constant a_kk are per axis; V, a varying a_kk, drift and a12 per node.

    Per grid axis k: a flux-form second order stencil with a_kk at the face
    centres times the metric weight J_face / (J h_k,face^2), J the product of
    the scale factors h (1 on cartesian axes, r_face/r radial, 1/r^2 angular),
    and a centred drift b . e_k / h_k.  A reflecting axis end closes its face
    and takes a one-sided drift difference, the closed side's on the node.
    """
    intensity = coeffs.intensity.eval(grid.points)
    _check_layer_resolution(delta, coeffs, grid, float(np.max(intensity)), allow_coarse)
    if grid.family == "polar" and not coeffs.diffusion.is_isotropic():
        raise ValidationError("polar grids support isotropic diffusion only")
    d = len(grid.shape)
    me, shape = grid.interior, tuple(len(rows) for rows in grid.block)
    block = [ax[rows.start:rows.stop] for ax, rows in zip(grid.axes, grid.block)]
    scale = grid.coords.scales(block)
    jac = math.prod(scale)
    centre = (0,) * d
    along = lambda k, s: tuple(s * (axis == k) for axis in range(d))
    v = intensity[me]
    stencil = {centre: -v.reshape(shape)}
    if d == 2 and (a12 := coeffs.diffusion.entry(0, 1)).constant_value() != 0.0:
        # box grids only (polar diffusion is isotropic): symmetric a12 cross terms
        # via centered difference of centered differences
        c = delta * 0.5 / (4 * grid.spacing[0] * grid.spacing[1])
        at = lambda p, q: me + p * grid.shape[1] + q
        a = {pq: a12.eval(grid.points[at(*pq)]) for pq in ((1, 0), (-1, 0), (0, 1), (0, -1))}
        for p in (1, -1):
            for q in (1, -1):
                stencil[p, q] = (c * p * q * (a[p, 0] + a[0, q])).reshape(shape)

    drift = None  # b . e_k per node, unless every component is the zero constant
    if any(b.constant_value() != 0.0 for b in coeffs.drift.components):
        bvals = np.stack([b.eval(grid.points[me]) for b in coeffs.drift.components], axis=1)
        if np.any(bvals):
            units = grid.coords.units(grid.coordinates[me])
            drift = np.einsum("...kj,...j->...k", units, bvals).reshape(shape + (d,))
    one_sided = 0.0  # joins the node's own coefficient after the faces of every axis
    for k, (h, n, rows) in enumerate(zip(grid.spacing, grid.shape, grid.block)):
        # +1 (-1) at an interior node on a reflecting low (high) end of axis k
        index = np.arange(rows.start, rows.stop).reshape((-1,) + (1,) * (d - 1 - k))
        wall = 0 if grid.periodic[k] or len(grid.dirichlet[k]) == 2 \
            else (index == 0).astype(int) - (index == n - 1)
        a_kk = coeffs.diffusion.entry(k, k)
        for s in (1, -1):
            faces = block[:k] + [block[k] + s * h / 2] + block[k + 1:]
            face_scale = grid.coords.scales(faces)
            weight = math.prod(face_scale) / (jac * face_scale[k] ** 2) * (wall != -s)
            a = a_kk.constant_value()
            if a is None:
                a = a_kk.eval(grid.coords.tensor(faces)).reshape(shape)
            c = delta * 0.5 * a * weight / h**2
            stencil[along(k, s)] = c
            stencil[centre] -= c
        if drift is not None:  # centred; one-sided into the domain at a reflecting end
            c = delta * (drift[..., k] / scale[k]) / ((2 - np.abs(wall)) * h)
            for s in (1, -1):
                stencil[along(k, s)] = stencil[along(k, s)] + s * c * (wall != -s)
                one_sided = one_sided + s * c * (wall == -s)
    stencil[centre] += one_sided
    return stencil, v


def _columns(stencil, grid: Grid, ids):
    """The rows of ``stencil`` at the node columns ``ids`` (sorted flat ids), as COO:
    each offset's neighbours taken as ``DiscreteOperator.apply`` takes them."""
    import scipy.sparse as sp
    nodes = grid.padded(np.arange(grid.n_nodes))
    cols = np.concatenate([nodes[grid.shifted(offset)].ravel() for offset in stencil])
    rows = np.tile(np.arange(len(grid.interior)), len(stencil))
    slot = np.full(grid.n_nodes, -1)
    slot[ids] = np.arange(len(ids))
    keep = slot[cols] >= 0
    block = tuple(len(rows) for rows in grid.block)
    values = np.concatenate([np.broadcast_to(c, block).ravel() for c in stencil.values()])
    return sp.coo_matrix((values[keep],
                          (rows[keep], slot[cols[keep]])), shape=(len(grid.interior), len(ids)))


def assemble_local(delta, coeffs: CoefficientSet, grid: Grid, allow_coarse=False):
    """(A_loc, B_bc): the local operator delta*G_h - diag(V) (``_stencil``) from
    interior to interior nodes, and the coupling of boundary values into them."""
    stencil, _ = _stencil(delta, coeffs, grid, allow_coarse)
    return (_columns(stencil, grid, grid.interior).tocsc(),
            _columns(stencil, grid, grid.boundary).tocsr())


def mu_quadrature_weights(coeffs: CoefficientSet, grid: Grid):
    """Trapezoid weights times the redistribution density, normalized to sum 1."""
    w = grid.cell_weights * coeffs.redistribution.eval(grid.points)
    total = w.sum()
    if not total > 0:
        raise ValidationError("mu quadrature weights are all zero")
    return w / total


@dataclass(frozen=True)
class DiscreteOperator:
    """delta*G_h - diag(V) plus the rank-one redistribution coupling v w^T.  The
    local part is the stencil: A_loc and B_bc are built from it on first access,
    which only the sparse LU makes."""

    grid: Grid
    delta: float
    v: np.ndarray          # intensity at interior nodes
    w_all: np.ndarray      # mu weights over all nodes, sum 1
    stencil: dict          # the local part: {offset: arrays that broadcast to the interior block}

    @property
    def w_interior(self):
        return self.w_all[self.grid.interior]

    @property
    def w_boundary(self):
        return self.w_all[self.grid.boundary]

    @functools.cached_property
    def A_loc(self):
        """Interior x interior, a scipy.sparse CSC matrix."""
        return _columns(self.stencil, self.grid, self.grid.interior).tocsc()

    @functools.cached_property
    def B_bc(self):
        """Interior x boundary, a scipy.sparse CSR matrix."""
        return _columns(self.stencil, self.grid, self.grid.boundary).tocsr()

    def apply(self, values):
        """The rows of [A_loc B_bc] times ``values`` over all nodes, from the stencil:
        the products summed in ascending order of flat displacement (the offsets'
        lexicographic order) from the first one on, in 1D the order of a CSC
        product, bit for bit."""
        x = self.grid.padded(values)
        terms = (c * x[self.grid.shifted(offset)] for offset, c in sorted(self.stencil.items()))
        out = next(terms)
        for term in terms:
            out += term
        return out.ravel()


def assemble_operator(delta, coeffs: CoefficientSet, grid: Grid,
                      allow_coarse=False) -> DiscreteOperator:
    stencil, v = _stencil(delta, coeffs, grid, allow_coarse)
    w = mu_quadrature_weights(coeffs, grid)
    if abs(w.sum() - 1.0) > 1e-8:
        raise ValidationError("discrete mu weights do not sum to 1")
    return DiscreteOperator(grid, float(delta), v, w, stencil)


class _ModeSolver:
    """A local solver that works in an orthonormal basis of the interior
    vectors: ``to_modes`` gives a vector's coefficients in it as a new array,
    ``solve_modes`` solves A on coefficients (it may overwrite them) and
    ``from_modes`` goes back.  The basis preserves dot products, so inverse
    iteration can run on coefficients and transform only at its two ends."""

    def solve(self, rhs):
        return self.from_modes(self.solve_modes(self.to_modes(rhs)))


class _LocalSolver(_ModeSolver):
    """One sparse LU factorization (``lu``) of P A P^T in that column order, A a
    2D operator's local part and P the grid's nested-dissection ``order``.  A
    solve permutes the right-hand side and the solution.  Its basis is the
    identity."""

    def __init__(self, op: DiscreteOperator):
        import scipy.sparse.linalg as spla
        self.order = _nested_dissection(op.grid)
        try:
            self.lu = spla.splu(op.A_loc[self.order][:, self.order].tocsc(), permc_spec="NATURAL")
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"sparse LU failed: {err}") from err

    @staticmethod
    def to_modes(x):
        return x

    from_modes = to_modes

    def solve_modes(self, rhs):
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x


# Stencil coefficients that differ by at most this much, relative, count as
# equal: a radial V evaluated at cartesian points differs in its last bits
# from angle to angle.
SEPARABLE_RTOL = 8 * np.finfo(float).eps


class _SeparableSolver(_ModeSolver):
    """Fast diagonalization of a local part that separates along axis 1, and the
    tridiagonal solve of a 1D local part, the case with no axis 1.

    With the row-major interior as an m0 x m1 block (i, j), A must couple
    only axis neighbours, and every coefficient of its stencil must be
    the same at every j, with equal +1 and -1 coefficients c(i) along j.  Then
    A = B (x) I + diag(c) (x) T, with B tridiagonal in i and T the second
    difference in j: Dirichlet across a box axis, periodic around a ring.  The
    basis is the orthonormal eigenvectors of T along j (Lynch, Rice & Thomas
    1964): sines on a box, the orthonormal DST-I, which is its own inverse, and
    around a ring the real and imaginary parts of the orthonormal real FFT, the
    paired modes 0 < k < m1/2 weighed by sqrt(2).  In it A is one tridiagonal
    system B + lambda_k diag(c) per mode, stacked mode after mode into one and
    factored once by LAPACK ``gttrf`` (banded LU with partial pivoting).  In 1D,
    A = B: one mode, coupling 0, and the identity basis.  scipy.fft is imported
    by a 2D set-up only.
    """

    def __init__(self, shape, periodic, lower, middle, upper, coupling):
        from scipy.linalg import lapack
        self.shape, self.periodic = shape, periodic
        m0, m1 = shape[0], math.prod(shape[1:])
        if len(shape) > 1:
            import scipy.fft
            self.fft = scipy.fft
        # in 1D (coupling 0) the one sine mode's lambda adds -0.0: A = B bit for bit
        if periodic:  # real Fourier modes k = 0 .. m1/2, real and imaginary parts
            k = np.arange(m1 // 2 + 1)
            lam = -4 * np.sin(math.pi * k / m1) ** 2
            self.weight = np.where((k > 0) & (2 * k < m1), math.sqrt(2), 1.0)
        else:  # sines k = 1 .. m1
            lam = -4 * np.sin(math.pi * np.arange(1, m1 + 1) / (2 * (m1 + 1))) ** 2
        self.size = len(lam) * m0  # rows of the stacked system
        bands = np.zeros((2, len(lam), m0))  # sub- and superdiagonal, 0 between modes
        bands[0, :, :-1], bands[1, :, :-1] = lower[1:], upper[:-1]
        # scipy's gttrf and gttrs take no system under 3 rows: decoupled rows of 1 fill it up
        pad = np.zeros(max(0, 3 - bands[0].size))
        dl, du = (np.append(band, pad)[:-1] for band in bands)
        d = np.append(middle + lam[:, None] * coupling, pad + 1)
        *self.factors, info = lapack.dgttrf(dl, d, du)
        self.gttrs = lapack.dgttrs
        self.pad = len(pad)
        if info > 0:
            raise SolverError("tridiagonal factor is exactly singular")

    @classmethod
    def of(cls, op: DiscreteOperator):
        """The solver read from ``op``'s stencil, or None where the stencil does not
        separate.  A 1D stencil always does: it holds the offsets -1, 0 and +1 only."""
        grid = op.grid
        if len(grid.shape) == 1:
            m0 = len(grid.block[0])
            lower, middle, upper = (np.broadcast_to(op.stencil[(s,)], m0) for s in (-1, 0, 1))
            return cls((m0,), False, lower, middle, upper, 0.0)
        offsets = ((-1, 0), (0, 0), (1, 0), (0, 1), (0, -1))
        if not (grid.periodic[1] or len(grid.dirichlet[1]) == 2) or set(op.stencil) != set(offsets):
            return None
        m0, m1 = (len(axis) for axis in grid.block)
        entries = [np.atleast_2d(op.stencil[o]) for o in offsets]
        close = lambda a, b: np.all(np.abs(a - b) <= SEPARABLE_RTOL * np.abs(b))
        lower, middle, upper, c, c_behind = (np.broadcast_to(e[:, 0], m0) for e in entries)
        # an entry with a length-1 axis 1 is the same at every j by construction
        if not all(close(e, e[:, :1]) for e in entries if e.shape[1] > 1) or not close(c_behind, c):
            return None
        return cls((m0, m1), grid.periodic[1], lower, middle + 2 * c, upper, c)

    def to_modes(self, x):
        """Mode after mode, the m0 coefficients of each along axis 0; around a ring
        the real parts of every mode, then the imaginary ones (0 at k = 0 and
        k = m1/2, which have none)."""
        if len(self.shape) == 1:
            return np.array(x)
        m0, m1 = self.shape
        x = x.reshape(m0, m1).T
        if not self.periodic:
            return self.fft.dst(x, type=1, axis=0, norm="ortho").ravel()
        f = self.fft.rfft(x, axis=0, norm="ortho")
        modes = np.empty((2, *f.shape))
        np.multiply(f.real, self.weight[:, None], out=modes[0])
        np.multiply(f.imag, self.weight[:, None], out=modes[1])
        return modes.ravel()

    def from_modes(self, y):
        if len(self.shape) == 1:
            return y
        m0, m1 = self.shape
        if not self.periodic:
            return self.fft.dst(y.reshape(m1, m0).T, type=1, axis=1, norm="ortho").ravel()
        real, imag = y.reshape(2, -1, m0)
        f = np.empty((m0, len(real)), complex)
        np.divide(real.T, self.weight, out=f.real)
        np.divide(imag.T, self.weight, out=f.imag)
        return self.fft.irfft(f, n=m1, axis=1, norm="ortho", overwrite_x=True).ravel()

    def solve_modes(self, b):
        """The stacked system solved for the box's coefficients, or for a ring's real
        and for its imaginary parts; it may overwrite ``b``."""
        b = b.reshape(-1, self.size)
        padded = np.pad(b, ((0, 0), (0, self.pad))) if self.pad else b
        return self.gttrs(*self.factors, padded.T, overwrite_b=1)[0].T[:, :self.size].ravel()


class RankOneSolver:
    """Solves (A + v w^T) x = rhs for a ``DiscreteOperator``, reusing one set-up
    of a local solver for its local part A.

    The set-up solve is the no-jump probability: q = A^{-1}(-B 1) at the
    interior nodes, B = B_bc, and u = q with 1 on the boundary (``no_jump``).
    The rows of delta*G_h sum to zero, so A 1 + B 1 = -v and A^{-1} v = q - 1
    = z.  The Sherman-Morrison denominator 1 + w_int . z is then w . u, the
    mu-mass of the no-jump probability (w sums to 1): a sum of nonnegative
    terms, kept positive by the discrete maximum principle (u > 0), with no
    cancellation however small it gets.  One more local solve per right-hand
    side.  ``solve_modes`` makes the same step on coefficients in the local
    solver's basis, with z and w transformed once, on its first call.
    """

    def __init__(self, op: DiscreteOperator):
        self.local = _SeparableSolver.of(op) or _LocalSolver(op)
        q = self.local.solve(-op.apply(_on_grid(op.grid, 0.0, 1.0).values))
        if not np.all(np.isfinite(q)):
            raise SolverError("singular or ill-conditioned local solve")
        self.no_jump = _on_grid(op.grid, q, 1.0)
        self.w = op.w_interior
        self.z = q - 1.0
        self.denom = dot(op.w_all, self.no_jump.values)

    def solve(self, rhs):
        y = self.local.solve(rhs)
        return y - self.z * (dot(self.w, y) / self.denom)

    @functools.cached_property
    def z_modes(self):
        return self.local.to_modes(self.z)

    @functools.cached_property
    def w_modes(self):
        return self.local.to_modes(self.w)

    def solve_modes(self, rhs):
        """``solve`` on mode coefficients; it may overwrite ``rhs``."""
        y = self.local.solve_modes(rhs)
        return y - self.z_modes * (dot(self.w_modes, y) / self.denom)


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray  # (N,)

    def at(self, x):
        """Value at a point of the closed domain by multilinear interpolation in
        grid coordinates; a point outside raises ValidationError."""
        g = self.grid
        g.domain.require_inside(x, "evaluation point")
        xi = g.coords.from_cartesian(np.atleast_1d(np.asarray(x, dtype=float)))
        value = self.values.reshape(g.shape)
        for q, ax, n, h, periodic in zip(xi, g.axes, g.shape, g.spacing, g.periodic):
            i = int(np.searchsorted(ax, q, side="right")) - 1
            i = i % n if periodic else min(max(i, 0), n - 2)
            t = (q - ax[i]) / h
            lo, hi = np.take(value, [i, i + 1], axis=0, mode="wrap")
            value = (1 - t) * lo + t * hi
        return float(value)

    def to_csv(self, path):
        header = [f"x{i}" for i in range(self.grid.points.shape[1])] + ["value"]
        write_csv(path, header, np.column_stack([self.grid.points, self.values]))


def _on_grid(grid: Grid, interior_values, boundary_values) -> GridFunction:
    values = np.empty(grid.n_nodes)
    values[grid.interior], values[grid.boundary] = interior_values, boundary_values
    return GridFunction(grid, values)


def solve_no_jump_prob(delta, coeffs: CoefficientSet, grid: Grid) -> GridFunction:
    """Probability of reaching the boundary before the exponential clock rings.

    Solves delta*G u = V u in the domain with u = 1 on the boundary; the
    discrete maximum principle keeps interior values in (0, 1].
    """
    return RankOneSolver(assemble_operator(delta, coeffs, grid)).no_jump


def solve_exit_functional(delta, coeffs: CoefficientSet, grid: Grid, f=None) -> GridFunction:
    """Expected boundary data at the exit point, via the nonlocal Dirichlet solve.

    The redistribution integral couples every interior row to all nodes;
    boundary-node contributions of that integral move to the right-hand side.
    """
    op = assemble_operator(delta, coeffs, grid)
    f = coeffs.boundary_data if f is None else f
    fb = f.eval(grid.points[grid.boundary])
    rhs = -op.apply(_on_grid(grid, 0.0, fb).values) - op.v * dot(op.w_boundary, fb)
    return _on_grid(grid, RankOneSolver(op).solve(rhs), fb)


@dataclass(frozen=True)
class EigenResult:
    lambda0: float
    eigenfunction: GridFunction
    iterations: int
    residual: float


def principal_eigenvalue(delta, coeffs: CoefficientSet, grid: Grid) -> EigenResult:
    """Smallest decay rate of the killed process, by inverse power iteration.

    Homogeneous Dirichlet data: the redistribution row is restricted to
    interior nodes without renormalization (boundary values contribute
    nothing to the integral of a function vanishing there).  The iteration
    runs on coefficients in the local solver's orthonormal basis (see
    ``_ModeSolver``), so a step is one stacked solve and no transform.  It
    starts from the set-up's no-jump deficit 1 - q = -z, which is (-M)^{-1} 1
    up to a factor when V is constant.  A step is one rank-one solve
    y = (-M)^{-1} psi with ||psi|| = 1, and lambda and the residual are read
    from it: lambda = 1/(psi . y), the inverse Rayleigh quotient, which does
    not cancel however small lambda gets, and ||psi - lambda y||/||y||, the
    residual of the next iterate y/||y||.  The iteration stops once that
    residual is at most 1e-10 and lambda moved by at most 1e-12 relative in
    one step; 10,000 steps without that raise SolverError.  (-M)^{-1} is
    nonnegative (Sherman-Morrison with w . u > 0), so from a positive start
    every iterate stays positive; the sign and positivity checks and
    ``residual``, the true ||(-M) psi - lambda0 psi|| of the returned
    eigenfunction, are taken on the nodes after the loop.
    """
    op = assemble_operator(delta, coeffs, grid)
    solver = RankOneSolver(op)
    psi = -solver.z_modes
    psi = psi / math.sqrt(dot(psi, psi))
    lam_prev = math.inf
    for it in range(1, 10_001):
        y = solver.solve_modes(-psi)    # (-M) y = psi
        norm, psi_y = math.sqrt(dot(y, y)), dot(psi, y)
        if not np.isfinite(norm) or psi_y == 0.0:
            raise SolverError("inverse iteration produced a degenerate vector")
        lam = 1.0 / psi_y
        r = psi - lam * y
        res = math.sqrt(dot(r, r)) / norm
        psi = y / norm
        if res <= 1e-10 and abs(lam - lam_prev) <= 1e-12 * abs(lam):
            break
        lam_prev = lam
    else:
        raise SolverError(f"inverse power iteration did not converge in 10000 steps "
                          f"(residual {res:.3e})")
    psi = solver.local.from_modes(psi)
    if psi.sum() < 0:
        psi = -psi
    if lam <= 0:
        raise SolverError(f"nonpositive eigenvalue {lam:.3e}: discretization failure")
    if np.min(psi) < -1e-8 * np.max(psi):
        raise SolverError("principal eigenfunction changed sign; discretization failure")
    phi = _on_grid(grid, psi, 0.0)
    r = op.apply(phi.values) + op.v * dot(op.w_interior, psi) + lam * psi  # -((-M) psi - lam psi)
    return EigenResult(lambda0=lam, eigenfunction=phi, iterations=it, residual=math.sqrt(dot(r, r)))


@dataclass(frozen=True)
class BoundaryFlux:
    nodes: np.ndarray
    normals: np.ndarray
    values: np.ndarray  # n . a grad(u) at each boundary node


def boundary_flux(u: GridFunction, coeffs: CoefficientSet) -> BoundaryFlux:
    """n . a grad(u) at the boundary nodes.

    The derivative along the grid axis normal to the boundary is the
    one-sided second-order 3-point stencil into the domain; along the other
    axes it is the centred difference of the neighbouring boundary values
    where both exist (they vanish for constant Dirichlet data), else zero.
    """
    g = u.grid
    ids = g.boundary
    nodes = g.points[ids]
    normals = g.boundary_normals
    index, units = np.unravel_index(ids, g.shape), g.coords.units(g.coordinates[ids])
    scale = [np.broadcast_to(s, g.shape)[index] for s in g.coords.scales(g.axes)]
    grad = np.zeros(nodes.shape)
    taken = np.zeros(len(ids), dtype=bool)
    for k, (h, n) in enumerate(zip(g.spacing, g.shape)):
        at = lambda shift: u.values[g.step(ids, index[k], k, shift)]
        high = (index[k] == n - 1) & (-1 in g.dirichlet[k])
        # the normal axis is the first one on whose Dirichlet end the node sits
        normal = ((index[k] == 0) & (0 in g.dirichlet[k]) | high) & ~taken
        taken |= normal
        s = np.where(high, -1, 1)
        one_sided = s * (-3 * u.values[ids] + 4 * at(s) - at(2 * s)) / (2 * h)
        both = g.periodic[k] | ((index[k] > 0) & (index[k] < n - 1))
        centred = np.where(both, (at(1) - at(-1)) / (2 * h), 0.0)
        grad += (np.where(normal, one_sided, centred) / scale[k])[:, None] * units[:, k]
    flux = np.einsum("ni,nij,nj->n", normals, coeffs.diffusion(nodes), grad)
    return BoundaryFlux(nodes, normals, flux)
