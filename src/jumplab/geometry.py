"""Bounded domains and their boundary machinery.

Two shape families cover the four supported domains:

- ``Box(lo, hi)``, an axis-aligned box: the interval is the 1D box and the
  rectangle the 2D box.
- ``Ring(origin, r_inner, r_outer)``, the region between two circles about
  ``origin``: the disk is the ring with ``r_inner = 0`` and no inner circle,
  the annulus has both circles.

Build them with ``Domain.interval``, ``rectangle``, ``disk`` and ``annulus``.
Both families admit exact signed distances, inward normals and quadrature
rules, which keeps the boundary integrals of the limit formulas free of mesh
error.  Rectangle corners are avoided by placing boundary quadrature nodes at
edge-interior points (midpoint rule per edge); their surface measure is zero.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError

# Boundary membership tolerance, relative to the domain diameter.
BOUNDARY_TOL_FACTOR = 1e-9


def as_points(x, dim):
    """Normalize ``x`` to an (n, dim) float array.

    Accepts a scalar (1D only), a flat array (a batch in 1D, a single point
    otherwise) or an (n, dim) array.  Returns (points, single) where
    ``single`` says the input was one point.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given for a {dim}D domain")
        return pts.reshape(1, 1), True
    if pts.ndim == 1:
        if dim == 1:
            return pts.reshape(-1, 1), False
        if pts.shape[0] != dim:
            raise ValueError(f"expected a point of dimension {dim}, got shape {pts.shape}")
        return pts.reshape(1, dim), True
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts, False
    raise ValueError(f"cannot interpret shape {pts.shape} as points in {dim}D")


# Gregory end weights, in units of the spacing: the trapezoid rule with these
# at its three end nodes is exact for cubics.  The change is local to the
# ends, so a kink inside the interval costs it no more than the plain rule.
_GREGORY_ENDS = np.array([3 / 8, 7 / 6, 23 / 24])


def _trapezoid(lo, hi, resolution, end_corrected=False):
    m, least = int(resolution), (6 if end_corrected else 2)
    if m < least:
        raise ValueError(f"resolution must be >= {least} per axis")
    x = np.linspace(lo, hi, m)
    h = (hi - lo) / (m - 1)
    w = np.full(m, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    if end_corrected:
        w[:3] = h * _GREGORY_ENDS
        w[-3:] = h * _GREGORY_ENDS[::-1]
    return x, w


def _nodes_per_piece(resolution):
    m = int(resolution)
    if m < 2:
        raise ValueError("resolution must be >= 2 per boundary component")
    return m


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes on the boundary with surface-measure weights and inward normals.

    ``component`` labels the smooth boundary piece each node belongs to
    (edges of a rectangle, inner/outer circle of an annulus).
    """

    nodes: np.ndarray    # (m, d)
    weights: np.ndarray  # (m,)
    normals: np.ndarray  # (m, d), unit inward
    component: np.ndarray  # (m,) int


@dataclass(frozen=True)
class InteriorQuadrature:
    nodes: np.ndarray    # (m, d)
    weights: np.ndarray  # (m,)


class Domain:
    """A bounded domain: a ``Box`` or a ``Ring``.

    Each family supplies ``dim``, ``diameter``, ``volume``, ``surface_measure``,
    ``bounding_box`` (lo, hi corner arrays), ``center`` (an interior point),
    ``coordinate_range`` (the range of ``boundary_coordinate``), the two
    quadrature rules, and the batch forms ``_signed_distance``, ``_project``,
    ``_normal`` and ``_coordinate`` on (n, dim) arrays.  The public point
    queries below also take single points.
    """

    # -- constructors -------------------------------------------------------

    @staticmethod
    def interval(a, b):
        if not b > a:
            raise ValueError("interval needs b > a")
        return Box((float(a),), (float(b),))

    @staticmethod
    def rectangle(x0, y0, x1, y1):
        if not (x1 > x0 and y1 > y0):
            raise ValueError("rectangle needs positive side lengths")
        return Box((float(x0), float(y0)), (float(x1), float(y1)))

    @staticmethod
    def disk(cx, cy, radius):
        if not radius > 0:
            raise ValueError("disk needs radius > 0")
        return Ring((float(cx), float(cy)), 0.0, float(radius))

    @staticmethod
    def annulus(cx, cy, r_inner, r_outer):
        if not (r_inner > 0 and r_outer > r_inner):
            raise ValueError("annulus needs 0 < r_inner < r_outer")
        return Ring((float(cx), float(cy)), float(r_inner), float(r_outer))

    @property
    def boundary_tol(self):
        return BOUNDARY_TOL_FACTOR * self.diameter

    # -- point queries -------------------------------------------------------

    def signed_distance(self, x):
        """Distance to the boundary, positive inside, negative outside."""
        pts, single = as_points(x, self.dim)
        sd = self._signed_distance(pts)
        return float(sd[0]) if single else sd

    def contains(self, x):
        return self.signed_distance(x) > 0.0

    def require_inside(self, x, what):
        """Raise ValidationError if a point of ``x`` lies farther than the boundary
        tolerance outside the closed domain, or is not a point of this dimension;
        ``what`` names it in the message."""
        try:
            sd = np.min(self.signed_distance(x))
        except ValueError as exc:
            raise ValidationError(f"{what}: {exc}") from None
        if not sd >= -self.boundary_tol:
            raise ValidationError(f"{what} {np.asarray(x).tolist()} lies outside the "
                                  f"domain {self!r} (signed distance {sd:.3e})")

    def project_to_boundary(self, x):
        """Nearest boundary point (exact for both families)."""
        pts, single = as_points(x, self.dim)
        out = self._project(pts)
        return out[0] if single else out

    def inward_normal(self, x):
        """Unit inward normal at a boundary point.

        Raises GeometryError if the point is further than the boundary
        tolerance from the boundary.
        """
        pts, single = as_points(x, self.dim)
        sd = np.abs(self._signed_distance(pts))
        if np.any(sd > self.boundary_tol):
            worst = float(np.max(sd))
            raise GeometryError(
                f"point not on the boundary: |signed distance| = {worst:.3e} "
                f"exceeds tolerance {self.boundary_tol:.3e}")
        n = self._normal(pts)
        return n[0] if single else n

    def boundary_coordinate(self, x):
        """Scalar coordinate along the boundary, for histogram binning.

        Returns (coord, component), with coord in ``coordinate_range``.
        Interval: the x value itself, component 0 (left) or 1 (right).
        Rectangle: arclength counterclockwise from (x0, y0), component = edge
        index.  Disk: angle in [0, 2pi), component 0.  Annulus: angle in
        [0, 2pi), component 0 (inner) or 1 (outer).
        """
        pts, single = as_points(x, self.dim)
        coord, comp = self._coordinate(pts)
        if single:
            return float(coord[0]), int(comp[0])
        return coord, comp


@dataclass(frozen=True, repr=False)
class Box(Domain):
    """The axis-aligned box [lo, hi]: an interval in 1D, a rectangle in 2D."""

    lo: tuple
    hi: tuple

    def __repr__(self):
        return f"{('interval', 'rectangle')[self.dim - 1]}{self.lo + self.hi}"

    @property
    def dim(self):
        return len(self.lo)

    @property
    def _sides(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def diameter(self):
        return math.hypot(*self._sides)

    @property
    def volume(self):
        return math.prod(self._sides)

    @property
    def surface_measure(self):
        """Total boundary measure: counting measure (=2) for an interval."""
        s = self._sides
        # the two faces across each axis, each the product of the other sides
        return 2.0 * sum(math.prod(s[:k] + s[k + 1:]) for k in range(self.dim))

    @property
    def bounding_box(self):
        return np.array(self.lo), np.array(self.hi)

    @property
    def center(self):
        return (np.array(self.lo) + np.array(self.hi)) / 2.0

    @property
    def coordinate_range(self):
        return (self.lo[0], self.hi[0]) if self.dim == 1 else (0.0, self.surface_measure)

    def _signed_distance(self, pts):
        sd = None
        for k, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            g = np.minimum(pts[:, k] - lo, hi - pts[:, k])
            if sd is None:
                sd = g
                continue
            # outside two faces at once, the nearest boundary point is their corner
            corner = np.flatnonzero((sd < 0) & (g < 0))
            out = np.minimum(sd, g)
            out[corner] = -np.hypot(sd[corner], g[corner])
            sd = out
        return sd

    def _nearest_face(self, pts):
        """(axis, upper) of the face nearest each point; ties go to the first axis
        and then to its lower face."""
        lo, hi = self._corners
        gaps = np.stack([pts - lo, hi - pts], axis=2).reshape(len(pts), -1)
        face = np.argmin(np.abs(gaps), axis=1)
        return face // 2, face % 2 == 1

    @functools.cached_property
    def _corners(self):
        """``bounding_box``, built once; read only."""
        return self.bounding_box

    def _project(self, pts):
        lo, hi = self._corners
        low, high = pts <= lo, pts >= hi
        # clip, writing a face's own value onto the coordinates that reach it
        out = np.where(low, lo, np.where(high, hi, pts))
        # a row that clipped onto a face is its nearest boundary point already; only
        # rows strictly inside go through the face search
        on_face = low | high
        if np.count_nonzero(on_face) < on_face.size:  # some coordinate is inside
            rows = np.flatnonzero(~on_face.any(axis=1))
            if len(rows):
                axis, upper = self._nearest_face(out[rows])
                out[rows, axis] = np.where(upper, hi[axis], lo[axis])
        return out

    def _normal(self, pts):
        axis, upper = self._nearest_face(pts)
        n = np.zeros_like(pts)
        n[np.arange(len(pts)), axis] = np.where(upper, -1.0, 1.0)
        return n

    def _coordinate(self, pts):
        if self.dim == 1:
            (a,), (b,) = self.lo, self.hi
            return pts[:, 0].copy(), ((pts[:, 0] - a) > (b - pts[:, 0])).astype(int)
        (x0, y0), (x1, y1) = self.lo, self.hi
        x, y = pts[:, 0], pts[:, 1]
        comp = np.argmin(np.abs(np.stack([y - y0, x1 - x, y1 - y, x - x0], axis=1)), axis=1)
        w, h = x1 - x0, y1 - y0
        start = np.array([0.0, w, w + h, 2 * w + h])
        return start[comp] + np.choose(comp, [x - x0, y - y0, x1 - x, y1 - y]), comp

    def boundary_quadrature(self, resolution=400):
        """Quadrature over the boundary; ``resolution`` = nodes per edge.

        Interval boundaries carry counting measure: two nodes of weight one.
        """
        if self.dim == 1:
            return BoundaryQuadrature(np.array([self.lo, self.hi]), np.array([1.0, 1.0]),
                                      np.array([[1.0], [-1.0]]), np.array([0, 1]))
        m = _nodes_per_piece(resolution)
        (x0, y0), (x1, y1) = self.lo, self.hi
        nodes, weights, normals, comp = [], [], [], []
        edges = [  # (start, direction, length, inward normal)
            ((x0, y0), (1.0, 0.0), x1 - x0, (0.0, 1.0)),
            ((x1, y0), (0.0, 1.0), y1 - y0, (-1.0, 0.0)),
            ((x1, y1), (-1.0, 0.0), x1 - x0, (0.0, -1.0)),
            ((x0, y1), (0.0, -1.0), y1 - y0, (1.0, 0.0)),
        ]
        for e, (start, dvec, length, nvec) in enumerate(edges):
            s = (np.arange(m) + 0.5) / m * length
            nodes.append(np.array(start) + s[:, None] * np.array(dvec))
            weights.append(np.full(m, length / m))
            normals.append(np.tile(nvec, (m, 1)))
            comp.append(np.full(m, e, dtype=int))
        return BoundaryQuadrature(np.concatenate(nodes), np.concatenate(weights),
                                  np.concatenate(normals), np.concatenate(comp))

    def interior_quadrature(self, resolution=1000, end_corrected=False):
        """Trapezoid rule on the tensor grid with ``resolution`` nodes per axis.

        ``end_corrected`` adds Gregory end weights on every axis, which makes
        the rule exact for cubics in each coordinate.
        """
        rules = [_trapezoid(lo, hi, resolution, end_corrected)
                 for lo, hi in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*(x for x, _ in rules), indexing="ij", copy=False)
        weights = functools.reduce(np.multiply.outer, (w for _, w in rules))
        return InteriorQuadrature(np.stack(mesh, axis=-1).reshape(-1, self.dim), weights.ravel())


@dataclass(frozen=True, repr=False)
class Ring(Domain):
    """The region r_inner < |x - origin| < r_outer; a disk when r_inner = 0."""

    origin: tuple
    r_inner: float
    r_outer: float

    dim = 2
    coordinate_range = (0.0, 2 * math.pi)

    def __repr__(self):
        if self.has_inner:
            return f"annulus{self.origin + (self.r_inner, self.r_outer)}"
        return f"disk{self.origin + (self.r_outer,)}"

    @property
    def has_inner(self):
        """Whether the inner circle is part of the boundary (False for a disk)."""
        return self.r_inner > 0

    @property
    def diameter(self):
        return 2.0 * self.r_outer

    @property
    def volume(self):
        return math.pi * (self.r_outer ** 2 - self.r_inner ** 2)

    @property
    def surface_measure(self):
        return 2.0 * math.pi * (self.r_inner + self.r_outer)

    @property
    def bounding_box(self):
        c = np.array(self.origin)
        return c - self.r_outer, c + self.r_outer

    @property
    def center(self):
        if self.has_inner:  # midpoint of the annular gap, on the positive x axis
            return np.array([self.origin[0] + (self.r_inner + self.r_outer) / 2.0,
                             self.origin[1]])
        return np.array(self.origin)

    def _signed_distance(self, pts):
        # sqrt(dx^2 + dy^2) rather than np.hypot, which costs several times more;
        # a square overflows only past |dx| ~ 1e154, where the distance reads -inf,
        # still outside, and an underflowing one is below any radius's last digit
        rho = pts[:, 0] - self.origin[0]
        rho *= rho
        dy = pts[:, 1] - self.origin[1]
        dy *= dy
        rho += dy
        np.sqrt(rho, out=rho)
        inner = rho - self.r_inner if self.has_inner else None
        sd = np.subtract(self.r_outer, rho, out=rho)
        return sd if inner is None else np.minimum(inner, sd, out=sd)

    def _project(self, pts):
        v = pts - self.origin
        rho = np.linalg.norm(v, axis=1, keepdims=True)
        target = self.r_outer
        if self.has_inner:  # the nearer circle, chosen before rho is touched below
            target = np.where(np.abs(rho - self.r_inner) <= np.abs(rho - self.r_outer),
                              self.r_inner, self.r_outer)
        # a point at the exact origin projects along +x by convention
        v = np.where(rho > 0, v, [1.0, 0.0])
        rho = np.where(rho > 0, rho, 1.0)
        return self.origin + v / rho * target

    def _normal(self, pts):
        v = pts - self.origin
        rho = np.linalg.norm(v, axis=1, keepdims=True)
        unit = v / rho
        if not self.has_inner:
            return -unit
        on_inner = np.abs(rho[:, 0] - self.r_inner) <= np.abs(rho[:, 0] - self.r_outer)
        return np.where(on_inner[:, None], unit, -unit)

    def _coordinate(self, pts):
        dx, dy = pts[:, 0] - self.origin[0], pts[:, 1] - self.origin[1]
        coord = np.mod(np.arctan2(dy, dx), 2 * math.pi)
        if not self.has_inner:
            return coord, np.zeros(len(pts), dtype=int)
        rho = np.hypot(dx, dy)
        return coord, (np.abs(rho - self.r_outer) < np.abs(rho - self.r_inner)).astype(int)

    def boundary_quadrature(self, resolution=400):
        """Midpoint rule with ``resolution`` nodes on each circle, inner circle first."""
        m = _nodes_per_piece(resolution)
        th = 2 * math.pi * (np.arange(m) + 0.5) / m
        unit = np.stack([np.cos(th), np.sin(th)], axis=1)
        # (radius, sign of the inward normal along the outward radial direction)
        circles = ([(self.r_inner, 1.0)] if self.has_inner else []) + [(self.r_outer, -1.0)]
        return BoundaryQuadrature(
            np.concatenate([self.origin + r * unit for r, _ in circles]),
            np.concatenate([np.full(m, 2 * math.pi * r / m) for r, _ in circles]),
            np.concatenate([s * unit for _, s in circles]),
            np.repeat(np.arange(len(circles)), m))

    def interior_quadrature(self, resolution=1000, end_corrected=False):
        """Trapezoid rule on the polar grid with ``resolution`` nodes per axis.

        ``end_corrected`` adds Gregory end weights in r, which makes the rule
        exact for integrands r * p(r) with p a quadratic; the periodic rule in
        theta is exact for trigonometric polynomials of degree below
        ``resolution`` already.  On an annulus it also splits the radial rule
        at the mid radius, where the distance to the boundary has its kink:
        a node sits on the kink, and each half has Gregory ends.
        """
        n = int(resolution)
        if end_corrected and self.has_inner:
            mid = (self.r_inner + self.r_outer) / 2
            (r, wr), (r2, wr2) = (_trapezoid(lo, hi, n // 2 + 1, True)
                                  for lo, hi in ((self.r_inner, mid), (mid, self.r_outer)))
            wr[-1] += wr2[0]
            r, wr = np.concatenate([r, r2[1:]]), np.concatenate([wr, wr2[1:]])
        else:
            r, wr = _trapezoid(self.r_inner, self.r_outer, n, end_corrected)
        th = 2 * math.pi * np.arange(n) / n
        X = self.origin[0] + r[:, None] * np.cos(th)
        Y = self.origin[1] + r[:, None] * np.sin(th)
        W = np.outer(wr * r, np.full(n, 2 * math.pi / n))
        return InteriorQuadrature(np.stack([X.ravel(), Y.ravel()], axis=1), W.ravel())
