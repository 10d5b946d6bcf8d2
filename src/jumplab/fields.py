"""Coefficient fields with exact derivatives, and the differential operators.

A field's values are ``f.eval(pts)`` on an (n, d) point array, or ``f(x)``
on one point or a batch.  Its partial derivatives are fields too:
``f.derivative(beta)`` for a multi-index beta, the one place that checks the
declared order.  Builtin fields (polynomials, trigonometric waves, products
and sums of them) differentiate in closed form, so repeated applications of
the adjoint operator stay exact all the way to the boundary.  Nested
numerical differentiation there would be one-sided and noisy, which is why a
finite-difference fallback exists only for user-supplied black-box callables
and is flagged as reduced accuracy.

Operators, written for the generator  G = (1/2) div(a grad) + b . grad:

    apply_generator        G phi
    apply_adjoint          (1/2) div(a grad psi) - b . grad psi - (div b) psi
    apply_adjoint_power    m-fold composition of the adjoint
    nondivergence_drift    B = b + (1/2) div(a), the drift seen by the
                           simulated process (covariance comes from a)
    diffusion_root         lower-triangular s with s s^T = a(x)
"""
from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DerivativeOrderError, ValidationError
from .geometry import Domain, as_points
from .reductions import dot


def _as_multi_index(beta, dim):
    beta = tuple(int(b) for b in beta)
    if len(beta) != dim or any(b < 0 for b in beta):
        raise ValueError(f"bad multi-index {beta} for dimension {dim}")
    return beta


def multi_indices(dim, order):
    """All multi-indices of total order exactly ``order`` in ``dim`` variables."""
    if dim == 1:
        return [(order,)]
    return [(i, order - i) for i in range(order + 1)]


def _falling(e, k):
    # e * (e-1) * ... * (e-k+1)
    out = 1
    for j in range(k):
        out *= e - j
    return out


class ScalarField:
    """Base: real field on R^d; values from ``eval``, derivatives from ``derivative``."""

    dim: int
    max_order: float  # math.inf for analytic builtins

    def eval(self, pts):
        """Values at an (n, d) point array."""
        raise NotImplementedError

    def __call__(self, x):
        pts, single = as_points(x, self.dim)
        vals = self.eval(pts)
        return float(vals[0]) if single else vals

    def derivative(self, beta):
        """The ``beta`` partial derivative as a field (exact for analytic builtins).

        Raises DerivativeOrderError beyond the declared order.
        """
        beta = _as_multi_index(beta, self.dim)
        if sum(beta) > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {sum(beta)} exceeds declared order {self.max_order}")
        return self._derivative(beta) if any(beta) else self

    def _derivative(self, beta):
        # beta is non-zero and within the declared order
        raise NotImplementedError

    def gradient(self):
        return [self.derivative(_unit(self.dim, i)) for i in range(self.dim)]

    def constant_value(self):
        """The field's constant value, or None if not (recognizably) constant."""
        return None

    @property
    def reduced_accuracy(self):
        return False

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return Product(self, other)
        return LinearCombo(((float(other), self),))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PolyField(ScalarField):
    """Polynomial given by {multi-index exponent: coefficient}."""

    dim: int
    coeffs: tuple  # tuple of (exponent multi-index, coefficient)

    @staticmethod
    def from_dict(dim, coeffs):
        items = tuple(sorted((tuple(int(i) for i in e), float(c))
                             for e, c in coeffs.items() if c != 0.0))
        for e, _ in items:
            if len(e) != dim or any(i < 0 for i in e):
                raise ValueError(f"bad exponent {e} for dimension {dim}")
        return PolyField(dim, items)

    @staticmethod
    def constant(dim, value):
        return PolyField.from_dict(dim, {(0,) * dim: float(value)})

    @property
    def max_order(self):
        return math.inf

    def eval(self, pts):
        out = np.zeros(len(pts))
        for expo, c in self.coeffs:
            term = np.full(len(pts), c)
            for ax, e in enumerate(expo):
                if e > 0:
                    term = term * pts[:, ax] ** e
            out += term
        return out

    def _derivative(self, beta):
        new = {}
        for expo, c in self.coeffs:
            if any(b > e for e, b in zip(expo, beta)):
                continue
            coef = c
            for e, b in zip(expo, beta):
                coef *= _falling(e, b)
            new_e = tuple(e - b for e, b in zip(expo, beta))
            new[new_e] = new.get(new_e, 0.0) + coef
        return PolyField.from_dict(self.dim, new)

    def constant_value(self):
        if not self.coeffs:
            return 0.0
        if len(self.coeffs) == 1 and sum(self.coeffs[0][0]) == 0:
            return self.coeffs[0][1]
        return None


@dataclass(frozen=True)
class TrigWave(ScalarField):
    """amp * cos(freq . x + phase); sin comes in with a phase shift."""

    dim: int
    amp: float
    freq: tuple
    phase: float

    @staticmethod
    def make(dim, fn, freq, phase=0.0, amp=1.0):
        freq = tuple(float(f) for f in freq)
        if len(freq) != dim:
            raise ValueError("freq must have one entry per axis")
        if fn == "cos":
            off = 0.0
        elif fn == "sin":
            off = -math.pi / 2.0
        else:
            raise ValueError("fn must be 'sin' or 'cos'")
        return TrigWave(dim, float(amp), freq, float(phase) + off)

    @property
    def max_order(self):
        return math.inf

    def eval(self, pts):
        return self.amp * np.cos(pts @ np.asarray(self.freq) + self.phase)

    def _derivative(self, beta):
        m = sum(beta)
        coef = self.amp * math.prod(f ** b for f, b in zip(self.freq, beta))
        return TrigWave(self.dim, coef, self.freq, self.phase + m * math.pi / 2.0)


@dataclass(frozen=True)
class DistPowerField(ScalarField):
    """dist(x, boundary)^power times a smooth factor; values only (order 0).

    Used for intensities that vanish on the boundary to a prescribed order.
    The signed distance is clipped at zero outside the closure.
    """

    domain: Domain
    power: int
    factor: ScalarField

    @property
    def dim(self):
        return self.domain.dim

    @property
    def max_order(self):
        return 0

    def eval(self, pts):
        d = np.maximum(np.atleast_1d(self.domain.signed_distance(pts)), 0.0)
        return d ** self.power * self.factor.eval(pts)


class CallableField(ScalarField):
    """Black-box callable with finite-difference derivatives (reduced accuracy).

    Central second-order stencils, switching to one-sided next to the
    boundary; step h = 1e-5 * diameter.  Capped at second derivatives.
    Exists for user-supplied fields only; builtins carry exact derivatives.
    A derivative is the same callable with the multi-index ``beta`` pending:
    its values are the stencils applied to ``fn``.
    """

    def __init__(self, fn, domain, max_order=2):
        if max_order > 2:
            raise ValueError("finite-difference fallback supports order <= 2")
        self.fn = fn
        self.domain = domain
        self.dim = domain.dim
        self.max_order = int(max_order)
        self.h = 1e-5 * domain.diameter
        self.beta = (0,) * self.dim  # pending derivative of fn

    @property
    def reduced_accuracy(self):
        return True

    def _derivative(self, beta):
        out = copy.copy(self)
        out.beta = tuple(p + b for p, b in zip(self.beta, beta))
        out.max_order = self.max_order - sum(beta)
        return out

    def _values(self, pts):
        arg = pts if self.dim > 1 else pts[:, 0]
        try:  # vectorized callables are accepted directly
            out = np.asarray(self.fn(arg), dtype=float)
            if out.shape == (len(pts),):
                return out
        except (TypeError, ValueError):
            pass
        return np.asarray([self.fn(p if self.dim > 1 else p[0]) for p in pts], dtype=float)

    def eval(self, pts):
        return self._stencil(pts, self.beta)

    def _stencil(self, pts, beta):
        if not any(beta):
            return self._values(pts)
        # peel one derivative off the first active axis, recurse on the rest
        axis = next(i for i, b in enumerate(beta) if b > 0)
        rest = tuple(b - 1 if i == axis else b for i, b in enumerate(beta))
        h = self.h
        e = np.zeros(self.dim)
        e[axis] = 1.0
        tol = -self.domain.boundary_tol
        inside_p = self.domain.signed_distance(pts + h * e) > tol
        inside_m = self.domain.signed_distance(pts - h * e) > tol
        at = lambda sub, shift: self._stencil(pts[sub] + shift * e, rest)
        out = np.empty(len(pts))
        both = inside_p & inside_m
        if np.any(both):
            out[both] = (at(both, h) - at(both, -h)) / (2 * h)
        only_p = inside_p & ~inside_m
        if np.any(only_p):
            out[only_p] = (-3 * at(only_p, 0.0) + 4 * at(only_p, h) - at(only_p, 2 * h)) / (2 * h)
        only_m = ~inside_p & inside_m
        if np.any(only_m):
            out[only_m] = (3 * at(only_m, 0.0) - 4 * at(only_m, -h) + at(only_m, -2 * h)) / (2 * h)
        return out


@dataclass(frozen=True)
class LinearCombo(ScalarField):
    terms: tuple  # tuple of (coefficient, field)

    @property
    def dim(self):
        return self.terms[0][1].dim

    @property
    def max_order(self):
        return min(f.max_order for _, f in self.terms)

    def eval(self, pts):
        out = np.zeros(len(pts))
        for c, f in self.terms:
            out += c * f.eval(pts)
        return out

    def _derivative(self, beta):
        return LinearCombo(tuple((c, f.derivative(beta)) for c, f in self.terms))

    def constant_value(self):
        total = 0.0
        for c, f in self.terms:
            v = f.constant_value()
            if v is None:
                return None
            total += c * v
        return total

    @property
    def reduced_accuracy(self):
        return any(f.reduced_accuracy for _, f in self.terms)


@dataclass(frozen=True)
class Product(ScalarField):
    left: ScalarField
    right: ScalarField

    @property
    def dim(self):
        return self.left.dim

    @property
    def max_order(self):
        return min(self.left.max_order, self.right.max_order)

    def eval(self, pts):
        return self.left.eval(pts) * self.right.eval(pts)

    def _derivative(self, beta):
        # Leibniz over all sub-multi-indices gamma of beta
        terms = []
        for gamma in itertools.product(*(range(b + 1) for b in beta)):
            binom = math.prod(math.comb(b, g) for b, g in zip(beta, gamma))
            rest = tuple(b - g for b, g in zip(beta, gamma))
            terms.append((float(binom), Product(self.left.derivative(gamma),
                                                self.right.derivative(rest))))
        return LinearCombo(tuple(terms))

    def constant_value(self):
        lv, rv = self.left.constant_value(), self.right.constant_value()
        if lv is None or rv is None:
            return None
        return lv * rv

    @property
    def reduced_accuracy(self):
        return self.left.reduced_accuracy or self.right.reduced_accuracy


def const(dim, value):
    return PolyField.constant(dim, value)


# ---------------------------------------------------------------------------
# vector / matrix fields


@dataclass(frozen=True)
class VectorField:
    components: tuple  # tuple of ScalarField

    @property
    def dim(self):
        return len(self.components)

    def __call__(self, x):
        pts, single = as_points(x, self.dim)
        vals = np.stack([c.eval(pts) for c in self.components], axis=1)
        return vals[0] if single else vals

    @staticmethod
    def zero(dim):
        return VectorField(tuple(const(dim, 0.0) for _ in range(dim)))

    @staticmethod
    def constant(values):
        values = tuple(float(v) for v in values)
        return VectorField(tuple(const(len(values), v) for v in values))


@dataclass(frozen=True)
class MatrixField:
    """Symmetric d x d matrix of scalar fields (the diffusion matrix)."""

    entries: tuple  # tuple of rows, each a tuple of ScalarField

    @property
    def dim(self):
        return len(self.entries)

    def entry(self, i, j):
        return self.entries[i][j]

    def __call__(self, x):
        pts, single = as_points(x, self.dim)
        d = self.dim
        out = np.empty((len(pts), d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = self.entries[i][j].eval(pts)
        return out[0] if single else out

    @staticmethod
    def isotropic(dim, sf: ScalarField):
        z = const(dim, 0.0)
        rows = tuple(tuple(sf if i == j else z for j in range(dim)) for i in range(dim))
        return MatrixField(rows)

    @staticmethod
    def identity(dim):
        return MatrixField.isotropic(dim, const(dim, 1.0))

    @staticmethod
    def from_entries(rows):
        """The matrix of the given rows; raises ValidationError unless a_ij == a_ji."""
        d = len(rows)
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValidationError(
                        f"diffusion matrix is not symmetric: entry ({i}, {j}) "
                        f"differs from entry ({j}, {i})")
        return MatrixField(tuple(tuple(r) for r in rows))

    def is_isotropic(self):
        """True if off-diagonal entries are the zero constant and diagonals match."""
        d = self.dim
        for i in range(d):
            for j in range(d):
                if i != j and self.entries[i][j].constant_value() != 0.0:
                    return False
        return all(self.entries[i][i] is self.entries[0][0]
                   or self.entries[i][i] == self.entries[0][0]
                   for i in range(d))


# ---------------------------------------------------------------------------
# coefficient bundle


@dataclass(frozen=True)
class CoefficientSet:
    """Everything the solvers need: diffusion a, drift b, jump intensity,
    redistribution density, boundary data, and the declared vanishing order
    of the redistribution density at the boundary.
    """

    diffusion: MatrixField
    drift: VectorField
    intensity: ScalarField          # exponential clock rate, > 0 on the closure
    redistribution: ScalarField     # jump target density, integrates to 1
    boundary_data: ScalarField
    vanishing_order: int
    allow_vanishing_intensity: bool = False

    def __post_init__(self):
        k = self.vanishing_order
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ValidationError(f"the vanishing order must be an integer >= 0, got {k!r}")

    @property
    def dim(self):
        return self.diffusion.dim

    def with_drift(self, drift: VectorField):
        return replace(self, drift=drift)

    @property
    def reduced_accuracy(self):
        fields = [self.intensity, self.redistribution, self.boundary_data]
        fields += [c for c in self.drift.components]
        fields += [e for row in self.diffusion.entries for e in row]
        return any(f.reduced_accuracy for f in fields)


def validate_coefficients(domain: Domain, coeffs: CoefficientSet):
    """Check the structural invariants on a sample of the closed domain.

    Raises ValidationError on: non-SPD diffusion, non-positive intensity
    (unless explicitly allowed for vanishing-intensity probes), negative
    redistribution density, or redistribution mass off 1 beyond 1e-6 (by the
    trapezoid rule with Gregory end corrections, 1e5 nodes in 1D and 1000 per
    axis in 2D).  Each test is written so that a NaN fails it.
    The sample is 400 interior nodes in 1D, 80 per axis in 2D, plus 64
    boundary nodes.  Returns a small report dict.
    """
    iq = domain.interior_quadrature(400 if domain.dim == 1 else 80)
    bq = domain.boundary_quadrature(64)
    sample = np.concatenate([iq.nodes, bq.nodes])

    amat = coeffs.diffusion(sample)
    eigmin = float(np.min(np.linalg.eigvalsh(amat)))
    if not eigmin > 0.0:
        raise ValidationError(f"diffusion matrix not positive definite: min eigenvalue {eigmin:.3e}")

    v = coeffs.intensity(sample)
    vmin_interior = float(np.min(coeffs.intensity(iq.nodes)))
    if not coeffs.allow_vanishing_intensity and not np.min(v) > 0.0:
        raise ValidationError(f"intensity must be positive on the closure, min = {np.min(v):.3e}")
    if coeffs.allow_vanishing_intensity and not vmin_interior >= 0.0:
        raise ValidationError("intensity negative inside the domain")

    mu = coeffs.redistribution(sample)
    if not np.min(mu) >= -1e-12 * max(1.0, np.max(np.abs(mu))):
        raise ValidationError(f"redistribution density negative: min = {np.min(mu):.3e}")
    # end-corrected: the trapezoid's O(h^2) end error alone would break 1e-6,
    # e.g. -h^2 = -1.0e-6 for (2/pi)(1 - r^2)(1 + 0.3y) on the unit disk
    big = domain.interior_quadrature(10**5 if domain.dim == 1 else 1000, end_corrected=True)
    mass = dot(big.weights, coeffs.redistribution(big.nodes))
    if not abs(mass - 1.0) <= 1e-6:
        raise ValidationError(f"redistribution mass is {mass:.8f}, expected 1 within 1e-06")

    return {
        "diffusion_min_eigenvalue": eigmin,
        "intensity_min": float(np.min(v)),
        "redistribution_min": float(np.min(mu)),
        "redistribution_mass": mass,
        "reduced_accuracy": coeffs.reduced_accuracy,
    }


# ---------------------------------------------------------------------------
# operators


def _unit(dim, axis):
    return tuple(1 if j == axis else 0 for j in range(dim))


def _half_divergence_terms(coeffs: CoefficientSet, f: ScalarField):
    """Terms of (1/2) sum_ij d_i(a_ij d_j f) = (1/2)[(d_i a_ij)(d_j f) + a_ij d_i d_j f]."""
    d = coeffs.dim
    terms = []
    for i in range(d):
        ei = _unit(d, i)
        for j in range(d):
            ej = _unit(d, j)
            a_ij = coeffs.diffusion.entry(i, j)
            if a_ij.constant_value() == 0.0:
                continue
            terms.append((0.5, Product(a_ij.derivative(ei), f.derivative(ej))))
            terms.append((0.5, Product(a_ij, f.derivative(tuple(x + y for x, y in zip(ei, ej))))))
    return terms


def apply_generator(coeffs: CoefficientSet, phi: ScalarField) -> ScalarField:
    """(1/2) sum_ij d_i(a_ij d_j phi) + sum_i b_i d_i phi, as a field.

    Needs phi twice differentiable and a once; the result's declared order
    drops accordingly.
    """
    if phi.max_order < 2:
        raise DerivativeOrderError("apply_generator needs a field of order >= 2")
    terms = _half_divergence_terms(coeffs, phi)
    for i, b_i in enumerate(coeffs.drift.components):
        if b_i.constant_value() != 0.0:
            terms.append((1.0, Product(b_i, phi.derivative(_unit(coeffs.dim, i)))))
    return LinearCombo(tuple(terms))


def apply_adjoint(coeffs: CoefficientSet, psi: ScalarField) -> ScalarField:
    """(1/2) div(a grad psi) - b . grad psi - (div b) psi."""
    if psi.max_order < 2:
        raise DerivativeOrderError("apply_adjoint needs a field of order >= 2")
    terms = _half_divergence_terms(coeffs, psi)
    for i, b_i in enumerate(coeffs.drift.components):
        ei = _unit(coeffs.dim, i)
        if b_i.constant_value() != 0.0:
            terms.append((-1.0, Product(b_i, psi.derivative(ei))))
        db_i = b_i.derivative(ei)
        if db_i.constant_value() != 0.0:
            terms.append((-1.0, Product(db_i, psi)))
    if not terms:
        terms = [(0.0, psi)]
    return LinearCombo(tuple(terms))


def apply_adjoint_power(coeffs: CoefficientSet, psi: ScalarField, m: int) -> ScalarField:
    if m < 0:
        raise ValueError("power must be nonnegative")
    out = psi
    for _ in range(m):
        out = apply_adjoint(coeffs, out)
    return out


def nondivergence_drift(coeffs: CoefficientSet) -> VectorField:
    """B_j = b_j + (1/2) sum_i d_i a_ij; the process drift is delta * B."""
    d = coeffs.dim
    comps = []
    for j in range(d):
        terms = [(1.0, coeffs.drift.components[j])]
        for i in range(d):
            terms.append((0.5, coeffs.diffusion.entry(i, j).derivative(_unit(d, i))))
        comps.append(LinearCombo(tuple(terms)))
    return VectorField(tuple(comps))


def diffusion_root(coeffs: CoefficientSet, x):
    """Lower-triangular factor s(x) with s s^T = a(x), via Cholesky.

    Accepts a single point or a batch; raises ValidationError when a(x) is
    not positive definite.
    """
    amat = coeffs.diffusion(x)
    try:
        return np.linalg.cholesky(amat)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"diffusion matrix not positive definite at x={x}") from exc
