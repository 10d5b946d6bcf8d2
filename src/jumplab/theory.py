"""Closed-form small-diffusion limits.

The exit law of the jump-redistributed small-diffusion process concentrates
on a boundary density determined by the diffusion matrix a, the jump
intensity V, and the redistribution density mu together with its vanishing
order k at the boundary:

    k even:  sqrt(n.an) * V^{-(k+1)/2} * (adjoint^{k/2} mu)
    k odd:   V^{-(k+1)/2} * (a grad(adjoint^{(k-1)/2} mu)) . n

The same boundary integral divided by sqrt(2) * int (1/V) dmu (even k;
divisor 2 for odd k) gives the prefactor C in the decay-rate asymptotics
lambda0 ~ C * delta^{(k+1)/2}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import CoefficientSet, apply_adjoint_power, multi_indices
from .geometry import BoundaryQuadrature, InteriorQuadrature
from .reductions import dot

# Density values more negative than this (relative to the max) indicate a
# k/mu mismatch rather than roundoff.
NEGATIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class BoundaryDensity:
    """Unnormalized limiting exit density sampled on a boundary quadrature."""

    quad: BoundaryQuadrature
    values: np.ndarray
    normalization: float  # sum of weights * values


@dataclass(frozen=True)
class TheoryResult:
    k: int
    exponent: float          # (k+1)/2
    phi0: float              # limiting exit functional for the boundary data
    prefactor: float         # decay-rate prefactor C
    density: BoundaryDensity


def _order_k_quantity(coeffs: CoefficientSet, quad: BoundaryQuadrature, k: int):
    """The order-k boundary quantity entering the limit formulas.

    Even k: adjoint^{k/2} mu evaluated at the nodes.
    Odd k:  (a grad(adjoint^{(k-1)/2} mu)) . n at the nodes.
    """
    mu = coeffs.redistribution
    if k % 2 == 0:
        g = apply_adjoint_power(coeffs, mu, k // 2)
        return g.eval(quad.nodes)
    g = apply_adjoint_power(coeffs, mu, (k - 1) // 2)
    grad = np.stack([comp.eval(quad.nodes) for comp in g.gradient()], axis=1)
    amat = coeffs.diffusion(quad.nodes)
    return np.einsum("ni,nij,nj->n", quad.normals, amat, grad)


def limit_exit_density(coeffs: CoefficientSet, quad: BoundaryQuadrature) -> BoundaryDensity:
    """Unnormalized limiting exit density at the quadrature nodes.

    Requires the declared vanishing order to be consistent with mu (run
    validate_vanishing_order first for a structured report).
    """
    k = coeffs.vanishing_order
    vvals = coeffs.intensity(quad.nodes)
    if np.any(vvals <= 0.0):
        raise ValidationError("intensity must be positive on the boundary for the limit formulas")
    vals = vvals ** (-(k + 1) / 2.0) * _order_k_quantity(coeffs, quad, k)
    if k % 2 == 0:
        amat = coeffs.diffusion(quad.nodes)
        nan = np.einsum("ni,nij,nj->n", quad.normals, amat, quad.normals)
        vals = np.sqrt(nan) * vals
    vmax = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if np.any(vals < -NEGATIVITY_SLACK * vmax):
        raise ValidationError(
            "limiting exit density has negative values; declared vanishing order "
            "is likely inconsistent with the redistribution density")
    z = dot(quad.weights, vals)
    if not z > 0.0:
        raise ValidationError("limiting exit density has zero mass")
    return BoundaryDensity(quad, vals, z)


def limit_exit_functional(coeffs: CoefficientSet, quad: BoundaryQuadrature,
                          f=None, density: BoundaryDensity | None = None) -> float:
    """Limit of the exit functional: the f-average under the limiting density.

    Lies between the boundary minimum and maximum of f.
    """
    if density is None:
        density = limit_exit_density(coeffs, quad)
    f = coeffs.boundary_data if f is None else f
    fvals = f.eval(quad.nodes)
    return dot(quad.weights * density.values, fvals) / density.normalization


def parity_divisor(k):
    """sqrt(2) for even vanishing order k, 2 for odd: the divisor of the
    decay-rate prefactor and of the no-jump mass limit."""
    return math.sqrt(2.0) if k % 2 == 0 else 2.0


def decay_rate_prefactor(coeffs: CoefficientSet, quad: BoundaryQuadrature,
                         iquad: InteriorQuadrature,
                         density: BoundaryDensity | None = None) -> float:
    """Prefactor C with lambda0(delta) ~ C * delta^{(k+1)/2}.

    C = (boundary integral of the unnormalized density) divided by
    sqrt(2) * int (1/V) dmu for even k, and by 2 * int (1/V) dmu for odd k.
    """
    if density is None:
        density = limit_exit_density(coeffs, quad)
    vvals = coeffs.intensity(iquad.nodes)
    if np.any(vvals <= 0.0):
        raise ValidationError("intensity must be positive for the decay-rate prefactor")
    muvals = coeffs.redistribution(iquad.nodes)
    denom = dot(iquad.weights, muvals / vvals)
    if denom <= 0.0:
        raise ValidationError(f"interior integral of mu/V is {denom:.3e}, expected > 0")
    return density.normalization / (parity_divisor(coeffs.vanishing_order) * denom)


def evaluate(coeffs: CoefficientSet, quad: BoundaryQuadrature,
             iquad: InteriorQuadrature) -> TheoryResult:
    """Bundle the limit quantities for reports."""
    k = coeffs.vanishing_order
    density = limit_exit_density(coeffs, quad)
    phi0 = limit_exit_functional(coeffs, quad, density=density)
    pref = decay_rate_prefactor(coeffs, quad, iquad, density=density)
    return TheoryResult(k=k, exponent=(k + 1) / 2.0, phi0=phi0,
                        prefactor=pref, density=density)


@dataclass(frozen=True)
class VanishingOrderReport:
    passed: bool
    k: int
    tol: float
    low_order_max: float        # max |d^beta mu| over |beta| <= k-1 at the nodes
    order_k_max: float          # max |order-k quantity| at the nodes
    offending_node: np.ndarray | None
    detail: str


def validate_vanishing_order(coeffs: CoefficientSet,
                             quad: BoundaryQuadrature) -> VanishingOrderReport:
    """Check the declared vanishing order k of mu on the boundary.

    PASS requires every derivative of mu of order < k to vanish at all nodes
    (within tol) and the order-k limit quantity to be nonzero somewhere.
    tol is 1e-8 times the scale of mu's k-th derivatives.
    """
    k = coeffs.vanishing_order
    d = coeffs.dim
    mu = coeffs.redistribution
    if mu.max_order < k:
        raise ValidationError(
            f"redistribution density provides derivatives to order {mu.max_order}, "
            f"but vanishing order {k} was declared")

    kth = np.concatenate([np.abs(mu.derivative(b).eval(quad.nodes))
                          for b in multi_indices(d, k)])
    scale = float(np.max(kth))
    tol = 1e-8 * scale if scale > 0 else np.finfo(float).tiny

    low_max = 0.0
    offender = None
    detail = "ok"
    passed = True
    for order in range(k):
        for b in multi_indices(d, order):
            vals = np.abs(mu.derivative(b).eval(quad.nodes))
            m = float(np.max(vals))
            if m > low_max:
                low_max = m
            if m > tol and passed:
                passed = False
                offender = quad.nodes[int(np.argmax(vals))]
                detail = (f"derivative {b} of the redistribution density is {m:.3e} "
                          f"at a boundary node, above tol {tol:.3e}")
    qk = np.abs(_order_k_quantity(coeffs, quad, k))
    qk_max = float(np.max(qk))
    if passed and qk_max <= tol:
        passed = False
        offender = None
        detail = (f"order-{k} boundary quantity is at most {qk_max:.3e} (tol {tol:.3e}); "
                  "the density vanishes to higher order than declared")
    return VanishingOrderReport(passed=passed, k=k, tol=float(tol),
                                low_order_max=low_max, order_k_max=qk_max,
                                offending_node=offender, detail=detail)
