"""Named problem presets.

Every coefficient choice used by the acceptance experiments is pinned here,
so runs are reproducible from a name alone.  Densities are normalized in
closed form (mass exactly 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import (CoefficientSet, MatrixField, PolyField, VectorField,
                     const, validate_coefficients)
from .geometry import Domain
from .theory import validate_vanishing_order


@dataclass(frozen=True)
class ProblemSpec:
    """A domain plus coefficients: the unit of work for every experiment."""

    domain: Domain
    coeffs: CoefficientSet
    name: str | None = None
    x0: np.ndarray | None = None  # default start / evaluation point

    def start_point(self):
        return self.x0 if self.x0 is not None else self.domain.center

    def validate(self):
        """Structural coefficient checks plus the vanishing-order gate on 400
        boundary nodes.

        Raises ValidationError when the declared order is inconsistent or x0
        lies outside the domain.  Returns (coefficient report, vanishing-order
        report).
        """
        if self.x0 is not None:
            self.domain.require_inside(self.x0, "x0")
        report = validate_coefficients(self.domain, self.coeffs)
        vreport = validate_vanishing_order(self.coeffs, self.domain.boundary_quadrature(400))
        if not vreport.passed:
            raise ValidationError(
                f"vanishing-order validation failed for k={vreport.k}: {vreport.detail}")
        return report, vreport


def _interval_spec(name, V, mu, k, x0=0.5, a=None, b=None, f=None,
                   allow_vanishing_intensity=False):
    dom = Domain.interval(0.0, 1.0)
    diffusion = MatrixField.isotropic(1, a if a is not None else const(1, 1.0))
    drift = VectorField((b,)) if b is not None else VectorField.zero(1)
    boundary_data = f if f is not None else PolyField.from_dict(1, {(1,): 1.0})
    coeffs = CoefficientSet(diffusion=diffusion, drift=drift, intensity=V,
                            redistribution=mu, boundary_data=boundary_data,
                            vanishing_order=k,
                            allow_vanishing_intensity=allow_vanishing_intensity)
    return ProblemSpec(domain=dom, coeffs=coeffs, name=name, x0=np.array([x0]))


def _build_interval_k0_uniform():
    return _interval_spec("interval-k0-uniform", const(1, 1.0), const(1, 1.0), 0)


def _build_interval_k0_asym():
    # V(0)=1, V(1)=4 and mu(0)=1, mu(1)=3 with unit mass: the boundary
    # weights mu/sqrt(V) are {1, 1.5}, so the f(x)=x limit value is 0.6.
    V = PolyField.from_dict(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})       # (1+x)^2
    mu = PolyField.from_dict(1, {(0,): 1.0, (1,): -4.0, (2,): 6.0})     # 1-4x+6x^2
    return _interval_spec("interval-k0-asym", V, mu, 0)


def _build_interval_k1_beta22():
    mu = PolyField.from_dict(1, {(1,): 6.0, (2,): -6.0})                # 6x(1-x)
    return _interval_spec("interval-k1-beta22", const(1, 1.0), mu, 1)


def _build_interval_k2_quartic():
    mu = PolyField.from_dict(1, {(2,): 30.0, (3,): -60.0, (4,): 30.0})  # 30x^2(1-x)^2
    return _interval_spec("interval-k2-quartic", const(1, 1.0), mu, 2)


def _build_interval_flux_a2v3():
    return _interval_spec("interval-flux-a2v3", const(1, 3.0), const(1, 1.0), 0,
                          a=const(1, 2.0))


def _probe(m):
    # Intensity (x(1-x))^m: dist(x,boundary)^m times a smooth positive factor,
    # vanishing on the boundary to order m, kept as an exact polynomial so
    # derivative support survives.  mu stays uniform (the k=0 shape).
    def build():
        base = PolyField.from_dict(1, {(1,): 1.0, (2,): -1.0})  # x(1-x)
        Vf = const(1, 1.0)
        for _ in range(m):
            Vf = Vf * base
        return _interval_spec(f"probe-Vm{m}", Vf, const(1, 1.0), 0,
                              allow_vanishing_intensity=True)
    return build


def _build_disk_k0_radial():
    dom = Domain.disk(0.0, 0.0, 1.0)
    coeffs = CoefficientSet(
        diffusion=MatrixField.identity(2), drift=VectorField.zero(2),
        intensity=const(2, 1.0), redistribution=const(2, 1.0 / math.pi),
        boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),  # f = x coordinate
        vanishing_order=0)
    return ProblemSpec(domain=dom, coeffs=coeffs, name="disk-k0-radial",
                       x0=np.array([0.0, 0.0]))


def _build_annulus_flux():
    dom = Domain.annulus(0.0, 0.0, 0.5, 1.0)
    area = math.pi * (1.0 - 0.25)
    coeffs = CoefficientSet(
        diffusion=MatrixField.identity(2), drift=VectorField.zero(2),
        intensity=const(2, 1.0), redistribution=const(2, 1.0 / area),
        boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),
        vanishing_order=0)
    return ProblemSpec(domain=dom, coeffs=coeffs, name="annulus-flux",
                       x0=np.array([0.75, 0.0]))


def _build_square_k0_uniform():
    dom = Domain.rectangle(0.0, 0.0, 1.0, 1.0)
    coeffs = CoefficientSet(
        diffusion=MatrixField.identity(2), drift=VectorField.zero(2),
        intensity=const(2, 1.0), redistribution=const(2, 1.0),
        boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),
        vanishing_order=0)
    return ProblemSpec(domain=dom, coeffs=coeffs, name="square-k0-uniform",
                       x0=np.array([0.5, 0.5]))


_BUILDERS = {
    "interval-k0-uniform": _build_interval_k0_uniform,
    "interval-k0-asym": _build_interval_k0_asym,
    "interval-k1-beta22": _build_interval_k1_beta22,
    "interval-k2-quartic": _build_interval_k2_quartic,
    "interval-flux-a2v3": _build_interval_flux_a2v3,
    "disk-k0-radial": _build_disk_k0_radial,
    "annulus-flux": _build_annulus_flux,
    "square-k0-uniform": _build_square_k0_uniform,
    "probe-Vm1": _probe(1),
    "probe-Vm2": _probe(2),
    "probe-Vm3": _probe(3),
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def preset(name) -> ProblemSpec:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return builder()
