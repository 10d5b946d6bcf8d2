import math

import numpy as np
import pytest

from jumplab import (CoefficientSet, Domain, MatrixField, PolyField, ValidationError,
                     VectorField, const, preset)
from jumplab import theory
from jumplab.fields import LinearCombo, Product
from jumplab.experiments import theory_quadratures


def interval_coeffs(V=None, mu=None, k=0, a=None, b=None, f=None):
    return CoefficientSet(
        diffusion=MatrixField.isotropic(1, a if a is not None else const(1, 1.0)),
        drift=VectorField((b,)) if b is not None else VectorField.zero(1),
        intensity=V if V is not None else const(1, 1.0),
        redistribution=mu if mu is not None else const(1, 1.0),
        boundary_data=f if f is not None else PolyField.from_dict(1, {(1,): 1.0}),
        vanishing_order=k)


MU_BETA22 = PolyField.from_dict(1, {(1,): 6.0, (2,): -6.0})
MU_QUARTIC = PolyField.from_dict(1, {(2,): 30.0, (3,): -60.0, (4,): 30.0})
QUAD = preset("interval-k0-uniform").domain.boundary_quadrature()


def test_density_k0_uniform():
    dens = theory.limit_exit_density(interval_coeffs(), QUAD)
    assert np.allclose(dens.values, [1.0, 1.0], atol=1e-14)
    assert dens.normalization == pytest.approx(2.0)


def test_density_k1_beta22():
    dens = theory.limit_exit_density(interval_coeffs(mu=MU_BETA22, k=1), QUAD)
    assert np.allclose(dens.values, [6.0, 6.0], atol=1e-12)


def test_density_k2_quartic():
    dens = theory.limit_exit_density(interval_coeffs(mu=MU_QUARTIC, k=2), QUAD)
    assert np.allclose(dens.values, [30.0, 30.0], atol=1e-10)


def test_density_flags_inconsistent_order():
    # beta22 with a k=0 declaration gives an all-zero boundary density
    with pytest.raises(ValidationError):
        theory.limit_exit_density(interval_coeffs(mu=MU_BETA22, k=0), QUAD)


def test_phi_zero_symmetric():
    phi0 = theory.limit_exit_functional(interval_coeffs(), QUAD)
    assert phi0 == pytest.approx(0.5, abs=1e-14)


def test_phi_zero_asymmetric_hand_value():
    spec = preset("interval-k0-asym")
    phi0 = theory.limit_exit_functional(spec.coeffs, QUAD)
    # boundary weights mu/sqrt(V) are {1, 1.5}: (0*1 + 1*1.5) / 2.5
    assert phi0 == pytest.approx(0.6, abs=1e-13)


def test_phi_zero_constant_data():
    c = interval_coeffs(mu=MU_QUARTIC, k=2, f=const(1, 3.25))
    assert theory.limit_exit_functional(c, QUAD) == pytest.approx(3.25, abs=1e-13)


def test_phi_zero_within_boundary_range():
    f = PolyField.from_dict(1, {(0,): -1.0, (1,): 5.0})
    spec = preset("interval-k0-asym")
    phi0 = theory.limit_exit_functional(spec.coeffs, QUAD, f=f)
    fvals = f.eval(QUAD.nodes)
    assert fvals.min() <= phi0 <= fvals.max()


def test_prefactor_hand_values():
    _, iquad = theory_quadratures(preset("interval-k0-uniform").domain)
    c0 = interval_coeffs()
    assert theory.decay_rate_prefactor(c0, QUAD, iquad) == pytest.approx(math.sqrt(2), rel=1e-10)
    c1 = interval_coeffs(mu=MU_BETA22, k=1)
    assert theory.decay_rate_prefactor(c1, QUAD, iquad) == pytest.approx(6.0, rel=1e-9)
    c2 = interval_coeffs(mu=MU_QUARTIC, k=2)
    assert theory.decay_rate_prefactor(c2, QUAD, iquad) == pytest.approx(60 / math.sqrt(2), rel=1e-9)


def test_prefactor_scale_invariant_in_mu():
    # numerator and denominator both scale with mu, so C does not
    _, iquad = theory_quadratures(preset("interval-k0-uniform").domain)
    mu2 = PolyField.from_dict(1, {(1,): 12.0, (2,): -12.0})
    c1 = interval_coeffs(mu=MU_BETA22, k=1)
    c2 = interval_coeffs(mu=mu2, k=1)
    p1 = theory.decay_rate_prefactor(c1, QUAD, iquad)
    p2 = theory.decay_rate_prefactor(c2, QUAD, iquad)
    assert abs(p1 - p2) <= 1e-12 * abs(p1)


def test_phi_zero_scale_invariant_in_mu():
    f = PolyField.from_dict(1, {(1,): 1.0})
    for c_scale in (0.1, 7.0):
        mu_scaled = PolyField.from_dict(1, {(1,): 6.0 * c_scale, (2,): -6.0 * c_scale})
        base = theory.limit_exit_functional(interval_coeffs(mu=MU_BETA22, k=1), QUAD, f=f)
        scaled = theory.limit_exit_functional(interval_coeffs(mu=mu_scaled, k=1), QUAD, f=f)
        assert abs(base - scaled) <= 1e-12


def test_density_independent_of_drift_for_low_orders():
    b = PolyField.from_dict(1, {(0,): 0.7, (1,): -0.3})
    for mu, k in [(None, 0), (MU_BETA22, 1)]:
        d0 = theory.limit_exit_density(interval_coeffs(mu=mu, k=k), QUAD)
        d1 = theory.limit_exit_density(interval_coeffs(mu=mu, k=k, b=b), QUAD)
        assert np.max(np.abs(d0.values - d1.values)) <= 1e-12


def test_adjoint_of_density_depends_on_drift_inside():
    # the drift enters the k>=2 formulas through the adjoint; on the boundary
    # it evaluates away against the vanishing density, but not inside
    from jumplab import apply_adjoint
    b = PolyField.from_dict(1, {(0,): 0.0, (1,): 1.0})
    g0 = apply_adjoint(interval_coeffs(mu=MU_QUARTIC, k=2), MU_QUARTIC)
    g1 = apply_adjoint(interval_coeffs(mu=MU_QUARTIC, k=2, b=b), MU_QUARTIC)
    mid = np.array([[0.37]])
    assert abs(g0.eval(mid)[0] - g1.eval(mid)[0]) > 1e-6


def test_reflection_symmetry_even_k():
    dens = theory.limit_exit_density(interval_coeffs(mu=MU_QUARTIC, k=2), QUAD)
    assert abs(dens.values[0] - dens.values[1]) <= 1e-10 * np.max(np.abs(dens.values))


def test_disk_density_rotation_invariant():
    spec = preset("disk-k0-radial")
    quad = spec.domain.boundary_quadrature(128)
    dens = theory.limit_exit_density(spec.coeffs, quad)
    assert np.max(dens.values) - np.min(dens.values) <= 1e-12
    phi0 = theory.limit_exit_functional(spec.coeffs, quad)
    assert abs(phi0) <= 1e-12  # f = first coordinate averages to zero


def test_validate_vanishing_order_examples():
    rep = theory.validate_vanishing_order(interval_coeffs(), QUAD)
    assert rep.passed
    rep = theory.validate_vanishing_order(interval_coeffs(mu=MU_BETA22, k=0), QUAD)
    assert not rep.passed
    rep = theory.validate_vanishing_order(interval_coeffs(mu=MU_BETA22, k=1), QUAD)
    assert rep.passed
    rep = theory.validate_vanishing_order(interval_coeffs(mu=MU_QUARTIC, k=2), QUAD)
    assert rep.passed
    # quartic density declared k=1: first derivative vanishes too
    rep = theory.validate_vanishing_order(interval_coeffs(mu=MU_QUARTIC, k=1), QUAD)
    assert not rep.passed


def test_validate_reports_offending_node():
    rep = theory.validate_vanishing_order(interval_coeffs(mu=MU_BETA22, k=2), QUAD)
    assert not rep.passed
    assert rep.offending_node is not None


def test_evaluate_bundle():
    _, iquad = theory_quadratures(preset("interval-k1-beta22").domain)
    res = theory.evaluate(preset("interval-k1-beta22").coeffs, QUAD, iquad)
    assert res.k == 1
    assert res.exponent == pytest.approx(1.0)
    assert res.phi0 == pytest.approx(0.5, abs=1e-13)
    assert res.prefactor == pytest.approx(6.0, rel=1e-9)


ONE_1D = const(1, 1.0)
X_1D = PolyField.from_dict(1, {(1,): 1.0})


def _one_minus(x, one):
    return LinearCombo(((1.0, one), (-1.0, x)))


def _theory_numbers(coeffs, quad, iquad):
    rep = theory.validate_vanishing_order(coeffs, quad)
    dens = theory.limit_exit_density(coeffs, quad)
    pref = theory.decay_rate_prefactor(coeffs, quad, iquad, density=dens)
    return rep, dens, pref


def _assert_same_theory(product_coeffs, poly_coeffs, domain):
    quad, iquad = theory_quadratures(domain)
    rep_p, dens_p, pref_p = _theory_numbers(product_coeffs, quad, iquad)
    rep_e, dens_e, pref_e = _theory_numbers(poly_coeffs, quad, iquad)
    assert rep_p.passed and rep_e.passed
    assert rep_p.order_k_max == pytest.approx(rep_e.order_k_max, rel=1e-12)
    assert rep_p.tol == pytest.approx(rep_e.tol, rel=1e-12)
    assert max(rep_p.low_order_max, rep_e.low_order_max) <= 1e-12 * rep_e.order_k_max
    assert np.max(np.abs(dens_p.values - dens_e.values)) <= 1e-12 * np.max(np.abs(dens_e.values))
    assert dens_p.normalization == pytest.approx(dens_e.normalization, rel=1e-12)
    assert pref_p == pytest.approx(pref_e, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_product_built_density_matches_expanded_polynomial(k):
    # mu from Products reaches theory through Leibniz derivatives:
    # k = 1: 6 x (1-x);  k = 2: 30 x^2 (1-x)^2, with variable a and a drift
    bump = Product(X_1D, _one_minus(X_1D, ONE_1D))
    mu_prod = 6 * bump if k == 1 else 30 * Product(bump, bump)
    mu_poly = MU_BETA22 if k == 1 else MU_QUARTIC
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 0.5})
    b = PolyField.from_dict(1, {(0,): 0.3, (1,): -0.2})
    _assert_same_theory(interval_coeffs(mu=mu_prod, k=k, a=a, b=b),
                        interval_coeffs(mu=mu_poly, k=k, a=a, b=b),
                        Domain.interval(0.0, 1.0))


def test_product_built_density_2d_mixed_derivative():
    # 900 x^2 (1-x)^2 y^2 (1-y)^2 on the unit square, k = 2; the a12 cross
    # term and the order-2 check both take the (1, 1) Leibniz derivative
    one = const(2, 1.0)
    x = PolyField.from_dict(2, {(1, 0): 1.0})
    y = PolyField.from_dict(2, {(0, 1): 1.0})
    bx = Product(x, _one_minus(x, one))
    by = Product(y, _one_minus(y, one))
    mu_prod = 900 * Product(Product(bx, bx), Product(by, by))
    quartic = (0.0, 0.0, 1.0, -2.0, 1.0)  # x^2 (1-x)^2
    mu_poly = PolyField.from_dict(2, {(i, j): 900 * quartic[i] * quartic[j]
                                      for i in range(5) for j in range(5)})
    a12 = const(2, 0.3)
    diffusion = MatrixField(((const(2, 1.0), a12), (a12, const(2, 1.5))))
    drift = VectorField((PolyField.from_dict(2, {(0, 1): 0.4}), const(2, -0.2)))

    def coeffs(mu):
        return CoefficientSet(diffusion=diffusion, drift=drift, intensity=const(2, 2.0),
                              redistribution=mu, boundary_data=x, vanishing_order=2)

    pts = np.array([[0.2, 0.3], [0.6, 0.9], [0.0, 0.4]])
    assert np.allclose(mu_prod.derivative((1, 1)).eval(pts),
                       mu_poly.derivative((1, 1)).eval(pts), rtol=1e-12, atol=1e-12)
    _assert_same_theory(coeffs(mu_prod), coeffs(mu_poly), Domain.rectangle(0.0, 0.0, 1.0, 1.0))
