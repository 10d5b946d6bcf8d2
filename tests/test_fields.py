import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import (PRESET_NAMES, CallableField, CoefficientSet, DerivativeOrderError,
                     DistPowerField, Domain, MatrixField, PolyField, TrigWave,
                     ValidationError, VectorField, apply_adjoint,
                     apply_adjoint_power, apply_generator, const,
                     diffusion_root, nondivergence_drift, preset, validate_coefficients)
from jumplab.fields import LinearCombo, Product


def coeffs_1d(a=None, b=None, V=None, mu=None, k=0):
    return CoefficientSet(
        diffusion=MatrixField.isotropic(1, a if a is not None else const(1, 1.0)),
        drift=VectorField((b,)) if b is not None else VectorField.zero(1),
        intensity=V if V is not None else const(1, 1.0),
        redistribution=mu if mu is not None else const(1, 1.0),
        boundary_data=PolyField.from_dict(1, {(1,): 1.0}),
        vanishing_order=k)


X = PolyField.from_dict(1, {(1,): 1.0})
X2 = PolyField.from_dict(1, {(2,): 1.0})
PTS = np.linspace(0.05, 0.95, 7).reshape(-1, 1)


def test_generator_constant_diffusion_on_x2():
    g = apply_generator(coeffs_1d(), X2)
    assert np.allclose(g.eval(PTS), 1.0, atol=1e-14)


def test_generator_with_drift_on_x():
    g = apply_generator(coeffs_1d(b=const(1, 2.0)), X)
    assert np.allclose(g.eval(PTS), 2.0, atol=1e-14)


def test_generator_variable_diffusion():
    # (1/2)((1+x^2) phi')' with phi = x gives x
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 1.0})
    g = apply_generator(coeffs_1d(a=a), X)
    assert np.allclose(g.eval(PTS), PTS[:, 0], atol=1e-14)


def test_adjoint_equals_generator_without_drift():
    psi = PolyField.from_dict(1, {(3,): 1.0, (1,): -0.5})
    c = coeffs_1d()
    assert np.allclose(apply_adjoint(c, psi).eval(PTS),
                       apply_generator(c, psi).eval(PTS), atol=1e-14)


def test_adjoint_constant_drift_on_x():
    g = apply_adjoint(coeffs_1d(b=const(1, 2.0)), X)
    assert np.allclose(g.eval(PTS), -2.0, atol=1e-14)


def test_adjoint_on_quartic_density():
    mu = PolyField.from_dict(1, {(2,): 30.0, (3,): -60.0, (4,): 30.0})
    g = apply_adjoint(coeffs_1d(), mu)
    # (1/2) mu'' at 0 is 30
    assert g.eval(np.array([[0.0]]))[0] == pytest.approx(30.0, abs=1e-12)


def test_adjoint_power_examples():
    c = coeffs_1d()
    psi = PolyField.from_dict(1, {(4,): 1.0})
    assert apply_adjoint_power(c, psi, 0) is psi
    p1 = apply_adjoint_power(c, psi, 1).eval(PTS)
    assert np.allclose(p1, apply_adjoint(c, psi).eval(PTS))
    p2 = apply_adjoint_power(c, psi, 2).eval(PTS)
    assert np.allclose(p2, 6.0, atol=1e-12)  # (1/4) (x^4)'''' = 6


def test_adjoint_power_is_iterated_adjoint():
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 0.5})
    b = PolyField.from_dict(1, {(0,): 0.3, (1,): -0.2})
    c = coeffs_1d(a=a, b=b)
    psi = PolyField.from_dict(1, {(5,): 1.0, (2,): 2.0})
    two = apply_adjoint(c, apply_adjoint(c, psi)).eval(PTS)
    assert np.array_equal(apply_adjoint_power(c, psi, 2).eval(PTS), two)


def test_nondivergence_drift():
    assert np.allclose(nondivergence_drift(coeffs_1d(b=const(1, 2.0)))(PTS)[:, 0], 2.0)
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 1.0})
    assert np.allclose(nondivergence_drift(coeffs_1d(a=a))(PTS)[:, 0], PTS[:, 0])
    c2 = CoefficientSet(diffusion=MatrixField.identity(2),
                        drift=VectorField.constant((1.0, 2.0)),
                        intensity=const(2, 1.0), redistribution=const(2, 1.0),
                        boundary_data=const(2, 0.0), vanishing_order=0)
    out = nondivergence_drift(c2)(np.array([[0.3, 0.4]]))
    assert np.allclose(out, [[1.0, 2.0]])


def test_diffusion_root_examples():
    assert diffusion_root(coeffs_1d(), np.array([0.5]))[0, 0] == 1.0
    assert diffusion_root(coeffs_1d(a=const(1, 4.0)), np.array([0.5]))[0, 0] == 2.0
    rows = ((const(2, 2.0), const(2, 1.0)), (const(2, 1.0), const(2, 2.0)))
    c2 = CoefficientSet(diffusion=MatrixField(rows), drift=VectorField.zero(2),
                        intensity=const(2, 1.0), redistribution=const(2, 1.0),
                        boundary_data=const(2, 0.0), vanishing_order=0)
    s = diffusion_root(c2, np.array([0.1, 0.2]))
    assert np.max(np.abs(s @ s.T - [[2.0, 1.0], [1.0, 2.0]])) <= 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_diffusion_root_reconstructs_random_spd(seed):
    rng = np.random.default_rng(seed)
    L = np.tril(rng.normal(size=(2, 2)))
    amat = L @ L.T + 0.1 * np.eye(2)
    rows = tuple(tuple(const(2, amat[i, j]) for j in range(2)) for i in range(2))
    c2 = CoefficientSet(diffusion=MatrixField(rows), drift=VectorField.zero(2),
                        intensity=const(2, 1.0), redistribution=const(2, 1.0),
                        boundary_data=const(2, 0.0), vanishing_order=0)
    s = diffusion_root(c2, rng.random(2))
    assert np.max(np.abs(s @ s.T - amat)) <= 1e-12


def test_diffusion_root_rejects_indefinite():
    rows = ((const(2, 1.0), const(2, 2.0)), (const(2, 2.0), const(2, 1.0)))
    c2 = CoefficientSet(diffusion=MatrixField(rows), drift=VectorField.zero(2),
                        intensity=const(2, 1.0), redistribution=const(2, 1.0),
                        boundary_data=const(2, 0.0), vanishing_order=0)
    with pytest.raises(ValidationError):
        diffusion_root(c2, np.array([0.0, 0.0]))


def test_derivative_order_errors():
    dom = Domain.interval(0, 1)
    dp = DistPowerField(dom, 2, const(1, 1.0))
    with pytest.raises(DerivativeOrderError):
        dp.derivative((1,))
    phi = apply_generator(coeffs_1d(), X2)  # order dropped by 2 stays inf for polys
    assert phi.max_order == math.inf
    low = CallableField(lambda x: x**2, dom, max_order=2)
    with pytest.raises(DerivativeOrderError):
        apply_generator(coeffs_1d(), apply_generator(coeffs_1d(), low))


def test_generator_requires_two_derivatives():
    dom = Domain.interval(0, 1)
    zeroth = DistPowerField(dom, 1, const(1, 1.0))
    with pytest.raises(DerivativeOrderError):
        apply_generator(coeffs_1d(), zeroth)


def test_mixed_partials_commute():
    f = PolyField.from_dict(2, {(2, 1): 1.5, (1, 3): -0.5})
    pts = np.array([[0.3, 0.7], [0.1, 0.2]])
    a = f.derivative((1, 0)).derivative((0, 1)).eval(pts)
    b = f.derivative((0, 1)).derivative((1, 0)).eval(pts)
    assert np.array_equal(a, b)
    assert np.array_equal(a, f.derivative((1, 1)).eval(pts))


def test_poly_derivatives_match_finite_differences():
    f = PolyField.from_dict(1, {(0,): 0.5, (3,): 2.0, (5,): -1.0})
    x = np.array([[0.4]])
    h = 1e-6
    fd = (f.eval(np.array([[0.4 + h]])) - f.eval(np.array([[0.4 - h]]))) / (2 * h)
    assert f.derivative((1,)).eval(x)[0] == pytest.approx(fd[0], rel=1e-8)


def test_trig_wave_derivatives():
    w = TrigWave.make(1, "sin", (3.0,), amp=2.0)
    x = np.array([[0.2]])
    assert w.eval(x)[0] == pytest.approx(2 * math.sin(0.6), abs=1e-14)
    assert w.derivative((1,)).eval(x)[0] == pytest.approx(6 * math.cos(0.6), abs=1e-13)
    assert w.derivative((2,)).eval(x)[0] == pytest.approx(-18 * math.sin(0.6), abs=1e-13)


def test_product_leibniz_second_derivative():
    f = PolyField.from_dict(1, {(2,): 1.0})
    g = PolyField.from_dict(1, {(3,): 1.0})
    p = Product(f, g)  # x^5
    x = np.array([[0.7]])
    assert p.derivative((2,)).eval(x)[0] == pytest.approx(20 * 0.7**3, abs=1e-13)


def test_callable_field_fallback_and_flag():
    dom = Domain.interval(0, 1)
    f = CallableField(lambda x: math.sin(2 * x), dom, max_order=2)
    assert f.reduced_accuracy
    x = np.array([[0.5]])
    assert f.derivative((1,)).eval(x)[0] == pytest.approx(2 * math.cos(1.0), rel=1e-7)
    # one-sided at the boundary
    edge = np.array([[0.0]])
    assert f.derivative((1,)).eval(edge)[0] == pytest.approx(2.0, rel=1e-5)
    c = coeffs_1d(V=f)
    assert c.reduced_accuracy


def _separable_poly(cx, cy):
    return PolyField.from_dict(2, {(i, j): cx[i] * cy[j]
                                   for i in range(len(cx)) for j in range(len(cy))
                                   if cx[i] * cy[j] != 0.0})


def _bump_coeffs_1d():
    # (x(1-x))^3 = x^3 - 3x^4 + 3x^5 - x^6: vanishes to 3rd order at both ends
    return [0.0, 0.0, 0.0, 1.0, -3.0, 3.0, -1.0]


def test_adjointness_1d():
    dom = Domain.interval(0, 1)
    a = PolyField.from_dict(1, {(0,): 1.0, (2,): 0.5})
    b = PolyField.from_dict(1, {(0,): 0.3, (1,): -0.1})
    c = coeffs_1d(a=a, b=b)
    phi = PolyField.from_dict(1, {(i,): v for i, v in enumerate(_bump_coeffs_1d()) if v})
    psi_c = np.convolve(_bump_coeffs_1d(), [1.0, 1.0])  # times (1+x)
    psi = PolyField.from_dict(1, {(i,): v for i, v in enumerate(psi_c) if v})
    iq = dom.interior_quadrature(20001)
    lhs = iq.weights @ (apply_generator(c, phi).eval(iq.nodes) * psi.eval(iq.nodes))
    rhs = iq.weights @ (phi.eval(iq.nodes) * apply_adjoint(c, psi).eval(iq.nodes))
    assert abs(lhs - rhs) <= 1e-6


def test_adjointness_2d_with_cross_terms():
    dom = Domain.rectangle(0, 0, 1, 1)
    a11 = PolyField.from_dict(2, {(0, 0): 1.0, (2, 0): 0.2})
    a22 = PolyField.from_dict(2, {(0, 0): 1.5, (0, 2): 0.3})
    a12 = PolyField.from_dict(2, {(1, 1): 0.1})
    diffusion = MatrixField(((a11, a12), (a12, a22)))
    drift = VectorField((PolyField.from_dict(2, {(0, 0): 0.2, (0, 1): 0.1}),
                         PolyField.from_dict(2, {(1, 0): -0.3})))
    c = CoefficientSet(diffusion=diffusion, drift=drift, intensity=const(2, 1.0),
                       redistribution=const(2, 1.0), boundary_data=const(2, 0.0),
                       vanishing_order=0)
    bump = _bump_coeffs_1d()
    phi = _separable_poly(bump, bump)
    psi_cx = np.convolve(bump, [1.0, 0.5]).tolist()  # times (1 + x/2)
    psi = _separable_poly(psi_cx, bump)
    iq = dom.interior_quadrature(800)
    lhs = iq.weights @ (apply_generator(c, phi).eval(iq.nodes)
                        * psi.eval(iq.nodes))
    rhs = iq.weights @ (phi.eval(iq.nodes)
                        * apply_adjoint(c, psi).eval(iq.nodes))
    assert abs(lhs - rhs) <= 1e-6


def test_validate_coefficients_reports_and_raises():
    dom = Domain.interval(0, 1)
    rep = validate_coefficients(dom, coeffs_1d())
    assert rep["redistribution_mass"] == pytest.approx(1.0, abs=1e-9)
    assert not rep["reduced_accuracy"]
    bad_v = coeffs_1d(V=PolyField.from_dict(1, {(0,): -1.0}))
    with pytest.raises(ValidationError):
        validate_coefficients(dom, bad_v)
    bad_mass = coeffs_1d(mu=const(1, 2.0))
    with pytest.raises(ValidationError):
        validate_coefficients(dom, bad_mass)
    indef = CoefficientSet(
        diffusion=MatrixField(((const(2, 1.0), const(2, 2.0)),
                               (const(2, 2.0), const(2, 1.0)))),
        drift=VectorField.zero(2), intensity=const(2, 1.0),
        redistribution=const(2, 1.0 / math.pi), boundary_data=const(2, 0.0),
        vanishing_order=0)
    with pytest.raises(ValidationError):
        validate_coefficients(Domain.disk(0, 0, 1), indef)
    # every check fails on NaN, not only on values past its bound
    nan = const(1, math.nan)
    for bad in (coeffs_1d(a=nan), coeffs_1d(V=nan), coeffs_1d(mu=nan)):
        with pytest.raises(ValidationError):
            validate_coefficients(dom, bad)


def vanishing_density_coeffs(shape, scale=1.0):
    """Densities of mass ``scale`` that vanish to first order on the boundary,
    so the plain trapezoid rule misses their mass by h^2 = 1.0e-6."""
    if shape == "disk":  # (2/pi)(1 - r^2)(1 + 0.3y), tilted, on the unit disk
        c = scale * 2.0 / math.pi
        mu = PolyField.from_dict(2, {(0, 0): c, (0, 1): 0.3 * c, (2, 0): -c, (0, 2): -c,
                                     (2, 1): -0.3 * c, (0, 3): -0.3 * c})
        domain = Domain.disk(0.0, 0.0, 1.0)
    else:  # 36 x(1 - x) y(1 - y) on the unit square
        c = 36.0 * scale
        mu = PolyField.from_dict(2, {(1, 1): c, (2, 1): -c, (1, 2): -c, (2, 2): c})
        domain = Domain.rectangle(0.0, 0.0, 1.0, 1.0)
    coeffs = CoefficientSet(
        diffusion=MatrixField.identity(2), drift=VectorField.zero(2),
        intensity=PolyField.from_dict(2, {(0, 0): 1.0, (1, 0): 0.5}), redistribution=mu,
        boundary_data=PolyField.from_dict(2, {(1, 0): 1.0, (0, 1): 0.5}),
        vanishing_order=1)
    return domain, coeffs


@pytest.mark.parametrize("shape", ["disk", "square"])
def test_mass_check_accepts_normalized_densities_that_vanish_on_the_boundary(shape):
    rep = validate_coefficients(*vanishing_density_coeffs(shape))
    assert rep["redistribution_mass"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1 - 1e-5, 1 + 1e-5])
@pytest.mark.parametrize("shape", ["disk", "square"])
def test_mass_check_rejects_densities_off_by_1e_5(shape, scale):
    with pytest.raises(ValidationError, match="redistribution mass"):
        validate_coefficients(*vanishing_density_coeffs(shape, scale))


def annulus_distance_power_coeffs(k, scale=1.0):
    """dist(x)^k on the annulus 0.5 < r < 1 over its exact integral 2 pi m_k, times
    ``scale``; dist has a kink at the mid radius r = 0.75."""
    domain = Domain.annulus(0.0, 0.0, 0.5, 1.0)
    m_k = {1: 0.046875, 2: 0.0078125}[k]  # int of r dist(r)^k dr over (0.5, 1)
    mu = DistPowerField(domain, k, const(2, scale / (2 * math.pi * m_k)))
    coeffs = CoefficientSet(
        diffusion=MatrixField.identity(2), drift=VectorField.zero(2), intensity=const(2, 1.0),
        redistribution=mu, boundary_data=PolyField.from_dict(2, {(1, 0): 1.0}),
        vanishing_order=k)
    return domain, coeffs


@pytest.mark.parametrize("k", [1, 2])
def test_mass_check_accepts_normalized_distance_powers_on_the_annulus(k):
    rep = validate_coefficients(*annulus_distance_power_coeffs(k))
    assert rep["redistribution_mass"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1 - 1e-5, 1 + 1e-5])
@pytest.mark.parametrize("k", [1, 2])
def test_mass_check_rejects_distance_powers_on_the_annulus_off_by_1e_5(k, scale):
    with pytest.raises(ValidationError, match="redistribution mass"):
        validate_coefficients(*annulus_distance_power_coeffs(k, scale))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_validates(name):
    preset(name).validate()


@pytest.mark.parametrize("k", [-1, 1.5, "1", True])
def test_vanishing_order_must_be_a_nonnegative_integer(k):
    with pytest.raises(ValidationError):
        coeffs_1d(k=k)


def test_dist_power_values():
    dom = Domain.interval(0, 1)
    f = DistPowerField(dom, 2, const(1, 3.0))
    pts = np.array([[0.1], [0.5]])
    assert np.allclose(f.eval(pts), [3 * 0.01, 3 * 0.25])


def test_constant_value_detection():
    assert const(1, 2.5).constant_value() == 2.5
    assert X.constant_value() is None
    combo = LinearCombo(((2.0, const(1, 1.0)), (1.0, const(1, 0.5))))
    assert combo.constant_value() == 2.5
    assert Product(const(1, 2.0), const(1, 3.0)).constant_value() == 6.0
