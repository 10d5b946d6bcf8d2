import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumplab import Domain, GeometryError
from jumplab.geometry import Ring, _trapezoid

ALL_DOMAINS = [
    Domain.interval(0.0, 1.0),
    Domain.interval(-2.0, 3.5),
    Domain.rectangle(0.0, 0.0, 1.0, 1.0),
    Domain.rectangle(-1.0, 0.5, 2.0, 1.25),
    Domain.disk(0.0, 0.0, 1.0),
    Domain.disk(0.3, -0.2, 0.7),
    Domain.annulus(0.0, 0.0, 0.5, 1.0),
    Domain.annulus(0.1, 0.2, 0.4, 1.3),
]


def test_signed_distance_examples():
    assert Domain.interval(0, 1).signed_distance(0.3) == pytest.approx(0.3, abs=1e-15)
    assert Domain.disk(0, 0, 1).signed_distance([0.6, 0.0]) == pytest.approx(0.4, abs=1e-15)
    assert Domain.annulus(0, 0, 0.5, 1.0).signed_distance([0.7, 0.0]) == pytest.approx(0.2, abs=1e-15)


def test_contains_examples():
    assert Domain.interval(0, 1).contains(0.5)
    assert not Domain.interval(0, 1).contains(1.5)
    assert Domain.disk(0, 0, 1).contains([0.0, 0.99])


def test_inward_normal_examples():
    assert Domain.interval(0, 1).inward_normal(0.0)[0] == 1.0
    assert Domain.interval(0, 1).inward_normal(1.0)[0] == -1.0
    n = Domain.disk(0, 0, 2.0).inward_normal([2.0, 0.0])
    assert np.allclose(n, [-1.0, 0.0])
    n = Domain.annulus(0, 0, 1.0, 2.0).inward_normal([1.0, 0.0])
    assert np.allclose(n, [1.0, 0.0])


def test_inward_normal_off_boundary_raises():
    with pytest.raises(GeometryError):
        Domain.interval(0, 1).inward_normal(0.5)
    with pytest.raises(GeometryError):
        Domain.disk(0, 0, 1).inward_normal([0.5, 0.0])


def test_interval_boundary_quadrature_counting_measure():
    q = Domain.interval(0, 1).boundary_quadrature()
    assert q.nodes.tolist() == [[0.0], [1.0]]
    assert q.weights.tolist() == [1.0, 1.0]
    assert q.normals.tolist() == [[1.0], [-1.0]]


def test_circle_quadrature_weight_sum():
    q = Domain.disk(0, 0, 1.0).boundary_quadrature(100)
    assert abs(q.weights.sum() - 2 * math.pi) <= 1e-8 * 2 * math.pi


def test_rectangle_quadrature_perimeter():
    q = Domain.rectangle(0, 0, 1, 1).boundary_quadrature(50)
    assert abs(q.weights.sum() - 4.0) <= 1e-10


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_boundary_quadrature_invariants(dom):
    q = dom.boundary_quadrature(64)
    assert abs(q.weights.sum() - dom.surface_measure) <= 1e-8 * dom.surface_measure
    assert np.all(q.weights > 0)
    norms = np.linalg.norm(q.normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # nodes sit on the boundary
    assert np.max(np.abs(dom.signed_distance(q.nodes))) <= 1e-12 * dom.diameter
    # stepping inward along the normal lands inside
    eps = 1e-6 * dom.diameter
    assert np.all(dom.contains(q.nodes + eps * q.normals))


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_boundary_methods_agree_with_quadrature(dom):
    q = dom.boundary_quadrature(64)
    coord, comp = dom.boundary_coordinate(q.nodes)
    assert np.array_equal(comp, q.component)
    assert np.allclose(dom.inward_normal(q.nodes), q.normals, rtol=0, atol=1e-12)
    lo, hi = dom.coordinate_range
    assert np.all((lo <= coord) & (coord <= hi))


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_boundary_quadrature_refinement(dom):
    s1 = dom.boundary_quadrature(40).weights.sum()
    s2 = dom.boundary_quadrature(80).weights.sum()
    assert abs(s2 - s1) <= 10.0 * dom.surface_measure / 40**2


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_interior_quadrature_volume(dom):
    iq = dom.interior_quadrature(200)
    assert abs(iq.weights.sum() - dom.volume) <= 1e-6 * dom.volume


def _ring_quadrature_on_a_meshgrid(dom, n, end_corrected):
    """The polar rule with cos and sin taken over the full (r, theta) meshgrid."""
    if end_corrected and dom.has_inner:
        mid = (dom.r_inner + dom.r_outer) / 2
        (r, wr), (r2, wr2) = (_trapezoid(lo, hi, n // 2 + 1, True)
                              for lo, hi in ((dom.r_inner, mid), (mid, dom.r_outer)))
        wr[-1] += wr2[0]
        r, wr = np.concatenate([r, r2[1:]]), np.concatenate([wr, wr2[1:]])
    else:
        r, wr = _trapezoid(dom.r_inner, dom.r_outer, n, end_corrected)
    th = 2 * math.pi * np.arange(n) / n
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = dom.origin[0] + R * np.cos(TH)
    Y = dom.origin[1] + R * np.sin(TH)
    W = np.outer(wr * r, np.full(n, 2 * math.pi / n))
    return np.stack([X.ravel(), Y.ravel()], axis=1), W.ravel()


# the annulus's end-corrected rule splits at the mid radius and needs n >= 10
@pytest.mark.parametrize("dom, n, end_corrected", [
    (dom, n, end_corrected)
    for dom in (Domain.disk(0.3, -0.2, 0.7), Domain.annulus(0.1, 0.2, 0.4, 1.3))
    for n in (8, 80, 1000) for end_corrected in (False, True)
    if not (end_corrected and dom.has_inner and n < 10)], ids=repr)
def test_ring_quadrature_is_bitwise_the_meshgrid_rule(dom, n, end_corrected):
    nodes, weights = _ring_quadrature_on_a_meshgrid(dom, n, end_corrected)
    iq = dom.interior_quadrature(n, end_corrected)
    assert np.array_equal(iq.nodes.view(np.uint64), nodes.view(np.uint64))
    assert np.array_equal(iq.weights.view(np.uint64), weights.view(np.uint64))


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_projection_lands_on_boundary(dom):
    rng = np.random.default_rng(0)
    lo, hi = dom.bounding_box
    pts = lo + rng.random((200, dom.dim)) * (hi - lo)
    proj = dom.project_to_boundary(pts)
    assert np.max(np.abs(dom.signed_distance(proj))) <= 1e-12 * dom.diameter


def _box_projection_by_face_search(dom, pts):
    """Clip, then move every row onto its nearest face: the face search on all rows."""
    lo, hi = dom.bounding_box
    out = np.clip(pts, lo, hi)
    gaps = np.stack([out - lo, hi - out], axis=2).reshape(len(out), -1)
    face = np.argmin(np.abs(gaps), axis=1)
    axis, upper = face // 2, face % 2 == 1
    out[np.arange(len(out)), axis] = np.where(upper, hi[axis], lo[axis])
    return out


@pytest.mark.parametrize("dom", [Domain.interval(0.0, 1.0), Domain.interval(-1.0, -0.0),
                                 Domain.interval(-2.0, 3.5),
                                 Domain.rectangle(0.0, 0.0, 1.0, 1.0),
                                 Domain.rectangle(-1.0, -0.0, 0.0, 1.25)], ids=repr)
def test_box_projection_is_bitwise_the_face_search(dom):
    # rows outside, inside, on faces, at corners, at the centre (a tie between
    # faces), at signed zeros and at infinities, alone and in one batch
    lo, hi = dom.bounding_box
    values = np.concatenate([lo, hi, (lo + hi) / 2, lo - 1, hi + 1, lo + 0.25 * (hi - lo),
                             [0.0, -0.0, np.inf, -np.inf]])
    grid = np.stack(np.meshgrid(*[values] * dom.dim, indexing="ij"), axis=-1)
    rng = np.random.default_rng(2)
    pts = np.concatenate([grid.reshape(-1, dom.dim),
                          lo - 0.5 + rng.random((500, dom.dim)) * (hi - lo + 1.0)])
    expected = _box_projection_by_face_search(dom, pts.copy())
    assert dom.project_to_boundary(pts).tobytes() == expected.tobytes()
    for p, e in zip(pts, expected):
        assert dom.project_to_boundary(p[None]).tobytes() == e.tobytes()


def _box_distance_by_where(dom, pts):
    """The corner distance -hypot evaluated on every row and picked by np.where."""
    sd = None
    for k, (lo, hi) in enumerate(zip(dom.lo, dom.hi)):
        g = np.minimum(pts[:, k] - lo, hi - pts[:, k])
        sd = g if sd is None else np.where((sd < 0) & (g < 0), -np.hypot(sd, g),
                                           np.minimum(sd, g))
    return sd


@pytest.mark.parametrize("dom", [Domain.interval(0.0, 1.0), Domain.interval(-2.0, 3.5),
                                 Domain.rectangle(0.0, 0.0, 1.0, 1.0),
                                 Domain.rectangle(-1.0, 0.5, 2.0, 1.25)], ids=repr)
def test_box_distance_is_bitwise_the_where_formula(dom):
    # rows inside, outside one face, outside a corner, on faces and corners, and
    # at the infinities, alone and in one batch
    lo, hi = dom.bounding_box
    values = np.concatenate([lo, hi, (lo + hi) / 2, lo - 0.3, hi + 0.7, lo + 0.25 * (hi - lo),
                             [np.inf, -np.inf]])
    grid = np.stack(np.meshgrid(*[values] * dom.dim, indexing="ij"), axis=-1)
    rng = np.random.default_rng(3)
    pts = np.concatenate([grid.reshape(-1, dom.dim),
                          lo - 0.5 + rng.random((500, dom.dim)) * (hi - lo + 1.0)])
    expected = _box_distance_by_where(dom, pts)
    if dom.dim == 2:
        assert np.count_nonzero(((pts < lo) | (pts > hi)).sum(axis=1) == 2) > 0
    assert dom.signed_distance(pts).tobytes() == expected.tobytes()
    for p, e in zip(pts, expected):
        assert np.float64(dom.signed_distance(p[None])[0]).tobytes() == e.tobytes()


@pytest.mark.parametrize("dom", [d for d in ALL_DOMAINS if isinstance(d, Ring)], ids=repr)
def test_ring_distance_is_the_hypot_formula_within_rounding(dom):
    # sqrt(dx^2 + dy^2) in place of np.hypot moves rho by a rounding or two, and
    # the difference with a radius rounds once more on each side
    rng = np.random.default_rng(4)
    lo, hi = dom.bounding_box
    pts = np.concatenate([lo - 0.5 + rng.random((2000, 2)) * (hi - lo + 1.0),
                          [dom.origin, [dom.origin[0] + dom.r_outer, dom.origin[1]]]])
    rho = np.hypot(pts[:, 0] - dom.origin[0], pts[:, 1] - dom.origin[1])
    expected = dom.r_outer - rho
    if dom.has_inner:
        expected = np.minimum(rho - dom.r_inner, expected)
    tol = 2 * np.finfo(float).eps * (rho + dom.r_outer)
    assert np.all(np.abs(dom.signed_distance(pts) - expected) <= tol)


def test_annulus_centre_projects_to_the_inner_circle():
    # the centre is 0.5 from the inner circle and 1 from the outer one
    dom = Domain.annulus(0.0, 0.0, 0.5, 1.0)
    assert np.array_equal(dom.project_to_boundary([0.0, 0.0]), [0.5, 0.0])
    shifted = Domain.annulus(0.1, 0.2, 0.4, 1.3)
    assert np.allclose(shifted.project_to_boundary([[0.1, 0.2]]), [[0.5, 0.2]], rtol=0,
                       atol=1e-15)


@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=repr)
def test_signed_distance_matches_projection_distance(dom):
    rng = np.random.default_rng(1)
    lo, hi = dom.bounding_box
    pts = lo + rng.random((200, dom.dim)) * (hi - lo) * 1.2  # some points outside
    proj = dom.project_to_boundary(pts)
    dist = np.linalg.norm(pts - proj, axis=1)
    assert np.max(np.abs(np.abs(dom.signed_distance(pts)) - dist)) <= 1e-10 * dom.diameter


@given(x=st.floats(-3, 3), y=st.floats(-3, 3),
       dom=st.sampled_from(ALL_DOMAINS))
@settings(max_examples=200, deadline=None)
def test_contains_iff_positive_distance(dom, x, y):
    p = np.array([x, y])[: dom.dim]
    assert dom.contains(p) == (dom.signed_distance(p) > 0)


def test_boundary_coordinate_disk_angle():
    dom = Domain.disk(0, 0, 1.0)
    c, comp = dom.boundary_coordinate([0.0, 1.0])
    assert c == pytest.approx(math.pi / 2)
    assert comp == 0


def test_boundary_coordinate_annulus_components():
    dom = Domain.annulus(0, 0, 0.5, 1.0)
    _, inner = dom.boundary_coordinate([0.5, 0.0])
    _, outer = dom.boundary_coordinate([1.0, 0.0])
    assert inner == 0 and outer == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        Domain.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain.rectangle(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Domain.disk(0, 0, 0.0)
    with pytest.raises(ValueError):
        Domain.annulus(0, 0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Domain.annulus(0, 0, 0.0, 1.0)
