"""Reference values computed without jumplab, from numpy and scipy alone.

Every function here solves the continuum problem that a jumplab preset
discretizes, by a closed form, a one-dimensional root or quadrature, or
``scipy.integrate.solve_bvp``.  The generator is (delta/2) a u'' + b u' on
the interval [0, 1] (the 2D presets have a = identity and b = 0), the jump
intensity is V and the redistribution density is mu.

Run ``python3 benchmark/references.py`` to print every reference value the
benchmark and its README quote.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

# The interval presets' redistribution densities on [0, 1] (vanishing order k).
MU_1D = {
    0: lambda x: np.ones_like(x),
    1: lambda x: 6.0 * x * (1.0 - x),
    2: lambda x: 30.0 * x**2 * (1.0 - x) ** 2,
}


def _cosh_ratio(r, x):
    """cosh(r (x - 1/2)) / cosh(r / 2), without overflow for large r."""
    s = np.abs(np.asarray(x, dtype=float) - 0.5)
    return (np.exp(r * (s - 0.5)) + np.exp(-r * (s + 0.5))) / (1.0 + math.exp(-r))


def _mu_integral(mu, r):
    """Integral over [0, 1] of mu(x) cosh(r(x-1/2))/cosh(r/2), for symmetric mu.

    The integrand is a boundary layer of width 1/r, so the half interval is
    split at multiples of that width.
    """
    edges = np.unique(np.concatenate([[0.0, 0.5], np.minimum(0.5, np.arange(1, 40) / r)]))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate.quad(lambda x: mu(x) * _cosh_ratio(r, x), lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return 2.0 * total


def exit_functional_const_1d(delta, x0, a=1.0, V=1.0):
    """E[f(exit)] from x0 for f(x) = x, uniform mu, constant a and V, no drift.

    phi = c + A e^{r(x-1/2)} + B e^{-r(x-1/2)} with r = sqrt(2V/(delta a)) and
    c = int phi dmu, fixed by phi(0) = 0, phi(1) = 1 and the mu-integral.
    """
    r = math.sqrt(2.0 * V / (delta * a))
    e = math.exp(r / 2.0)
    sh = 2.0 * math.sinh(r / 2.0) / r  # int_0^1 e^{+-r(x-1/2)} dx
    M = np.array([[1.0, 1.0 / e, e],
                  [1.0, e, 1.0 / e],
                  [0.0, sh, sh]])
    c, A, B = np.linalg.solve(M, [0.0, 1.0, 0.0])
    return float(c + A * math.exp(r * (x0 - 0.5)) + B * math.exp(-r * (x0 - 0.5)))


def exit_functional_asym(delta, x0):
    """E[f(exit)] for the interval-k0-asym preset: V = (1+x)^2, mu = 1-4x+6x^2, f(x) = x.

    (delta/2) phi'' = V (phi - c) with c = int phi dmu an unknown parameter of
    the boundary-value problem, carried by I' = phi mu with I(0) = 0, I(1) = c.
    """
    V = lambda x: (1.0 + x) ** 2
    mu = lambda x: 1.0 - 4.0 * x + 6.0 * x**2

    def rhs(x, y, p):
        return np.vstack([y[1], 2.0 * V(x) * (y[0] - p[0]) / delta, y[0] * mu(x)])

    def bc(ya, yb, p):
        return np.array([ya[0], yb[0] - 1.0, ya[2], yb[2] - p[0]])

    x = np.linspace(0.0, 1.0, 2001)
    y = np.vstack([x, np.ones_like(x), 0.5 * x])
    sol = integrate.solve_bvp(rhs, bc, x, y, p=[0.6], tol=1e-10, max_nodes=10**6)
    if not sol.success:
        raise RuntimeError(f"solve_bvp failed: {sol.message}")
    return float(sol.sol(x0)[0])


def no_jump_mass(delta, k=0, a=1.0, V=1.0):
    """P(exit before the first jump) from mu, i.e. int u dmu.

    u = cosh(r(x-1/2))/cosh(r/2), r = sqrt(2V/(delta a)), solves
    (delta a/2) u'' = V u with u = 1 at both ends.  For uniform mu the
    integral is (2/r) tanh(r/2).
    """
    r = math.sqrt(2.0 * V / (delta * a))
    if k == 0:
        return 2.0 / r * math.tanh(r / 2.0)
    return _mu_integral(MU_1D[k], r)


def eigenvalue_1d(delta, k=0):
    """Principal decay rate on [0, 1] with a = V = 1 and the order-k mu.

    The eigenfunction is proportional to 1 - cosh(r(x-1/2))/cosh(r/2) with
    r = sqrt(2(1-lambda)/delta), and normalizing its mu-integral gives
    lambda = int mu cosh(r(x-1/2))/cosh(r/2) dx.  lambda = 1 is a spurious
    root, so the bracket stops at 1/2.
    """
    mu = MU_1D[k]
    g = lambda lam: lam - _mu_integral(mu, math.sqrt(2.0 * (1.0 - lam) / delta))
    return optimize.brentq(g, 1e-300, 0.5, xtol=1e-300, rtol=1e-14)


def flux_1d(delta, a=1.0, V=1.0):
    """n . a u' at x = 0 (inward normal) of the no-jump probability: -a r tanh(r/2)."""
    r = math.sqrt(2.0 * V / (delta * a))
    return -a * r * math.tanh(r / 2.0)


def no_jump_center_1d(delta, a=1.0, V=1.0):
    """u(1/2) = 1/cosh(r/2) of the no-jump probability."""
    r = math.sqrt(2.0 * V / (delta * a))
    return 1.0 / math.cosh(r / 2.0)


def disk_eigenvalue(delta):
    """Unit disk, a = I, V = 1, uniform mu.

    lambda = 2 I1(s)/(s I0(s)) with s = sqrt(2(1-lambda)/delta).
    """
    def g(lam):
        s = math.sqrt(2.0 * (1.0 - lam) / delta)
        return lam - 2.0 * special.ive(1, s) / (s * special.ive(0, s))
    return optimize.brentq(g, 1e-300, 0.5, xtol=1e-300, rtol=1e-14)


def disk_exit_functional(delta, radius):
    """E[x_exit] from (radius, 0) on the unit disk with f = x: I1(kr)/I1(k), k = sqrt(2/delta).

    By symmetry int phi dmu = 0, so phi = g(r) cos(theta) with
    (delta/2)(g'' + g'/r - g/r^2) = g.
    """
    kap = math.sqrt(2.0 / delta)
    return float(special.ive(1, kap * radius) / special.ive(1, kap)
                 * math.exp(kap * (radius - 1.0)))


def _annulus_modes(delta, n, values, ri=0.5, ro=1.0):
    """A I_n(kr) + B K_n(kr) through (ri, values[0]) and (ro, values[1]), k = sqrt(2/delta).

    Returns a function of r.  I_n is scaled by e^{-k ro} and K_n by e^{k ri}
    so that nothing overflows.
    """
    kap = math.sqrt(2.0 / delta)
    i_n = lambda r: special.ive(n, kap * r) * np.exp(kap * (r - ro))
    k_n = lambda r: special.kve(n, kap * r) * np.exp(-kap * (r - ri))
    M = np.array([[i_n(ri), k_n(ri)], [i_n(ro), k_n(ro)]])
    A, B = np.linalg.solve(M, values)
    return lambda r: A * i_n(r) + B * k_n(r), A, B, kap


def annulus_outer_flux(delta, ri=0.5, ro=1.0):
    """n . grad u on the outer circle (inward normal) of the no-jump probability.

    u = A I0(kr) + B K0(kr) with u = 1 on both circles; the flux is -u'(ro).
    """
    _, A, B, kap = _annulus_modes(delta, 0, [1.0, 1.0], ri, ro)
    # d/dr I0 = k I1 and d/dr K0 = -k K1, in the scaled forms above
    du = kap * (A * special.ive(1, kap * ro)
                - B * special.kve(1, kap * ro) * math.exp(-kap * (ro - ri)))
    return float(-du)


def annulus_exit_functional(delta, radius, ri=0.5, ro=1.0):
    """E[x_exit] from (radius, 0) on the annulus with f = x.

    The mode-0 part of f vanishes on both circles, so int phi dmu = 0 and
    phi = g(r) cos(theta) with g = A I1(kr) + B K1(kr), g(ri) = ri, g(ro) = ro.
    """
    g = _annulus_modes(delta, 1, [ri, ro], ri, ro)[0]
    return float(g(radius))


def square_eigenvalue(delta, n_terms=200_000):
    """Unit square, a = I, V = 1, uniform mu.

    lambda solves sum_{m,n odd} 64/(pi^4 m^2 n^2) / ((1-lambda) + (delta/2) pi^2 (m^2+n^2)) = 1.
    The sum over n is closed: sum_{n odd} 1/(n^2 (n^2+q^2)) = (pi^2/8 - pi tanh(pi q/2)/(4q))/q^2.
    The sum over m is cut after ``n_terms`` odd terms (tail below 1e-16).
    """
    m = 2.0 * np.arange(n_terms) + 1.0

    def g(lam):
        q2 = m**2 + 2.0 * (1.0 - lam) / (delta * math.pi**2)
        q = np.sqrt(q2)
        inner = (math.pi**2 / 8.0 - math.pi * np.tanh(math.pi * q / 2.0) / (4.0 * q)) / q2
        total = np.sum(64.0 / (math.pi**4 * m**2) * 2.0 / (delta * math.pi**2) * inner)
        return total - 1.0
    return optimize.brentq(g, 1e-300, 0.5, xtol=1e-300, rtol=1e-14)


def square_mid_edge_flux(delta, n_terms=2_000_000):
    """n . grad u at the mid-edge point (0, 1/2) (inward normal) of the no-jump probability.

    u = 1 - w with (delta/2) Lap w - w = -1, w = 0 on the boundary, expanded in
    sin(m pi x) sin(n pi y) over odd m, n.  The sum over m is closed,
    sum_{m odd} 1/(m^2 + q^2) = pi tanh(pi q/2)/(4q), which leaves
    -sum_{n odd} (-1)^((n-1)/2) 4 tanh(pi q_n/2)/(alpha n q_n) with
    alpha = delta pi^2/2 and q_n^2 = n^2 + 1/alpha.  That alternating sum is
    averaged over its last two partial sums.
    """
    alpha = delta * math.pi**2 / 2.0
    n = 2.0 * np.arange(n_terms) + 1.0
    q = np.sqrt(n**2 + 1.0 / alpha)
    sign = np.where(np.arange(n_terms) % 2 == 0, 1.0, -1.0)
    terms = sign * 4.0 * np.tanh(math.pi * q / 2.0) / (alpha * n * q)
    total = math.fsum(terms[:-1])
    return float(-(total + 0.5 * terms[-1]))


def disk_no_jump_flux(delta):
    """n . grad u on the unit circle (inward normal) of the no-jump probability.

    u = I0(kr)/I0(k) with k = sqrt(2/delta), so the flux is -k I1(k)/I0(k).
    """
    kap = math.sqrt(2.0 / delta)
    return float(-kap * special.ive(1, kap) / special.ive(0, kap))


def annulus_eigenvalue(delta, ri=0.5, ro=1.0):
    """Annulus ri < r < ro, a = I, V = 1, uniform mu.

    The eigenfunction is proportional to 1 - u_s with u_s = A I0(sr) + B K0(sr)
    equal to 1 on both circles, s = sqrt(2(1-lambda)/delta), and
    lambda = int u_s dmu = 2/(ro^2-ri^2) [A r I1(sr)/s - B r K1(sr)/s] from ri to ro.
    """
    def g(lam):
        s = math.sqrt(2.0 * (1.0 - lam) / delta)
        i_n = lambda n, r: special.ive(n, s * r) * math.exp(s * (r - ro))
        k_n = lambda n, r: special.kve(n, s * r) * math.exp(-s * (r - ri))
        A, B = np.linalg.solve([[i_n(0, ri), k_n(0, ri)], [i_n(0, ro), k_n(0, ro)]], [1.0, 1.0])
        prim = lambda r: r * (A * i_n(1, r) - B * k_n(1, r)) / s
        return lam - 2.0 / (ro**2 - ri**2) * (prim(ro) - prim(ri))
    return optimize.brentq(g, 1e-300, 0.5, xtol=1e-300, rtol=1e-14)


def _print_all():
    rows = [
        ("exit functional, interval-k0-uniform, delta=0.05, x0=0.3",
         exit_functional_const_1d(0.05, 0.3)),
        ("exit functional, interval-flux-a2v3, delta=0.05, x0=0.3",
         exit_functional_const_1d(0.05, 0.3, a=2.0, V=3.0)),
        ("exit functional, interval-k0-asym, delta=0.05, x0=0.5",
         exit_functional_asym(0.05, 0.5)),
        ("no-jump mass, k=0, delta=0.05", no_jump_mass(0.05)),
        ("no-jump mass, interval-flux-a2v3, delta=0.05", no_jump_mass(0.05, a=2.0, V=3.0)),
        ("no-jump mass, k=1, delta=1e-4", no_jump_mass(1e-4, 1)),
        ("no-jump mass, k=2, delta=1e-4", no_jump_mass(1e-4, 2)),
        ("lambda0, k=0, delta=1e-3", eigenvalue_1d(1e-3, 0)),
        ("lambda0, k=1, delta=1e-3", eigenvalue_1d(1e-3, 1)),
        ("lambda0, k=2, delta=1e-3", eigenvalue_1d(1e-3, 2)),
        ("flux, interval-flux-a2v3, delta=1e-4", flux_1d(1e-4, a=2.0, V=3.0)),
        ("u(1/2), interval-k0-uniform, delta=1e-3", no_jump_center_1d(1e-3)),
        ("lambda0, disk-k0-radial, delta=1e-3", disk_eigenvalue(1e-3)),
        ("E[x_exit] from (0.95, 0), disk-k0-radial, delta=1e-3", disk_exit_functional(1e-3, 0.95)),
        ("outer flux, annulus-flux, delta=1e-3", annulus_outer_flux(1e-3)),
        ("E[x_exit] from (0.95, 0), annulus-flux, delta=1e-3", annulus_exit_functional(1e-3, 0.95)),
        ("lambda0, square-k0-uniform, delta=1e-3", square_eigenvalue(1e-3)),
        ("mid-edge flux, square-k0-uniform, delta=1e-3", square_mid_edge_flux(1e-3)),
        ("outer flux, disk-k0-radial, delta=1e-3", disk_no_jump_flux(1e-3)),
        ("lambda0, annulus-flux, delta=1e-3", annulus_eigenvalue(1e-3)),
    ]
    for label, value in rows:
        print(f"{label:58s} {value:.9g}")


if __name__ == "__main__":
    _print_all()
