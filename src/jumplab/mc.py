"""Monte Carlo simulation of the jump-redistributed diffusion.

A path follows the Euler chain of the small-diffusion process (drift
delta*(b + div(a)/2), covariance delta*a, time step dt), teleports to a fresh
draw from the redistribution density when its jump clock of rate V rings, and
stops on leaving the domain.

Each lane keeps its own integer step counter t.  One lockstep iteration
advances a lane by a block of m steps: one Gaussian draw scaled by sqrt(m),
drift times m, and (for the 1D bridge) the step variance times m.  When a and
b are constant, m is the largest integer with r >= m*shift and
(r - m*shift)^2 >= 2*BRIDGE_EXPONENT_CUTOFF*m*delta*lambda_max(a)*dt, where r
is a distance to the boundary and shift = delta*|b|*dt is the drift of one
step.  Otherwise m = 1.  The noise S_k of the block's first k steps is a sum of
independent symmetric vectors, so Levy's maximal inequality (Ledoux and
Talagrand 1991, Probability in Banach Spaces, Prop. 2.3) gives, with
s = r - m*shift, P(max_{k<=m} |S_k| >= s) <= 2 P(|S_m| >= s)
<= 2 exp(-s^2 / (2*lambda_max(a)*delta*m*dt)) for d = 1 (the Gaussian tail)
and d = 2 (the chi-squared tail with two degrees of freedom).  The path
therefore reaches r inside a block with probability below 2e^-40.

- First crossing: r is the distance to the nearest boundary point, so exit
  points, the step grid of exit times and the first-crossing bias stay those
  of the one-step chain.
- 1D bridge: r is the distance to the far end.  With constant a and b the
  bridge test exp(-2*d0*d1/S), S = delta*a*m*dt, is exact for one wall over a
  block of any length, so the near end needs no guard.  A lane that exits in a
  block of m > 1 steps (end point outside, or the bridge fires) exits at step
  t + ceil(m*s/T), where s is the crossing time within a block of length T.
  Given the block's end points, at distances d0 and d1 from the wall crossed,
  u = s/(T - s) is inverse Gaussian with mean d0/d1 and shape d0^2/S (Levy
  with scale d0^2/S when d1 = 0): the hitting density of the wall at s times
  the free transition density from the wall to the end point over T - s is
  proportional, in u, to u^-3/2 exp(-(d0^2/u + d1^2*u)/(2S)).  The block then
  has the law of the one-step bridge chain: exit side, exit step, jumps.  A
  lane that starts on or outside the boundary takes single steps.

The jump clock is thinned: it rings at the bound Vbar of V, at the step
ring = t + ceil(E / (Vbar*dt)) for a fresh unit exponential E, and a ring is
a jump with probability V(x)/Vbar.  Vbar is V itself when V is constant (every
ring jumps and no uniform is drawn); otherwise it is 1.05 times the largest V
on the sample the redistribution sampler bounds mu on, and a lane where V
exceeds it raises SamplingError.  A block never covers a ring step, so a ring
happens at its exact step: each lane keeps its stop step min(ring - 1, horizon),
refreshed only where the clock rings; a block runs at most to it, and a lane
whose stop step is its current step takes its ring step alone.  Jump targets
come from a per-chunk pool of draws from mu, refilled with max(n, lanes of the
chunk) fresh draws when fewer than the n targets needed remain; each draw is
used once and independently of the paths, so the targets are independent
draws from mu.  A lane retires on exit, on its first jump in
stop-at-first-jump mode, or when t reaches the horizon.

Paths are simulated in lockstep chunks.  Within an iteration the events, which
touch few lanes, work on index arrays rather than on masks over every lane:
the lanes that ring, jump, exit or cross.  A lane's integer state (step, stop
step, jump count, path) is one column of a 4-row array, so one take compacts
it when lanes retire, and the exit points of a chunk are projected onto the
boundary in one call after its loop.  Each chunk owns a counter-based random
stream derived from (master seed, chunk index), so results are bit-identical
for a fixed configuration no matter the execution order or worker count.
Chunk layout (chunk_size) is part of the configuration: changing it
reshuffles the randomness exactly like changing the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplingError, SolverError, ValidationError
from .fields import CoefficientSet, nondivergence_drift
from .fitting import fit_slope
from .geometry import Domain
from .tables import write_csv

# Bridge crossings with exponent beyond this are treated as impossible
# (probability below e^-40); keeps the exp() work on the boundary layer only.
BRIDGE_EXPONENT_CUTOFF = 40.0

STATUS_EXIT = 0
STATUS_CENSORED = 1
STATUS_JUMPED = 2  # only in stop-at-first-jump mode

# Ring step of a clock whose rate bound is zero: past any horizon.
NEVER = 2**62


def _require_count(name, value, least):
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    delta: float
    dt: float
    n_paths: int
    seed: int = 0
    exit_mode: str = "first-crossing"   # or "bridge-1d"
    horizon: float | None = None        # time units; None -> 10**6 steps
    chunk_size: int = 32768

    def __post_init__(self):
        for name, least in (("n_paths", 1), ("chunk_size", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), least)
        for name in ("delta", "dt", "horizon"):
            value = getattr(self, name)
            if name == "horizon" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                                 np.floating)):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not (0 < self.delta < math.inf and 0 < self.dt < math.inf):
            raise ValidationError("need finite delta > 0 and finite dt > 0")
        if self.exit_mode not in ("first-crossing", "bridge-1d"):
            raise ValidationError(f"unknown exit mode {self.exit_mode!r}")
        if self.horizon is not None and not self.horizon > 0:
            raise ValidationError(f"horizon must be > 0 or None, got {self.horizon!r}")
        if self.horizon is not None and not self.horizon / self.dt < 2**62:
            raise ValidationError("horizon/dt overflows the step counter")

    @property
    def horizon_steps(self):
        if self.horizon is None:
            return 10**6
        return max(1, int(math.ceil(self.horizon / self.dt)))


@dataclass(frozen=True)
class PathEnsemble:
    """Raw per-path outcomes, in path order."""

    exit_points: np.ndarray  # (N, d); rows of censored paths are the last position
    exit_times: np.ndarray   # (N,) time of retirement
    jump_counts: np.ndarray  # (N,)
    status: np.ndarray       # (N,) STATUS_*
    lane_steps: int          # blocks simulated, summed over lanes
    iterations: int          # lockstep iterations, summed over chunks

    @property
    def n_paths(self):
        return len(self.exit_times)

    def exited(self):
        return self.status == STATUS_EXIT

    def survival_times(self):
        """Exit times with non-exited paths pushed past any horizon."""
        t = self.exit_times.copy()
        t[self.status == STATUS_CENSORED] = np.inf
        return t

    def to_csv(self, path):
        d = self.exit_points.shape[1]
        header = ["path"] + [f"exit_x{i}" for i in range(d)] + ["exit_time", "jumps", "status"]
        rows = zip(range(self.n_paths), self.exit_points, self.exit_times,
                   self.jump_counts, self.status)
        write_csv(path, header, ([p, *x, t, j, s] for p, x, t, j, s in rows))


def _chunk_rng(seed, chunk_index):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0, int(chunk_index)))
    return np.random.Generator(np.random.Philox(ss))


def _bound_sample(domain: Domain, resolution=2048):
    """Points that the sampler and the jump clock take their bounds on: a dense
    interior grid (``resolution`` nodes in 1D, 256 per axis in 2D) and the boundary."""
    res = resolution if domain.dim == 1 else 256
    return np.concatenate([domain.interior_quadrature(res).nodes,
                           domain.boundary_quadrature(256).nodes])


class MuSampler:
    """Rejection sampler for the redistribution density.

    Proposes uniformly on the bounding box against a precomputed bound
    M = 1.05 * max(mu) over a dense sample; raises SamplingError when a
    proposal's density exceeds M (the draws would not follow mu) or when the
    acceptance rate collapses below 1e-4.
    """

    def __init__(self, coeffs: CoefficientSet, domain: Domain, sample_resolution=2048):
        self.domain = domain
        self.mu = coeffs.redistribution
        self.dim = domain.dim
        peak = float(np.max(self.mu.eval(_bound_sample(domain, sample_resolution))))
        if not peak > 0:
            raise SamplingError("redistribution density has no positive values on the sample")
        self.bound = 1.05 * peak
        self.lo, self.hi = domain.bounding_box

    def draw(self, rng, size):
        out = np.empty((size, self.dim))
        filled = 0
        proposed = 0
        accepted = 0
        while filled < size:
            m = max(64, 2 * (size - filled))
            pts = self.lo + rng.random((m, self.dim)) * (self.hi - self.lo)
            u = rng.random(m)
            dens = np.where(self.domain.contains(pts),
                            self.mu.eval(pts), -1.0)
            peak = dens.max()
            if peak > self.bound:
                raise SamplingError(
                    f"redistribution density {peak:.4g} exceeds the rejection bound "
                    f"{self.bound:.4g}; the density peaks between the sample points")
            good = u * self.bound < dens
            n_good = int(good.sum())
            take = min(n_good, size - filled)
            if take:
                out[filled:filled + take] = pts[good][:take]
                filled += take
            proposed += m
            accepted += n_good
            if proposed >= max(20000, 4 * size) and accepted < 1e-4 * proposed:
                raise SamplingError(
                    f"rejection acceptance rate {accepted / proposed:.2e} below 1e-4; "
                    "density too peaked for box rejection sampling")
        return out


class _Kinetics:
    """Per-run precomputation for the Euler step and the jump clock."""

    def __init__(self, coeffs: CoefficientSet, domain: Domain):
        self.dim = dim = domain.dim
        self.intensity = coeffs.intensity
        self.v_const = coeffs.intensity.constant_value()
        if self.v_const is not None:
            self.v_bound = self.v_const
        else:
            self.v_bound = 1.05 * float(np.max(self.intensity.eval(_bound_sample(domain))))
        drift = nondivergence_drift(coeffs)
        self.b_comps = drift.components
        cvals = [c.constant_value() for c in self.b_comps]
        if all(v is not None for v in cvals):
            self.b_const = np.asarray(cvals, dtype=float)
        else:
            self.b_const = None
        self.drift_zero = self.b_const is not None and not np.any(self.b_const)
        entries = [coeffs.diffusion.entry(i, j).constant_value()
                   for i in range(dim) for j in range(dim)]
        if all(e is not None for e in entries):
            amat = np.asarray(entries, dtype=float).reshape(dim, dim)
            self.root_const = np.linalg.cholesky(amat)
            # a diagonal root scales each coordinate: a broadcast, not a matmul
            diag = np.diag(self.root_const)
            self.root_diag = diag if np.array_equal(np.diag(diag), self.root_const) else None
        else:
            self.root_const = self.root_diag = None
        self.unit_root = self.root_diag is not None and bool(np.all(self.root_diag == 1.0))
        self.diffusion = coeffs.diffusion
        self.a00 = coeffs.diffusion.entry(0, 0)
        self.a00_const = self.a00.constant_value()
        # blocks of steps need a and b constant: lambda_max(a) and |b| then bound
        # the spread and the shift of every block
        self.blocks = self.root_const is not None and self.b_const is not None
        if self.blocks:
            self.a_max = float(np.linalg.eigvalsh(amat)[-1])
            self.b_norm = float(np.linalg.norm(self.b_const))

    def drift_at(self, x):
        if self.b_const is not None:
            return self.b_const
        return np.stack([c.eval(x) for c in self.b_comps], axis=1)

    def noise(self, x, xi):
        """sigma(x) @ xi, batched; ``xi`` itself when sigma is the identity."""
        if self.unit_root:
            return xi
        if self.root_diag is not None:
            return xi * self.root_diag
        if self.root_const is not None:
            return xi @ self.root_const.T
        if self.dim == 1:
            a = self.a00.eval(x)
            return xi * np.sqrt(a)[:, None]
        roots = np.linalg.cholesky(self.diffusion(x))
        return np.einsum("nij,nj->ni", roots, xi)


def _block_steps(r, var, shift):
    """Per lane, the largest integer m with (r - m*shift)^2 >= var*m and
    r >= m*shift; 1 where there is none, and at most 2^62.

    With var = 2*BRIDGE_EXPONENT_CUTOFF times the one-step variance bound
    delta*lambda_max(a)*dt, Levy's maximal inequality bounds the probability
    that a block of m steps reaches r by 2e^-40 in d <= 2 (see the module
    docstring).  ``r`` is the distance to the nearest boundary point under
    first crossing, and to the far end in 1D bridge mode, where the bridge test
    covers the near end.  Both conditions hold exactly for m up to the smaller
    root of the quadratic, written here in a form free of cancellation; m is
    its floor.
    """
    r = np.maximum(r, 0.0)
    if shift:
        root = 2.0 * r * r / (2.0 * r * shift + var + np.sqrt(var * var + 4.0 * var * r * shift))
    else:  # r^2 / var, in place
        root = r
        root *= r
        root /= var
    np.maximum(root, 1.0, out=root)
    np.minimum(root, float(NEVER), out=root)
    return root.astype(np.int64)


def _crossing_ratio(rng, d0, d1, var):
    """Per lane, u = s/(T - s) for the time s at which a Brownian path over a
    block of length T, from distance d0 > 0 of a wall to distance d1 >= 0 of it
    with block variance ``var``, first crosses the wall; given that it does.

    u is IG(d0/d1, d0^2/var), drawn by the transformation method of Michael,
    Schucany and Haas (1976), written without cancellation and without dividing
    by d1: at d1 = 0 it is Levy(d0^2/var).
    """
    c = rng.standard_normal(len(d0)) ** 2 * var / (2.0 * d0)
    root = d0 / (d1 + c + np.sqrt(c * c + 2.0 * d1 * c))
    accept = rng.random(len(d0)) * (d0 + d1 * root) < d0
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(accept, root, d0 / d1 * (d0 / (d1 * root)))


def _crossing_steps(m, u):
    """The step k = ceil(m*s/T) in [1, m] of a block of m steps that holds the
    crossing time s, from u = s/(T - s)."""
    with np.errstate(divide="ignore"):
        k = np.ceil(m / (1.0 + 1.0 / u)).astype(np.int64)
    return np.minimum(np.maximum(k, 1), m)


def _simulate_chunk(chunk_index, n_lanes, x0, domain, cfg, sampler, kin, stop_on_jump):
    rng = _chunk_rng(cfg.seed, chunk_index)
    d = domain.dim
    if x0 is None:
        x = sampler.draw(rng, n_lanes)
    else:
        x = np.tile(np.asarray(x0, dtype=float).reshape(1, d), (n_lanes, 1))
    dt = cfg.dt
    horizon = cfg.horizon_steps
    ring_rate = kin.v_bound * dt

    def ring_gaps(n):
        """Steps from a lane's current step to its next ring, each >= 1."""
        if not ring_rate > 0:
            return np.full(n, NEVER, dtype=np.int64)
        gaps = np.ceil(rng.exponential(1.0, n) / ring_rate)
        return np.minimum(np.maximum(gaps, 1.0), float(NEVER)).astype(np.int64)

    pool, pooled = np.empty((0, d)), 0

    def targets(n):
        """The next n jump targets from the chunk's pool of draws from mu,
        refilled with max(n, n_lanes) fresh draws when it runs short."""
        nonlocal pool, pooled
        if pooled + n > len(pool):
            pool, pooled = sampler.draw(rng, max(n, n_lanes)), 0
        pooled += n
        return pool[pooled - n:pooled]

    # a lane's integer state, one row each: the step t, the stop step (the last
    # step a block may reach), the jump count and the lane's path in the chunk
    state = np.empty((4, n_lanes), dtype=np.int64)
    t, stop, jumps, lane = state
    t[:], jumps[:], lane[:] = 0, 0, np.arange(n_lanes)
    np.minimum(ring_gaps(n_lanes) - 1, horizon, out=stop)
    dist = domain.signed_distance(x)

    out_points = np.empty((n_lanes, d))
    out_times = np.empty(n_lanes)
    out_jumps = np.zeros(n_lanes, dtype=np.int64)
    out_status = np.full(n_lanes, STATUS_CENSORED, dtype=np.int8)

    bridge = cfg.exit_mode == "bridge-1d"
    if bridge and d != 1:
        raise ValidationError("bridge-corrected exit detection is 1D only")
    sdt = math.sqrt(cfg.delta * dt)
    if bridge:
        (xl,), (xr,) = domain.lo, domain.hi
        # lanes further than near_tol * sqrt(m) from both endpoints cannot fire the bridge
        if kin.a00_const is not None:
            a_max = kin.a00_const
        else:
            probe = np.linspace(xl, xr, 256).reshape(-1, 1)
            a_max = float(np.max(kin.a00.eval(probe)))
        near_tol = math.sqrt(0.5 * BRIDGE_EXPONENT_CUTOFF * cfg.delta * a_max * dt)
    if kin.blocks:
        block_var = 2 * BRIDGE_EXPONENT_CUTOFF * cfg.delta * kin.a_max * dt
        block_shift = cfg.delta * kin.b_norm * dt

    def exit_steps(ids, wall=None):
        """The step at which each lane of ``ids`` crosses the boundary at ``wall``
        (by default the boundary point nearest its block's end): the block's end
        after a single step, else a draw from the bridge's law."""
        steps = t[ids]
        if bridge and kin.blocks:
            k = m[ids]
            long = k > 1
            if np.count_nonzero(long):
                k, end = k[long], xn[ids][long]
                wall = (domain.project_to_boundary(end) if wall is None else wall[long])[:, 0]
                u = _crossing_ratio(rng, np.abs(x[ids, 0][long] - wall),
                                    np.abs(end[:, 0] - wall),
                                    cfg.delta * kin.a00_const * dt * k)
                steps[long] += _crossing_steps(k, u) - k
        return steps

    def retire(ids, points, steps, status):
        """Write out the lanes ``ids`` (positions, or a mask over the live lanes)."""
        paths = lane[ids]
        out_points[paths] = points
        out_times[paths] = steps * dt
        out_jumps[paths] = jumps[ids]
        out_status[paths] = status

    # Events touch few lanes, so they work on index sets: the lanes that ring
    # (``rung``), jump, exit or cross.  The lockstep tail of few lanes pays the
    # overhead of every call on every iteration: np.count_nonzero tests a mask
    # for any True at a fraction of ndarray.any's, and mask.nonzero()[0] skips
    # np.flatnonzero's Python wrapper.
    lane_steps = iterations = 0
    while len(x):
        iterations += 1
        lane_steps += len(x)
        rung = (stop == t).nonzero()[0]  # this lane's next step is a ring of the clock
        jumped = rung
        if len(rung) and kin.v_const is None:
            v = kin.intensity.eval(x[rung])
            if np.max(v) > kin.v_bound:
                raise SamplingError(
                    f"jump intensity {np.max(v):.4g} exceeds the thinning bound "
                    f"{kin.v_bound:.4g}; the intensity peaks between the sample points")
            jumped = rung[rng.random(len(rung)) * kin.v_bound < v]

        # a block runs up to the stop step; a ringing lane takes its ring step alone
        if kin.blocks:
            reach = dist
            if bridge:  # sized against the far end; lanes not inside take single steps
                reach = np.where(dist > 0, np.maximum(x[:, 0] - xl, xr - x[:, 0]), 0.0)
            m = _block_steps(reach, block_var, block_shift)
            np.minimum(m, stop - t, out=m)
            m[rung] = 1
            root_m = np.sqrt(m)
            scale, m_col = (sdt * root_m)[:, None], m[:, None]
        else:
            m = root_m = m_col = 1
            scale = sdt

        xn = kin.noise(x, rng.standard_normal((len(x), d)))
        xn *= scale
        xn += x
        if not kin.drift_zero:
            xn += cfg.delta * kin.drift_at(x) * dt * m_col
        t += m

        dist_new = domain.signed_distance(xn)
        keep = dist_new > 0  # the lanes that stay live: so far, those inside
        if len(jumped):
            keep[jumped] = True  # a jump moves the lane before it can exit
            if stop_on_jump:
                retire(jumped, x[jumped], t[jumped], STATUS_JUMPED)

        crossed = None
        if bridge:
            x0col, xn0 = x[:, 0], xn[:, 0]
            tol = near_tol * root_m
            near = ((x0col - xl < tol) | (xr - x0col < tol)
                    | (xn0 - xl < tol) | (xr - xn0 < tol)) & keep
            near[jumped] = False
            if np.count_nonzero(near):
                nidx = np.flatnonzero(near)
                xo = x0col[nidx]
                xm = xn0[nidx]
                a_here = kin.a00_const if kin.a00_const is not None \
                    else kin.a00.eval(x[nidx])
                s2 = cfg.delta * a_here * dt * (m[nidx] if kin.blocks else 1)
                expo_l = 2.0 * (xo - xl) * (xm - xl) / s2
                expo_r = 2.0 * (xr - xo) * (xr - xm) / s2
                hit = np.zeros(len(nidx), dtype=bool)
                hit_left = np.zeros(len(nidx), dtype=bool)
                need_l = expo_l < BRIDGE_EXPONENT_CUTOFF
                if np.count_nonzero(need_l):
                    u = rng.random(int(need_l.sum()))
                    fired = u < np.exp(-expo_l[need_l])
                    hit[need_l] |= fired
                    hit_left[need_l] |= fired
                need_r = (expo_r < BRIDGE_EXPONENT_CUTOFF) & ~hit
                if np.count_nonzero(need_r):
                    u = rng.random(int(need_r.sum()))
                    hit[need_r] |= u < np.exp(-expo_r[need_r])
                if np.count_nonzero(hit):
                    crossed = nidx[hit]  # at an end point, which the projection keeps
                    cross_point = np.where(hit_left[hit], xl, xr).reshape(-1, 1)

        # an exit is written out at its block's end, projected after the loop
        if np.count_nonzero(keep) < len(x):
            exits = (~keep).nonzero()[0]
            retire(exits, xn[exits], exit_steps(exits), STATUS_EXIT)
        if crossed is not None:
            retire(crossed, cross_point, exit_steps(crossed, cross_point), STATUS_EXIT)

        if len(jumped) and not stop_on_jump:
            landed = targets(len(jumped))
            xn[jumped] = landed
            dist_new[jumped] = domain.signed_distance(landed)
            jumps[jumped] += 1
        if len(rung):
            stop[rung] = np.minimum(t[rung] + ring_gaps(len(rung)) - 1, horizon)

        x, dist = xn, dist_new
        if crossed is not None:
            keep[crossed] = False
        if stop_on_jump:
            keep[jumped] = False
        done = t == horizon
        if np.count_nonzero(done):  # censored at the horizon
            done &= keep
            retire(done, x[done], t[done], STATUS_CENSORED)
            keep &= ~done
        if np.count_nonzero(keep) < len(x):
            kept = keep.nonzero()[0]
            x, dist, state = x.take(kept, axis=0), dist.take(kept), state.take(kept, axis=1)
            t, stop, jumps, lane = state

    # one projection for the chunk's exits rather than one per iteration with an exit
    exited = out_status == STATUS_EXIT
    out_points[exited] = domain.project_to_boundary(out_points[exited])
    return out_points, out_times, out_jumps, out_status, lane_steps, iterations


def _chunk_task(args):
    return args[0], _simulate_chunk(*args)


def simulate_ensemble(coeffs: CoefficientSet, domain: Domain, cfg: SimConfig,
                      x0=None, stop_on_jump=False, workers=1) -> PathEnsemble:
    """Simulate all paths; ``x0=None`` starts each path from the redistribution density.

    ``workers`` only distributes chunks over processes; results are identical
    for any worker count and execution order.  An ``x0`` farther than the
    boundary tolerance outside the domain, or ``workers`` not an integer >= 1,
    raises ValidationError.
    """
    _require_count("workers", workers, 1)
    if x0 is not None:
        domain.require_inside(x0, "x0")
    sampler = MuSampler(coeffs, domain)
    kin = _Kinetics(coeffs, domain)
    n = cfg.n_paths
    cs = cfg.chunk_size
    n_chunks = (n + cs - 1) // cs
    points = np.empty((n, domain.dim))
    times = np.empty(n)
    jumps = np.empty(n, dtype=np.int64)
    status = np.empty(n, dtype=np.int8)

    tasks = [(c, min(n, (c + 1) * cs) - c * cs, x0, domain, cfg, sampler, kin, stop_on_jump)
             for c in range(n_chunks)]
    if workers <= 1 or n_chunks == 1:
        results = [_chunk_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            results = list(pool.map(_chunk_task, tasks))
    lane_steps = iterations = 0
    for c, (p, t, j, s, ls, it) in results:
        lo = c * cs
        hi = min(n, lo + cs)
        points[lo:hi] = p
        times[lo:hi] = t
        jumps[lo:hi] = j
        status[lo:hi] = s
        lane_steps += ls
        iterations += it
    return PathEnsemble(points, times, jumps, status, lane_steps, iterations)


@dataclass(frozen=True)
class ExitLawEstimate:
    bin_edges: np.ndarray
    bin_probs: np.ndarray        # over non-censored exits, sums to 1
    mean_f: float
    stderr_f: float
    mean_jumps: float
    survival_times: np.ndarray
    survival_probs: np.ndarray
    n_paths: int
    n_censored: int


def bin_edges(domain: Domain, bins):
    """Explicit edges, or ``bins`` equal bins over the boundary coordinate range."""
    if not np.isscalar(bins):
        return np.asarray(bins, dtype=float)
    if int(bins) < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    return np.linspace(*domain.coordinate_range, int(bins) + 1)


def estimate_exit_law(x0, coeffs: CoefficientSet, domain: Domain, cfg: SimConfig,
                      bins=2, f=None, workers=1) -> ExitLawEstimate:
    """Exit statistics of a fresh ensemble from ``x0``; see ``exit_law_summary``."""
    edges = bin_edges(domain, bins)  # a bad bin count fails before the paths run
    ens = simulate_ensemble(coeffs, domain, cfg, x0=x0, workers=workers)
    return exit_law_summary(ens, coeffs, domain, cfg, bins=edges, f=f)


def exit_law_summary(ens: PathEnsemble, coeffs: CoefficientSet, domain: Domain,
                     cfg: SimConfig, bins=2, f=None) -> ExitLawEstimate:
    """Aggregate exit statistics over the independent paths of ``ens``, which
    ``cfg`` simulated.

    Censored paths are excluded from the exit histogram and f-average but
    enter the survival curve, sampled at 64 evenly spaced times up to the horizon
    (or the last exit time when there is none).
    """
    edges = bin_edges(domain, bins)
    exited = ens.exited()
    n_exit = int(exited.sum())
    if n_exit == 0:
        raise SolverError("all paths were censored at the horizon")
    pts = ens.exit_points[exited]
    coords, _ = domain.boundary_coordinate(pts)
    counts, _ = np.histogram(coords, bins=edges)
    probs = counts / n_exit

    f = coeffs.boundary_data if f is None else f
    fvals = f.eval(pts)
    mean_f = float(np.mean(fvals))
    stderr_f = float(np.std(fvals, ddof=1) / math.sqrt(n_exit)) if n_exit > 1 else 0.0

    tau = ens.survival_times()
    t_end = cfg.horizon if cfg.horizon is not None else float(np.max(ens.exit_times))
    survival_grid = np.linspace(0.0, t_end, 65)[1:]
    surv = np.array([np.mean(tau > t) for t in survival_grid])
    return ExitLawEstimate(
        bin_edges=edges, bin_probs=probs, mean_f=mean_f, stderr_f=stderr_f,
        mean_jumps=float(np.mean(ens.jump_counts[exited])),
        survival_times=survival_grid, survival_probs=surv,
        n_paths=ens.n_paths, n_censored=int((ens.status == STATUS_CENSORED).sum()))


@dataclass(frozen=True)
class SurvivalRateEstimate:
    rate: float
    r_squared: float
    n_window: int
    window: tuple
    times: np.ndarray
    probs: np.ndarray


def fit_survival_rate(times, probs, window=(0.01, 0.2)) -> SurvivalRateEstimate:
    """Least-squares slope of log P(tau > t) over the window where P is in range."""
    times = np.asarray(times, dtype=float)
    probs = np.asarray(probs, dtype=float)
    mask = (probs >= window[0]) & (probs <= window[1])
    if int(mask.sum()) < 4:
        raise ValidationError(
            f"only {int(mask.sum())} survival points inside P in [{window[0]}, {window[1]}]; need >= 4")
    t = times[mask]
    y = np.log(probs[mask])
    slope, _, r2 = fit_slope(t, y)
    return SurvivalRateEstimate(rate=-slope, r_squared=r2,
                                n_window=int(mask.sum()), window=tuple(window),
                                times=t, probs=probs[mask])


def estimate_survival_rate(coeffs: CoefficientSet, domain: Domain, cfg: SimConfig,
                           t_grid=None, x0=None, workers=1,
                           window=(0.01, 0.2)) -> SurvivalRateEstimate:
    """Exponential decay rate of P(tau > t), from simulated paths."""
    if x0 is None:
        x0 = domain.center
    ens = simulate_ensemble(coeffs, domain, cfg, x0=x0, workers=workers)
    tau = ens.survival_times()
    if t_grid is None:
        finite = ens.exit_times[ens.exited()]
        if len(finite) < 10:
            raise SolverError("too few exits to estimate a survival rate")
        t_grid = np.linspace(0.0, float(np.quantile(finite, 0.999)), 200)[1:]
    probs = np.array([np.mean(tau > t) for t in t_grid])
    return fit_survival_rate(t_grid, probs, window=window)


def exit_before_jump_probability(coeffs: CoefficientSet, domain: Domain,
                                 cfg: SimConfig, workers=1):
    """P(exit happens before the first jump), starting from the redistribution density.

    Returns (estimate, stderr).
    """
    ens = simulate_ensemble(coeffs, domain, cfg, x0=None, stop_on_jump=True,
                            workers=workers)
    p = float(np.mean(ens.status == STATUS_EXIT))
    se = math.sqrt(max(p * (1 - p), 1e-300) / ens.n_paths)
    return p, se
