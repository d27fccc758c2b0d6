"""Interface-SDE solutions and flow machinery on star graphs.

Forward construction, in the grid engine ``walsh.sample_residual_summaries``
(with no test function it returns the terminals and noises alone): a coupled
Walsh path X provides the driver B, and the edge noises are
dW^i = 1{X on ray i} dB + 1{X off ray i} dV^i (left-point indicators) with
auxiliary noises V^i independent of X, so W is an N-dimensional Brownian
family and X follows W^i on ray i exactly. The engine draws no off-ray
increment: given the path their sum is Gaussian, and it is drawn once per
path and ray, after the last step. The same engine call gives the
Freidlin-Sheu residuals of X, so both halves of the solution (X, W) are
checked on one set of paths.

The n-point motions of both flows come from one batch engine,
``_flow_batch``, that draws W directly (exact in law: see
``filtered_kernel``): every point rides its own ray's noise and takes the
coupled Walsh step, with a coin of its own when it crosses the origin.
The coalescing flow phi and the kernel flow K differ only in the merge
rule: phi's points merge when they sit at the origin together, within a
tolerance, and stay merged; K's replicas never merge.

Two-point motions map to obliquely reflected quadrant legs by excising the
time the pair spends on a common ray; the reflection angle of a leg whose
moving point sits on ray i is arctan(p_i / (1 - p_i)).

Both two-point experiments read one pair run, ``_pair_run``, whose legs
restart in place at unit scale (between legs the pair only rescales). It
takes one shared-noise step, ``_pair_step``: the pivot takes the exact
Walsh step ``walsh.walsh_step``, the moving point follows the pivot's
noise on a common ray and its own otherwise, and
``halfline.bridge_crossings`` detects the moving point reaching the origin
within the step (a transfer), which ends the leg.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .graphs import ORIGIN_VERTEX, GraphPoint, StarGraph
from .halfline import RngStream, bridge_crossings, check_horizon, grid_steps, map_chunks
from .quadrant import SAFETY
from .walsh import _coupled_step, _point_state, walsh_step

__all__ = [
    "N2NoisePath", "NPointPath", "FilteredKernelEstimate", "PairSamples",
    "isde_n2_from_noise", "npoint_motion",
    "sample_first_legs", "sample_coalescence_times", "sample_exact_leg_counts",
    "filtered_kernel", "sample_kernel_dispersions", "default_coalescence_tol",
]

PIVOT_DIV = 48.0  # extra refinement of shared-noise steps near the pivot boundary


def default_coalescence_tol(dt: float) -> float:
    """Detection tolerance for origin coincidence: one-step noise scale."""
    return 2.0 * math.sqrt(dt)


# -- N = 2 strong solver ------------------------------------------------------

@dataclass
class N2NoisePath:
    """Deterministic image of a noise pair under the two-ray Euler scheme.

    Ray 0 is embedded as the positive half-line (driven by the first
    noise), ray 1 as the negative one. The scheme runs on the transformed
    variable beta*x on the positive side, x on the negative side, with
    beta = (1-p)/p and p the weight of ray 0.
    """

    graph: StarGraph
    dt: float
    signed: np.ndarray

    @property
    def rays(self) -> np.ndarray:
        return np.where(self.signed > 0.0, 0, 1).astype(np.int64)

    @property
    def radials(self) -> np.ndarray:
        return np.abs(self.signed)


def isde_n2_from_noise(g2: StarGraph, x0: GraphPoint,
                       w_pair: tuple[np.ndarray, np.ndarray] | list,
                       dt: float) -> N2NoisePath:
    """Euler scheme for the two-ray interface equation driven by the given
    noise increments; deterministic given (w_pair, x0, dt)."""
    if g2.n_rays != 2:
        raise ValueError("two-ray graph required")
    d0 = np.asarray(w_pair[0], dtype=float)
    d1 = np.asarray(w_pair[1], dtype=float)
    if d0.shape != d1.shape:
        raise ValueError("noise grids must have equal length")
    p = g2.probs[0]
    beta = (1.0 - p) / p
    ray0, r0 = _point_state(g2, x0)
    x_signed = r0 if ray0 == 0 else -r0
    y = beta * x_signed if x_signed >= 0 else x_signed
    K = d0.size
    out = np.empty(K + 1)
    out[0] = x_signed
    for k in range(K):
        if y > 0.0:
            y += beta * d0[k]
        else:
            y += d1[k]
        out[k + 1] = y / beta if y > 0 else y
    return N2NoisePath(graph=g2, dt=dt, signed=out)


# -- n-point motions of both flows ----------------------------------------------

@dataclass
class NPointPath:
    """Joint trajectory of n points of the coalescing flow sharing W, with
    the pivot (the last point to cross the origin) and merge books."""

    graph: StarGraph
    dt: float
    rays: np.ndarray          # (K+1, n)
    radials: np.ndarray       # (K+1, n)
    pivot_index: np.ndarray   # (K+1,) current pivot, -1 before any crossing
    tau_events: list[int]
    coalesced_pairs: dict[tuple[int, int], int]
    tol_c: float

    @property
    def n_points(self) -> int:
        return self.rays.shape[1]

    def to_csv(self, path) -> None:
        taus = set(self.tau_events)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", *(f"point_{j+1}_{c}" for j in range(self.n_points)
                               for c in ("edge", "coord")), "pivot_index", "tau_flag"])
            for k, (rays, rads) in enumerate(zip(self.rays, self.radials)):
                w.writerow([repr(k * self.dt),
                            *(v for e, r in zip(rays, rads) for v in (int(e), repr(float(r)))),
                            int(self.pivot_index[k]), int(k in taus)])


def _flow_batch(g: StarGraph, starts: list[GraphPoint], T: float, dt: float, runs: int,
                gen: np.random.Generator, tol_c: float | None = None, record: bool = False):
    """The n-point motions of runs x m points, m = len(starts), on a fixed
    grid: point j of each run starts at starts[j], and a run's points share
    its W, drawn directly.

    The points that start at the vertex draw their rays, one uniform each
    in row order (run by run). Each step draws the (runs, N) noise block,
    and every live point takes ``walsh._coupled_step`` on its own ray's
    noise, which draws one coin per point that crosses the origin. With
    tol_c None every point stays live: the replicas of the kernel flow K.
    With tol_c, the merge rule of the coalescing flow phi: at the start and
    after every step, the live points of a run within tol_c of the origin
    merge into the lowest of them, which a merged point follows from then
    on (merging is absorbing).

    Returns (rays, radials, reps, crossed), each (times, runs, m), at every
    grid time with record, else at the last: reps is the live point each
    point follows (itself while live), crossed flags the points that
    crossed the origin in the step to that time.
    """
    edges, coords = zip(*(_point_state(g, s) for s in starts))
    m, K, sq = len(starts), grid_steps(T, dt), math.sqrt(dt)
    rays = np.tile(np.array(edges, dtype=np.int64), runs)
    rad = np.tile(np.array(coords, dtype=float), runs)
    at_v = np.tile([s.is_vertex for s in starts], runs)
    rays[at_v] = g.draw_edges(ORIGIN_VERTEX, gen.random(np.count_nonzero(at_v)))
    ids = np.arange(runs * m)   # the live rows' point ids, in row order
    run_of, follow = ids // m, ids.copy()   # follow: the live row each point follows
    crossed = np.zeros(runs * m, dtype=bool)
    hist = []
    for k in range(K + 1):
        if tol_c is not None and (near := np.flatnonzero(rad < tol_c)).size > 1:
            # the near rows of a run merge into its first (lead) one
            lead = np.r_[True, run_of[near[1:]] != run_of[near[:-1]]]
            keep = np.bincount(near[~lead], minlength=rad.size) == 0
            to = np.cumsum(keep) - 1
            to[near] = to[near[lead]][np.cumsum(lead) - 1]
            follow = to[follow]
            ids, run_of, rays, rad = ids[keep], run_of[keep], rays[keep], rad[keep]
        if record or k == K:
            hist.append((rays[follow], rad[follow], ids[follow] % m, crossed))
        if k < K:
            dW = sq * gen.standard_normal((runs, g.n_rays))
            rad, folded = _coupled_step(g, ORIGIN_VERTEX, rays, rad + dW[run_of, rays], gen)
            crossed = np.bincount(ids[folded], minlength=runs * m) > 0
    return tuple(np.stack(c).reshape(-1, runs, m) for c in zip(*hist))


def npoint_motion(g: StarGraph, starts: list[GraphPoint], T: float, dt: float,
                  rng: RngStream, tol_c: float | None = None) -> NPointPath:
    """n-point motion of the coalescing flow on a fixed grid up to time T:
    the one run of ``_flow_batch`` with its merge rule at tol_c (default
    ``default_coalescence_tol``), every step recorded. The pivot is the
    last point to cross the origin, the lowest-index one of a step's
    crossers (-1 before any crossing); a tau event is a step where a point
    other than the pivot crosses."""
    if not starts:
        raise ValueError("need at least one start")
    if tol_c is None:
        tol_c = default_coalescence_tol(dt)
    rays, rad, reps, crossed = (a[:, 0] for a in _flow_batch(
        g, starts, T, dt, 1, rng.generator(), tol_c, record=True))
    steps = np.arange(len(rad))
    last = np.maximum.accumulate(np.where(crossed.any(axis=1), steps, -1))
    pivot = np.where(last >= 0, reps[steps, crossed.argmax(axis=1)[last]], -1)
    prev = pivot[:-1]
    tau = crossed[1:].sum(axis=1) > (crossed[steps[1:], prev] & (prev >= 0))
    merged = reps != np.arange(len(starts))
    at = merged.argmax(axis=0)
    return NPointPath(graph=g, dt=dt, rays=rays, radials=rad, pivot_index=pivot,
                      tau_events=(np.flatnonzero(tau) + 1).tolist(),
                      coalesced_pairs={(int(reps[k, j]), j): int(k) for j, k in enumerate(at)
                                       if merged[k, j]},
                      tol_c=tol_c)


# -- the pair run --------------------------------------------------------------

def _h_shared(dt: float, o_rad: np.ndarray, p_rad: np.ndarray) -> np.ndarray:
    """Adaptive step for the shared-noise pair: coarse when the moving point
    is far, corner-refined when both are small, extra-refined (PIVOT_DIV)
    while the pivot is near its boundary."""
    z2 = o_rad * o_rad + p_rad * p_rad
    far = np.minimum(o_rad / SAFETY, np.maximum(p_rad / SAFETY, o_rad / PIVOT_DIV)) ** 2
    return np.maximum(np.minimum(dt, z2 / SAFETY ** 2), far)


def _other_rays(g: StarGraph, banned: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rays drawn from the weights conditioned to differ from banned, one
    uniform each: u is stretched over the other weights and lifted past
    banned's weight, then drawn through ``draw_edges``."""
    p = g.probs_array
    start = np.r_[0.0, g.vertex_cum[ORIGIN_VERTEX, :-1]][banned]   # banned's cut below
    v = u * (1.0 - p[banned])
    return g.draw_edges(ORIGIN_VERTEX, np.where(v > start, v + p[banned], v))


def _pair_step(g, gen, dt, o_rad, o_ray, p_rad, p_ray):
    """One shared-noise step of a batch of pairs (moving point o, pivot p)
    on the star g.

    Draws the normals zp and zo, one per row, then the uniforms of the
    pivot's ``walsh_step`` and of the moving point's ``bridge_crossings``,
    then one uniform per transferring row whose next moving ray must be
    redrawn. Relabels p_ray in place and returns (h, o_new, p_new,
    transfer, nxt): the step sizes, the new radials, the rows whose moving
    point reached 0 within the step, and for those rows the next moving ray
    (the pivot's label, never the current moving ray).
    """
    m = o_rad.size
    h = _h_shared(dt, o_rad, p_rad)
    sq = np.sqrt(h)
    zp, zo = gen.standard_normal(m), gen.standard_normal(m)
    o_new = o_rad + sq * np.where(o_ray == p_ray, zp, zo)
    p_new, _ = walsh_step(g, ORIGIN_VERTEX, p_ray, p_rad, p_rad + sq * zp, h, gen)
    transfer, _ = bridge_crossings(o_rad, o_new, h, True, gen)
    nxt = p_ray[transfer]
    bad = np.flatnonzero(nxt == o_ray[transfer])
    if bad.size:
        nxt[bad] = _other_rays(g, o_ray[transfer][bad], gen.random(bad.size))
    return h, o_new, p_new, transfer, nxt


@dataclass
class PairSamples:
    """Per-path leg books of a pair run from a moving point at radius x on
    ray ``chains[:, 0]`` and a pivot at the origin; the pair's scale is x
    times the product of its leg ratios."""

    theta0: float             # reflection angle of the first leg
    eps_stop: float           # the scale that ends a path (0: none)
    legs: np.ndarray          # (n,) legs run
    scales: np.ndarray        # (n,) scale at the end of the last leg
    times: np.ndarray         # (n,) real time at the end of the last leg
    ratios: np.ndarray        # (n, cols) leg k's end scale over its start scale
    chains: np.ndarray        # (n, cols+1) moving ray at the start of leg k
    transitions: np.ndarray   # (N, N) legs by (moving ray, next moving ray)
    counts: np.ndarray        # batch steps, path-steps, tail steps

    def fraction_coalesced(self) -> float:
        """The share of paths whose scale fell below eps_stop."""
        return float(np.mean(self.scales < self.eps_stop))

    def diagnostics(self) -> dict:
        """Work counts; tail steps have < 1 % of their chunk's paths active."""
        steps, path_steps, tail = (int(c) for c in self.counts)
        return {"batch_steps": steps, "path_steps": path_steps, "tail_steps": tail,
                "legs": int(self.legs.sum())}


def _pair_run(g: StarGraph, start_ray: int, dt: float, n: int, rng: RngStream, chunk: int,
              columns: int, n_legs: int | None = None, eps_unit: float = 0.0) -> PairSamples:
    """n pairs from (ray start_ray, 1) and the origin, whose legs each
    restart in place at unit scale.

    Each chunk of ``map_chunks`` starts its rows with the moving point at 1
    and the pivot at 0 on a ray drawn with one uniform per row, and steps
    every row with ``_pair_step``. A transfer ends a leg at the ratio of
    the pivot's radial; the scale U_k is the product of the first k ratios
    and the real time is sum U_{k-1}^2 d_k over the leg durations d_k. A
    path retires after n_legs legs or once U_k < eps_unit. Every other
    transferring row restarts in place: the moving point at 1 on the next
    ray, the pivot at 0 on a fresh ray, one uniform per row in row order
    after the step's draws. That is exact in law, by the pair's Brownian
    scaling and the strong Markov property at the transfer. Ratios and rays
    are kept for the first ``columns`` legs, transition counts for all.
    """
    check_horizon(1.0, dt)
    if start_ray not in range(g.n_rays):
        raise ValueError(f"start ray {start_ray} is not one of the star's {g.n_rays} rays")
    N = g.n_rays

    def run(lo, hi, stream):
        m = hi - lo
        gen = stream.generator()
        idx = np.arange(m)   # the active rows' paths
        o_rad, o_ray = np.ones(m), np.full(m, start_ray, dtype=np.int64)
        p_rad, p_ray = np.zeros(m), g.draw_edges(ORIGIN_VERTEX, gen.random(m))
        d = np.zeros(m)      # the current leg's duration
        legs, scales, times = np.zeros(m, dtype=np.int64), np.ones(m), np.zeros(m)
        ratios, chains = np.empty((m, columns)), np.full((m, columns + 1), start_ray)
        trans = np.zeros(N * N, dtype=np.int64)
        steps = path_steps = tail = 0
        while idx.size:
            steps, path_steps, tail = steps + 1, path_steps + idx.size, tail + (100 * idx.size < m)
            h, o_rad, p_rad, done, nxt = _pair_step(g, gen, dt, o_rad, o_ray, p_rad, p_ray)
            d += h
            if not done.any():
                continue
            rows = np.flatnonzero(done)
            i, r = idx[rows], p_rad[rows]
            k = legs[i]
            kept = k < columns
            ratios[i[kept], k[kept]], chains[i[kept], k[kept] + 1] = r[kept], nxt[kept]
            trans += np.bincount(o_ray[rows] * N + nxt, minlength=N * N)
            times[i] += scales[i] ** 2 * d[rows]
            scales[i] *= r
            legs[i] = k + 1
            end = (scales[i] < eps_unit) | (k + 1 == n_legs)
            on = rows[~end]
            o_rad[on], o_ray[on], p_rad[on], d[on] = 1.0, nxt[~end], 0.0, 0.0
            p_ray[on] = g.draw_edges(ORIGIN_VERTEX, gen.random(on.size))
            if end.any():
                live = np.bincount(rows[end], minlength=idx.size) == 0
                idx, o_rad, o_ray, p_rad, p_ray, d = (
                    a[live] for a in (idx, o_rad, o_ray, p_rad, p_ray, d))
        return (legs, scales, times, ratios, chains, trans.reshape(1, N, N),
                np.array([[steps, path_steps, tail]]))

    *out, trans, counts = map_chunks(run, n, rng, chunk)
    p = g.probs[start_ray]
    return PairSamples(math.atan2(p, 1.0 - p), eps_unit, *out, trans.sum(axis=0),
                       counts.sum(axis=0))


def sample_first_legs(g: StarGraph, start_ray: int, dt: float, n: int,
                      rng: RngStream, n_legs: int = 1, chunk: int = 65536) -> PairSamples:
    """The first n_legs legs of n pairs from (ray start_ray, 1) and the
    origin, with every leg's ratio and ray: ``_pair_run`` for n_legs legs."""
    if n_legs < 1:
        raise ValueError(f"need n_legs >= 1, got {n_legs}")
    return _pair_run(g, start_ray, dt, n, rng, chunk, n_legs, n_legs=n_legs)


def sample_coalescence_times(g: StarGraph, x: GraphPoint, dt: float, eps_stop: float,
                             n: int, rng: RngStream, chunk: int = 65536) -> PairSamples:
    """Legs and real times of n pairs from x and the origin until their
    scale drops below eps_stop (their quadrant process reaches the corner):
    ``_pair_run`` from 1 down to eps_stop / r, r the radial of x, with the
    first leg kept and scales and times multiplied by r and r^2."""
    start_ray, r = _point_state(g, x)
    if not 0.0 < eps_stop < r:
        raise ValueError(f"need 0 < eps_stop < {r} (the start radial), got {eps_stop}")
    out = _pair_run(g, start_ray, dt, n, rng, chunk, 1, eps_unit=eps_stop / r)
    out.eps_stop, out.scales, out.times = eps_stop, r * out.scales, r * r * out.times
    return out


def sample_exact_leg_counts(g: StarGraph, x: GraphPoint, eps_stop: float, n: int,
                            rng: RngStream, chunk: int = 65536) -> np.ndarray:
    """Leg counts to scale eps_stop of n exact scale chains of the pair
    from x and the origin, with no dt.

    A leg with its moving point on ray i ends at the ratio sqrt(G_a / G_b),
    G_a ~ Gamma(1/2 - theta_i/pi) and G_b ~ Gamma(1/2 + theta_i/pi): the
    Beta-prime law of (Y_S/x)^2 in ``quadrant`` at theta_i = arctan(p_i /
    (1 - p_i)). Then a uniform per live row draws the next moving ray by
    P_ij = p_j / (1 - p_i) (``_other_rays``).
    """
    start_ray, r = _point_state(g, x)
    if not 0.0 < eps_stop < r:
        raise ValueError(f"need 0 < eps_stop < {r} (the start radial), got {eps_stop}")
    tilt = np.arctan2(g.probs_array, 1.0 - g.probs_array) / math.pi

    def run(lo, hi, stream):
        gen = stream.generator()
        legs, scales = np.zeros(hi - lo, dtype=np.int64), np.ones(hi - lo)
        ray, live = np.full(hi - lo, start_ray), np.arange(hi - lo)
        while live.size:
            ga, gb = (gen.standard_gamma(0.5 + s * tilt[ray[live]]) for s in (-1.0, 1.0))
            scales[live] *= np.sqrt(ga / gb)
            legs[live] += 1
            ray[live] = _other_rays(g, ray[live], gen.random(live.size))
            live = live[scales[live] >= eps_stop / r]
        return (legs,)

    return map_chunks(run, n, rng, chunk)[0]


# -- filtered kernel -----------------------------------------------------------

@dataclass
class FilteredKernelEstimate:
    """Endpoint cloud of same-noise replicas at time T."""

    rays: np.ndarray
    radials: np.ndarray
    dispersion: float
    bin_edges: np.ndarray
    histogram: np.ndarray    # (N, bins) counts per (ray, radial bin)
    seed_info: tuple


def _replica_batch(g: StarGraph, x0: GraphPoint, T: float, dt: float, n_runs: int,
                   m: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (rays, radials), each (n_runs, m), of m re-solves per run
    that share the run's directly drawn edge noises W.

    The runs go through ``map_chunks`` in chunks of 65536 // m, each one
    ``_flow_batch`` with no merge rule. For N = 2 each run draws its (2, K)
    noises at once and every replica is their two-ray Euler map.
    """
    if m < 2:
        raise ValueError("need m >= 2 replicas")
    K = grid_steps(T, dt)
    sq = math.sqrt(dt)

    def run(lo, hi, stream):
        gen = stream.generator()
        c = hi - lo
        if g.n_rays == 2:
            rays, rads = np.empty((c, m), dtype=np.int64), np.empty((c, m))
            for r in range(c):
                end = isde_n2_from_noise(g, x0, sq * gen.standard_normal((2, K)), dt)
                rays[r], rads[r] = end.rays[-1], end.radials[-1]
            return rays, rads
        rays, rads = _flow_batch(g, [x0] * m, T, dt, c, gen)[:2]
        return rays[0], rads[0]

    return map_chunks(run, n_runs, rng, max(1, 65536 // m))


def _dispersions(rays: np.ndarray, rads: np.ndarray, n_rays: int) -> np.ndarray:
    """Largest graph distance between two replicas, per row: the widest
    spread on one ray, or the two farthest replicas on distinct rays."""
    on = [rays == i for i in range(n_rays)]
    hi = np.stack([np.where(o, rads, -np.inf).max(axis=1) for o in on], axis=1)
    lo = np.stack([np.where(o, rads, np.inf).min(axis=1) for o in on], axis=1)
    top = np.sort(np.pad(hi, ((0, 0), (1, 0)), constant_values=-np.inf), axis=1)
    return np.maximum((hi - lo).max(axis=1), top[:, -1] + top[:, -2])


def filtered_kernel(g: StarGraph, x0: GraphPoint, T: float, dt: float, m: int,
                    rng: RngStream, bins: int = 20) -> FilteredKernelEstimate:
    """Endpoint cloud of m re-solves sharing one W: the one-run case of
    the replica engine. The re-solves use only W, and W is drawn directly.
    That is exact in law: in the forward construction dW^i_k is dB_k on the
    ray of X_k and dV^i_k off it, both N(0, dt) and independent of each
    other and of the past, so W is a Brownian family whatever X does."""
    rays, rads = _replica_batch(g, x0, T, dt, 1, m, rng)
    hi = max(1e-9, float(rads.max()))
    edges = np.linspace(0.0, hi, bins + 1)
    hist = np.stack([np.histogram(rads[rays == i], bins=edges)[0]
                     for i in range(g.n_rays)])
    return FilteredKernelEstimate(rays=rays[0], radials=rads[0],
                                  dispersion=float(_dispersions(rays, rads, g.n_rays)[0]),
                                  bin_edges=edges, histogram=hist,
                                  seed_info=(rng.seed, rng.index))


def sample_kernel_dispersions(g: StarGraph, T: float, dts, n_runs: int, m: int,
                              rng: RngStream, x0: GraphPoint | None = None,
                              ) -> dict[float, np.ndarray]:
    """Replica-cloud dispersions per grid resolution (criterion engine).

    Level di steps all n_runs x m replicas as one batch on rng.child(di),
    each run's W drawn directly (exact in law: see ``filtered_kernel``).
    """
    if n_runs < 1:
        raise ValueError(f"need n_runs >= 1, got {n_runs}")
    if x0 is None:
        x0 = g.origin()
    return {float(dt): _dispersions(*_replica_batch(g, x0, T, dt, n_runs, m, rng.child(di)),
                                   g.n_rays)
            for di, dt in enumerate(dts)}
