"""Interface-SDE solutions and flow machinery on star graphs.

Forward construction, in ``sample_isde_terminals``: a coupled Walsh path
X provides the driver B, and the edge noises are
dW^i = 1{X on ray i} dB + 1{X off ray i} dV^i (left-point indicators) with
auxiliary noises V^i independent of X, so W is an N-dimensional Brownian
family and X follows W^i on ray i exactly. The engine draws no off-ray
increment: given the path their sum is Gaussian, and it is drawn once per
ray.

n-point motions share one W: between transfer times exactly one point (the
pivot) sits at the origin and evolves as a fresh coupled Walsh path that
generates W for the stretch; every other point rides its own ray's noise
rigidly. A point hitting the origin becomes the next pivot. Each step
draws the driver increment and the N ray noises, then a coin if the pivot
folds and one more if a point becomes the new pivot. Points
coalesce when both sit at the origin within tolerance; coalescence is
absorbing.

Two-point motions map to obliquely reflected quadrant legs by excising the
time the pair spends on a common ray; the reflection angle of a leg whose
moving point sits on ray i is arctan(p_i / (1 - p_i)).

The batch two-point engines (first legs, coalescence times) take one and
the same shared-noise step, ``_pair_step``: the pivot takes the exact
reflected step of ``halfline.reflected_increment`` and is relabelled when it
touches the origin, the moving point follows the pivot's noise on a common
ray and its own otherwise, and a bridge test detects the moving point
reaching the origin within the step (a transfer).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .graphs import ORIGIN_VERTEX, GraphPoint, StarGraph
from .halfline import RngStream, check_horizon, grid_steps, map_chunks, reflected_increment
from .quadrant import SAFETY
from .walsh import _coupled_step, _point_state, _start_state

__all__ = [
    "N2NoisePath", "NPointPath",
    "FilteredKernelEstimate", "FirstLegSamples", "CoalescenceSamples",
    "sample_isde_terminals", "isde_n2_from_noise",
    "npoint_motion",
    "sample_first_legs", "sample_coalescence_times",
    "filtered_kernel", "sample_kernel_dispersions", "default_coalescence_tol",
]

PIVOT_DIV = 48.0  # extra refinement of shared-noise steps near the pivot boundary


def default_coalescence_tol(dt: float) -> float:
    """Detection tolerance for origin coincidence: one-step noise scale."""
    return 2.0 * math.sqrt(dt)


# -- forward construction -----------------------------------------------------

def sample_isde_terminals(g: StarGraph, T: float, dt: float, n: int,
                          rng: RngStream, x0: GraphPoint | None = None,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal (rays, radials, W_T) over n forward solutions; W_T is (n, N).

    Each step draws the n driver increments xi, credits xi to the ray each
    path is on and counts that step there, then takes the coupled step.
    The off-ray increments dV^i are never drawn one by one: given the path,
    the C_i steps a path spends on ray i carry xi and its other K - C_i
    steps carry iid N(0, dt) increments independent of the path, so their
    sum is drawn at the end as sqrt(dt (K - C_i)) Z_i from one (n, N)
    normal block. W_T has the forward construction's joint law with the
    terminal state.
    """
    if x0 is None:
        x0 = g.origin()
    K = grid_steps(T, dt)
    gen = rng.generator()
    sq = math.sqrt(dt)
    rays, rad = _start_state(g, x0, n, gen)
    # flat (path, ray) cells: each path adds to one cell per step
    on_sum = np.zeros((n, g.n_rays))
    on_steps = np.zeros((n, g.n_rays))
    row_cell = np.arange(n) * g.n_rays
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        cell = row_cell + rays
        np.add.at(on_sum.reshape(-1), cell, xi)
        np.add.at(on_steps.reshape(-1), cell, 1.0)
        rad, _ = _coupled_step(g, ORIGIN_VERTEX, rays, rad + xi, gen)
    WT = on_sum + np.sqrt(dt * (K - on_steps)) * gen.standard_normal((n, g.n_rays))
    return rays, rad, WT


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


# -- n-point motion -----------------------------------------------------------

@dataclass
class NPointPath:
    """Joint trajectory of n solutions sharing W, with pivot bookkeeping."""

    graph: StarGraph
    dt: float
    rays: np.ndarray          # (K+1, n)
    radials: np.ndarray       # (K+1, n)
    pivot_index: np.ndarray   # (K+1,) current pivot, -1 while no point is at 0
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
            header = ["t"]
            for j in range(self.n_points):
                header += [f"point_{j+1}_edge", f"point_{j+1}_coord"]
            header += ["pivot_index", "tau_flag"]
            w.writerow(header)
            for k in range(self.rays.shape[0]):
                row = [repr(k * self.dt)]
                for j in range(self.n_points):
                    row += [int(self.rays[k, j]), repr(float(self.radials[k, j]))]
                row += [int(self.pivot_index[k]), int(k in taus)]
                w.writerow(row)


def npoint_motion(g: StarGraph, starts: list[GraphPoint], T: float, dt: float,
                  rng: RngStream, tol_c: float | None = None) -> NPointPath:
    """n-point motion on a fixed grid up to time T (grid semantics above)."""
    if not starts:
        raise ValueError("need at least one start")
    n = len(starts)
    K = grid_steps(T, dt)
    if tol_c is None:
        tol_c = default_coalescence_tol(dt)
    gen = rng.generator()
    sq = math.sqrt(dt)

    # row n is a phantom pivot from the origin: it generates W until a
    # point first reaches the origin
    rays = np.zeros(n + 1, dtype=np.int64)
    rad = np.zeros(n + 1)
    for j, s in enumerate(starts):
        rays[j], rad[j] = _point_state(g, s)
    rep = np.arange(n + 1)  # coalescence representative (union by smaller index)
    at_zero = [j for j in range(n) if rad[j] == 0.0]
    pivot = at_zero[0] if at_zero else -1
    for j in at_zero[1:]:
        rep[j] = at_zero[0]
    rays[n] = _start_state(g, g.origin(), 1, gen)[0][0]
    if pivot >= 0:
        rays[pivot] = rays[n]

    out_rays = np.empty((K + 1, n), dtype=np.int64)
    out_rad = np.empty((K + 1, n))
    out_piv = np.empty(K + 1, dtype=np.int64)
    out_rays[0], out_rad[0], out_piv[0] = rays[:n], rad[:n], pivot
    tau_events: list[int] = []
    coalesced: dict[tuple[int, int], int] = {
        (int(a), int(b)): 0 for ai, a in enumerate(at_zero)
        for b in at_zero[ai + 1:]}

    for k in range(K):
        xi = sq * gen.standard_normal()
        dW = sq * gen.standard_normal(g.n_rays)
        piv = slice(pivot, pivot + 1) if pivot >= 0 else slice(n, n + 1)
        dW[rays[piv]] = xi
        movers = [j for j in range(n) if rep[j] == j and j != pivot]
        rad[piv], _ = _coupled_step(g, ORIGIN_VERTEX, rays[piv], rad[piv] + xi, gen)
        hits = []
        for j in movers:
            nr = rad[j] + dW[rays[j]]
            rad[j] = nr
            if nr <= 0.0:
                hits.append(j)
        if hits:
            new_pivot = min(hits, key=lambda j: rad[j])
            tau_events.append(k + 1)
            rad[hits] = -rad[hits]
            rays[new_pivot] = g.draw_edges(ORIGIN_VERTEX, gen.random())
            pivot = new_pivot
        # coalescence at the origin, absorbing
        alive = [j for j in range(n) if rep[j] == j]
        near = [j for j in alive if rad[j] < tol_c]
        for ai, a in enumerate(near):
            for b in near[ai + 1:]:
                lo, hi = min(a, b), max(a, b)
                if rep[hi] == hi:
                    coalesced.setdefault((lo, hi), k + 1)
                    rep[rep == hi] = lo
                    if pivot == hi:
                        pivot = lo
        rays = rays[rep]
        rad = rad[rep]
        out_rays[k + 1], out_rad[k + 1] = rays[:n], rad[:n]
        out_piv[k + 1] = pivot
    return NPointPath(graph=g, dt=dt, rays=out_rays, radials=out_rad,
                      pivot_index=out_piv, tau_events=tau_events,
                      coalesced_pairs=coalesced, tol_c=tol_c)


# -- batch two-point engines ---------------------------------------------------

def _h_shared(dt: float, o_rad: np.ndarray, p_rad: np.ndarray) -> np.ndarray:
    """Adaptive step for the shared-noise pair: coarse when the moving point
    is far, corner-refined when both are small, extra-refined (PIVOT_DIV)
    while the pivot is near its boundary."""
    s2 = SAFETY * SAFETY
    z2 = o_rad * o_rad + p_rad * p_rad
    far = np.minimum(o_rad / SAFETY,
                     np.maximum(p_rad / SAFETY, o_rad / PIVOT_DIV)) ** 2
    return np.maximum(np.minimum(dt, z2 / s2), far)


def _cond_redraw(probs: np.ndarray, banned: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized draw from probs conditioned to differ from banned."""
    n = banned.size
    w = np.broadcast_to(probs, (n, probs.size)).copy()
    w[np.arange(n), banned] = 0.0
    cw = np.cumsum(w, axis=1)
    target = u * cw[:, -1]
    return (target[:, None] >= cw).sum(axis=1).astype(np.int64)


def _pair_step(g, gen, dt, o_rad, o_ray, p_rad, p_ray):
    """One shared-noise step of a batch of pairs (moving point o, pivot p)
    on the star g.

    Draws zp, zo, um, ub, uc, ud in that order. Returns (h, o_new, p_new,
    p_ray_new, crossed, transfer, nxt): the step sizes, the new radials and
    pivot rays, the rows whose moving point ended at or below 0, the rows
    whose moving point reached 0 within the step (crossed, or a bridge
    crossing), and for the transferring rows the next moving ray (the
    pivot's label, never the current moving ray).
    """
    m = o_rad.size
    h = _h_shared(dt, o_rad, p_rad)
    zp = gen.standard_normal(m)
    zo = gen.standard_normal(m)
    um, ub, uc, ud = (gen.random(m) for _ in range(4))
    p_new, dL = reflected_increment(p_rad, h, zp, um)
    p_ray_new = np.where(dL > 0.0, g.draw_edges(ORIGIN_VERTEX, uc), p_ray)
    o_new = o_rad + np.sqrt(h) * np.where(o_ray == p_ray, zp, zo)
    crossed = o_new <= 0.0
    transfer = crossed | (ub < np.exp(-2.0 * o_rad * np.maximum(o_new, 0.0) / h))
    nxt = p_ray_new[transfer]
    bad = nxt == o_ray[transfer]
    if bad.any():
        nxt[bad] = _cond_redraw(g.probs_array, o_ray[transfer][bad], ud[transfer][bad])
    return h, o_new, p_new, p_ray_new, crossed, transfer, nxt


@dataclass
class FirstLegSamples:
    """Per-path leg endpoints and ray chains from repeated unit legs."""

    theta0: float
    ratios: np.ndarray      # (n, legs) V^r at leg end over leg entry radius
    chains: np.ndarray      # (n, legs+1) moving-point ray per leg

    @property
    def first_leg_vs(self) -> np.ndarray:
        return self.ratios[:, 0]


def sample_first_legs(g: StarGraph, start_ray: int, dt: float, n: int,
                      rng: RngStream, n_legs: int = 1, chunk: int = 65536,
                      threads: int = 1) -> FirstLegSamples:
    """Simulate two-point legs from (e_i(1), 0), restarting at unit scale
    after each transfer (the x-scaling of the leg law makes the ratios and
    the ray chain scale-free)."""
    check_horizon(1.0, dt)
    if n_legs < 1:
        raise ValueError(f"need n_legs >= 1, got {n_legs}")
    probs = g.probs_array
    theta0 = math.atan2(probs[start_ray], 1.0 - probs[start_ray])

    def run(lo, hi, stream):
        m = hi - lo
        gen = stream.generator()
        ratios = np.empty((m, n_legs))
        chains = np.empty((m, n_legs + 1), dtype=np.int64)
        chains[:, 0] = start_ray
        for leg in range(n_legs):
            o_rad, o_ray = np.ones(m), chains[:, leg].copy()
            p_rad, p_ray = np.zeros(m), g.draw_edges(ORIGIN_VERTEX, gen.random(m))
            idx = np.arange(m)
            while idx.size:
                _, o_rad, p_rad, p_ray, _, done, nxt = _pair_step(
                    g, gen, dt, o_rad, o_ray, p_rad, p_ray)
                if done.any():
                    ratios[idx[done], leg] = p_rad[done]
                    chains[idx[done], leg + 1] = nxt
                    keep = ~done
                    idx, o_rad, o_ray = idx[keep], o_rad[keep], o_ray[keep]
                    p_rad, p_ray = p_rad[keep], p_ray[keep]
        return ratios, chains

    ratios, chains = map_chunks(run, n, rng, chunk, threads)
    return FirstLegSamples(theta0=theta0, ratios=ratios, chains=chains)


@dataclass
class CoalescenceSamples:
    """First origin-coincidence times at several detection tolerances."""

    tols: np.ndarray
    times: np.ndarray        # (n, n_tols); NaN where not reached by t_max
    t_max: float

    def fraction_coalesced(self, level: int = -1) -> float:
        return float(np.mean(~np.isnan(self.times[:, level])))

    def median_time(self, level: int = -1) -> float:
        t = self.times[:, level]
        return float(np.nanmedian(t))


def sample_coalescence_times(g: StarGraph, x: GraphPoint, y: GraphPoint,
                             dt: float, n: int, rng: RngStream,
                             t_max: float, tol_factors=(1.0, 2.0, 4.0),
                             target_fraction: float = 0.99,
                             t_cap: float | None = None,
                             chunk: int = 65536, threads: int = 1,
                             ) -> CoalescenceSamples:
    """Two-point coalescence times with multi-tolerance detection.

    Detection level j fires at the first step where both radials are below
    tol_factors[j] * sqrt(dt); the finest level is absorbing. The time
    budget doubles from t_max until the finest level reaches
    target_fraction or t_cap is hit. The coalescence-time tail is heavy
    (the pair's scale is a log random walk, so P(tau > T) decays like a
    small power of T) and the far-field step coarsening makes the cost of
    each budget doubling logarithmic, which keeps huge caps affordable.
    """
    check_horizon(t_max, dt)
    tols = np.asarray(sorted(tol_factors, reverse=True), dtype=float) * math.sqrt(dt)
    n_tol = len(tols)
    if t_cap is None:
        t_cap = 2.0 ** 24 * t_max
    rx, ry = _point_state(g, x), _point_state(g, y)
    if rx[1] == 0.0 and ry[1] == 0.0:
        return CoalescenceSamples(tols=tols, times=np.zeros((n, n_tol)), t_max=t_max)
    if ry[1] == 0.0:
        start_ray, start_rad = rx
    elif rx[1] == 0.0:
        start_ray, start_rad = ry
    else:
        raise ValueError("one of the two starts must be the origin")

    def run(lo, hi, stream):
        m = hi - lo
        gen = stream.generator()
        o_rad = np.full(m, float(start_rad))
        o_ray = np.full(m, start_ray, dtype=np.int64)
        p_rad = np.zeros(m)
        p_ray = g.draw_edges(ORIGIN_VERTEX, gen.random(m))
        t = np.zeros(m)
        times = np.full((m, n_tol), np.nan)
        budget = t_max
        while True:
            sub = np.flatnonzero(np.isnan(times[:, -1]) & (t < budget))
            if sub.size == 0:
                frac = float(np.mean(~np.isnan(times[:, -1])))
                if frac >= target_fraction or budget >= t_cap:
                    break
                budget *= 2.0
                continue
            while sub.size:
                h, o_new, p_new, p_ray_new, crossed, transfer, nxt = _pair_step(
                    g, gen, dt, o_rad[sub], o_ray[sub], p_rad[sub], p_ray[sub])
                ue = gen.random(sub.size)
                if transfer.any():
                    # swap roles: the pivot moves on, the arriving point pivots
                    o_ray[sub[transfer]] = nxt
                    o_new, p_new = (np.where(transfer, p_new, o_new),
                                    np.where(transfer, np.where(crossed, -o_new, 0.0), p_new))
                    p_ray_new = np.where(transfer, g.draw_edges(ORIGIN_VERTEX, ue), p_ray_new)
                tn = t[sub] + h
                o_rad[sub], p_rad[sub], p_ray[sub], t[sub] = o_new, p_new, p_ray_new, tn
                mx = np.maximum(o_new, p_new)
                for j in range(n_tol):
                    hitj = (mx < tols[j]) & np.isnan(times[sub, j])
                    if hitj.any():
                        times[sub[hitj], j] = tn[hitj]
                done = (~np.isnan(times[sub, -1])) | (tn >= budget)
                sub = sub[~done]
        return (times,)

    times, = map_chunks(run, n, rng, chunk, threads)
    return CoalescenceSamples(tols=tols, times=times, t_max=t_max)


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

    The runs go through ``map_chunks`` in chunks of 65536 // m. A chunk's
    replicas draw their starting rays; then each step draws the (runs, N)
    noises and takes the coupled Walsh step, which draws a redraw uniform
    for each replica that folds. For N = 2 each run draws its (2, K) noises
    at once and every replica is their two-ray Euler map.
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
        rays, rad = _start_state(g, x0, c * m, gen)
        run_of = np.repeat(np.arange(c), m)
        for _ in range(K):
            dW = sq * gen.standard_normal((c, g.n_rays))
            rad, _ = _coupled_step(g, ORIGIN_VERTEX, rays, rad + dW[run_of, rays], gen)
        return rays.reshape(c, m), rad.reshape(c, m)

    return map_chunks(run, n_runs, rng, max(1, 65536 // m), 1)


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

    Level di steps all n_runs x m replicas as one batch on rng.child(di).
    Each run's W is drawn directly, with no forward path: its increments
    are fresh N(0, dt) whatever ray a forward solution is on, so this is
    exact in law (see ``filtered_kernel``).
    """
    if n_runs < 1:
        raise ValueError(f"need n_runs >= 1, got {n_runs}")
    if x0 is None:
        x0 = g.origin()
    return {float(dt): _dispersions(*_replica_batch(g, x0, T, dt, n_runs, m, rng.child(di)),
                                   g.n_rays)
            for di, dt in enumerate(dts)}
