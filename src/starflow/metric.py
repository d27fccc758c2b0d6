"""Batch simulation of the interface SDE on a metric graph.

Layout: n paths advance together. Each path's state is three arrays, its
edge id (edge ids are the positions 0..n_edges-1 of the graph's edges), its
coordinate measured from the edge's from-end, and its own clock t, plus its
row of the terminal edge noises W (n, n_edges), whose column e is edge e.
The graph's own arrays, indexed by edge id, give each edge's from-end and
to-end vertex (``MetricGraph.edge_src``, ``edge_dst``, as positions in
``vertices``, -1 at infinity) and its length (``edge_length``, inf for a
ray). Only terminal state is kept, no per-step history.
Step sizes are per path, so paths fall off the common grid once one of
them halves a step; a path drops out of the working set when its clock
reaches T, and the batch runs until the last one does.

A step works in the frame of the endpoint of the path's edge nearest to
it: the radial coordinate is the distance to that vertex, and the local
driver is the edge noise, sign-flipped when the edge points into the
vertex. The step h = min(dt, T - t) is halved until six standard
deviations fit inside the room of the position (``_room``: the distance to
the far vertex and the radial plus the shortest edge at the anchor
vertex), so a step can neither cross an edge nor fold past the end of a
short one; halving stops below FLOOR_H. In the interior the coordinate
follows the edge noise directly. A step that crosses the vertex (radial +
increment < 0) is a vertex touch: the coupled Walsh step of ``walsh``
redraws the outgoing edge from the vertex's weights
(``MetricGraph.draw_edges``) and folds the overshoot onto it (radial =
|y|, the discrete Tanaka rule); paths start as the star engines do, from
``walsh._start_state``. A radial that still ends past the far vertex, a
6-sigma event, is clamped to it.

Blocks. A step is plain when its h is the full-clock step of the halving
rule (dt halved the same number of times as at the block's start, with at
least dt left on the clock) and it ends inside [0, length]: no touch, no
clamp. On plain steps the coordinate is the start plus the running sum of
the increments, so one pass of the loop moves every row through its run of
plain steps as one vectorised block of up to B steps, B = BLOCK_WORDS // m
for m rows, within [1, MAX_BLOCK]. The step that ends a run (a touch, a
change of the halving, a clamp, the shortened last step or a floor hit) is
an event step: it goes through the per-step code above, for the rows that
reach one.

Draw order, one Philox generator per call: n uniforms for the starting
edge when x0 is a vertex, then an (n, B) block of standard normals, one
queue per row. Per pass, over the paths still running in path order: an
(m, more) block appended to the queues when fewer rows allow longer
blocks; one redraw uniform per crossing event row, in row order (rows that
keep their edge draw no coin); then, for the rows that go on, fresh
normals in the queue slots each row read, in row order. A row reads its
queue from the front, one normal per step: the block reads as many as it
takes plain steps, and the event step the next one. At the end one (n,
n_edges) block of normals gives the noise of the edges that did not drive
a path: column e gains sqrt(t - driven_e) N(0, 1), driven_e the time edge
e drove it, t the path's clock.

The law is the per-step walker's. Whether a row reads the normal in a
slot depends only on the normals it read before and on its coins, and a
slot it did not read took part in no decision, so at every pass the queue
holds B iid N(0, 1) independent of the row's past: each path reads an iid
sequence, one normal per step, as if drawn step by step. An edge's
increments on the steps it does not drive are independent of the path, so
given the path their sum is N(0, t - driven_e). Each path's W is
therefore a Brownian family, and on an untouched path (whose own edge has
no undriven time) coord - coord0 = W_edge holds exactly.

Halvings, floor hits, far-vertex clamps, per-path vertex touches, loop
passes and normals drawn are counted on the result rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphPoint, MetricGraph
from .halfline import RngStream, check_horizon
from .walsh import _coupled_step, _start_state

__all__ = ["MetricIsdeSolution", "metric_isde_forward"]

CLAMP_SIGMAS = 6.0
FLOOR_H = 1e-15   # no step is halved below this
T_SLACK = 1e-12   # a clock within this of T has arrived
BLOCK_WORDS = 2 ** 16   # normals queued over all rows, which sets the block length
MAX_BLOCK = 64    # longest block


@dataclass
class MetricIsdeSolution:
    """Terminal states of n paths on a metric graph, the edge noises they
    consumed, and the engine's work counts."""

    graph: MetricGraph
    edges: np.ndarray          # (n,) terminal edge id
    coords: np.ndarray         # (n,) terminal coordinate from the edge's from-end
    W: np.ndarray              # (n, n_edges) terminal edge noises, column e for edge e
    touches: np.ndarray        # (n,) vertex touches per path
    n_steps: int               # steps of the longest path
    path_steps: int            # steps summed over paths
    halvings: int              # step halvings over all paths
    floor_hits: int            # halvings stopped at FLOOR_H
    clamps: int                # radials clamped to the far vertex
    blocks: int                # passes of the loop
    normals: int               # standard normals drawn: one per path-step, the
                               # queues' remainder, n * n_edges for the undriven noise

    @property
    def n(self) -> int:
        return len(self.edges)


def _block(m: int) -> int:
    """Block length for m rows."""
    return min(MAX_BLOCK, max(1, BLOCK_WORDS // m))


def _room(c, length, at_src, at_dst):
    """The room of a step at coordinate c: the distance to the far vertex
    and the radial plus the shortest edge at the anchor (nearer) vertex,
    whichever is smaller. at_src, at_dst are the shortest edges at the
    edge's two ends."""
    q = length - c
    return np.minimum(np.maximum(c, q), np.minimum(c + at_src, q + at_dst))


def _halve(h: np.ndarray, room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve the steps h in place while six standard deviations do not fit
    in the room; a row stops once its step falls below FLOOR_H. Returns the
    halvings per row and the rows that stopped at the floor."""
    halvings = np.zeros(h.size, dtype=np.int64)
    floored = np.zeros(h.size, dtype=bool)
    over = np.flatnonzero(CLAMP_SIGMAS * np.sqrt(h) >= room)
    while over.size:
        h[over] *= 0.5
        halvings[over] += 1
        low = h[over] < FLOOR_H
        floored[over[low]] = True
        over = over[~low]
        over = over[CLAMP_SIGMAS * np.sqrt(h[over]) >= room[over]]
    return halvings, floored


def _plain_runs(Z, c, h0, j, cap, length, at_src, at_dst):
    """Each row's run of plain steps from coordinate c with the step h0
    (dt halved j times), reading the row's queue Z from the front, at most
    cap steps. Returns the number of plain steps and where each run ends."""
    m, B = Z.shape
    rows = np.arange(m)
    s0 = CLAMP_SIGMAS * np.sqrt(h0)
    # the room exceeds s0 on (lo, hi) around c: p + at_src > s0, length - p
    # + at_dst > s0, and, when the middle of the edge has too little room,
    # on c's side of it
    lo, hi = s0 - at_src, length + at_dst - s0
    split = s0 >= 0.5 * length
    lo = np.where(split & (c > s0), np.maximum(lo, s0), lo)
    hi = np.where(split & (c <= s0), np.minimum(hi, length - s0), hi)
    lo = np.maximum(np.nextafter(lo, np.inf), 0.0)
    hi = np.minimum(np.nextafter(hi, -np.inf), length)
    p = Z * np.sqrt(h0)[:, None]              # coordinate after each step
    p[:, 0] += c
    np.cumsum(p, axis=1, out=p)
    # step i ends inside the edge and step i + 1 starts with room > s0 ...
    good = (p >= lo[:, None]) & (p <= hi[:, None])
    halved = np.flatnonzero(j > 0)
    if halved.size:
        # ... and with room <= 6 sqrt(2 h0), so halved as often as step 0
        r = halved[:, None]
        s1 = CLAMP_SIGMAS * np.sqrt(2.0 * h0[r])
        good[halved] &= _room(p[halved], length[r], at_src[r], at_dst[r]) <= s1
    first = np.argmin(good, axis=1)
    at = p[rows, first]
    inside = (at >= 0.0) & (at <= length)
    k = np.minimum(np.where(good[rows, first], B, first + inside), cap)
    return k, np.where(k > 0, p[rows, k - 1], c)


def metric_isde_forward(g: MetricGraph, x0: GraphPoint, T: float, dt: float,
                        rng: RngStream, n: int,
                        max_steps: int = 10 ** 8) -> MetricIsdeSolution:
    """Simulate n paths of the interface SDE on g from x0 over [0, T]."""
    check_horizon(T, dt)
    if n < 1:
        raise ValueError(f"need n >= 1 paths, got {n}")
    # the shortest edge at each vertex bounds a step anchored there
    vmin = np.array([g.edge_length[list(p)].min() for p in g.vertex_params.values()])
    at_src = vmin[g.edge_src]
    at_dst = np.where(g.edge_dst >= 0, vmin[g.edge_dst], np.inf)
    # a plain step starts no later than this: dt left, and short of arrival
    t_cut = T - max(dt, 2.0 * T_SLACK)
    gen = rng.generator()
    n_e = len(g.edges)

    e, c = _start_state(g, x0, n, gen)
    t = np.zeros(n)
    W = np.zeros((n, n_e))
    driven = np.zeros((n, n_e))      # time each edge drove the path
    touches = np.zeros(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)               # path of each working row
    B = _block(n)
    Z = gen.standard_normal((n, B))  # each row's queue of unused normals
    normals = n * B
    out_e, out_c, out_t = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    out_W, out_driven = np.empty((n, n_e)), np.empty((n, n_e))
    out_touch, out_steps = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)

    blocks = halvings = floor_hits = clamps = 0
    while ids.size:
        blocks += 1
        m = ids.size
        rows = np.arange(m)
        more = _block(m) - B
        if more > 0:                  # fewer rows: longer blocks
            Z = np.hstack([Z, gen.standard_normal((m, more))])
            normals += m * more
            B += more

        # the block: each row's run of plain steps, k of them
        length, a, b = g.edge_length[e], at_src[e], at_dst[e]
        h0 = np.full(m, dt)
        j, floored = _halve(h0, _room(c, length, a, b))
        # the plain steps that start by t_cut; none after a floor hit
        cap = np.clip(np.floor((t_cut - t) / h0) + 1.0, 0, B).astype(np.int64)
        cap[floored] = 0
        k, end = _plain_runs(Z, c, h0, j, cap, length, a, b)
        W[rows, e] += end - c
        c = end
        x = k * h0
        driven[rows, e] += x
        t = t + x
        steps += k
        halvings += int(k @ j)

        # the event step that ends a run, on that row's next normal
        ev = np.flatnonzero((k < B) & (t < T - T_SLACK))
        if ev.size:
            ee, ce = e[ev], c[ev]
            length = g.edge_length[ee]
            near = ce <= length - ce
            radial = np.where(near, ce, length - ce)
            v = np.where(near, g.edge_src[ee], g.edge_dst[ee])
            sign = np.where(near, 1.0, -1.0)
            h = np.minimum(dt, T - t[ev])
            hj, hit = _halve(h, _room(ce, length, at_src[ee], at_dst[ee]))
            halvings += int(hj.sum())
            floor_hits += int(hit.sum())
            dw = np.sqrt(h) * Z[ev, k[ev]]
            W[ev, ee] += dw
            driven[ev, ee] += h
            radial, cross = _coupled_step(g, v, ee, radial + sign * dw, gen)
            if cross.size:
                sign[cross] = np.where(g.edge_src[ee[cross]] == v[cross], 1.0, -1.0)
                touches[ev[cross]] += 1
            length = g.edge_length[ee]
            past = radial > length
            if past.any():
                clamps += int(past.sum())
                radial = np.minimum(radial, length)
            e[ev] = ee
            c[ev] = np.where(sign > 0.0, radial, length - radial)
            t[ev] += h
            steps[ev] += 1
            k[ev] += 1                            # normals used
        if steps.max() > max_steps:
            raise RuntimeError(f"exceeded {max_steps} steps")

        done = t >= T - T_SLACK
        if done.any():
            i = ids[done]
            out_e[i], out_c[i], out_t[i] = e[done], c[done], t[done]
            out_W[i], out_driven[i] = W[done], driven[done]
            out_touch[i], out_steps[i] = touches[done], steps[done]
            keep = ~done
            ids, e, c, t, W, driven = ids[keep], e[keep], c[keep], t[keep], W[keep], driven[keep]
            touches, steps, k, Z = touches[keep], steps[keep], k[keep], Z[keep]
        # fresh normals in the slots each row read; the rest were not read
        if ids.size:
            used = int(k.sum())
            Z[np.arange(B) < k[:, None]] = gen.standard_normal(used)
            normals += used

    out_W += np.sqrt(np.maximum(out_t[:, None] - out_driven, 0.0)) * gen.standard_normal((n, n_e))
    normals += n * n_e
    return MetricIsdeSolution(
        graph=g, edges=out_e, coords=out_c, W=out_W, touches=out_touch,
        n_steps=int(out_steps.max()), path_steps=int(out_steps.sum()),
        halvings=halvings, floor_hits=floor_hits, clamps=clamps,
        blocks=blocks, normals=normals)
