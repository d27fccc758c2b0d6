"""Batch simulation of the interface SDE on a metric graph.

Layout: n paths advance together. Each path's state is three arrays, its
edge (a column index into ``edge_ids``), its coordinate measured from the
edge's from-end, and its own clock t, plus its row of the terminal edge
noises W (n, n_edges). Only terminal state is kept, no per-step history.
Step sizes are per path, so paths fall off the common grid once one of
them halves a step; a path drops out of the working set when its clock
reaches T, and the batch runs until the last one does.

A step works in the frame of the endpoint of the path's edge nearest to
it: the radial coordinate is the distance to that vertex, and the local
driver is the edge noise, sign-flipped when the edge points into the
vertex. The step h = min(dt, T - t) is halved until six standard
deviations fit inside the distance to the far vertex and inside the
radial plus the shortest edge at the anchor vertex, so a step can neither
cross an edge nor fold past the end of a short one; halving stops below
FLOOR_H. In the interior the coordinate follows the edge noise directly.
A step that crosses the vertex (radial + increment < 0) is a vertex touch:
the outgoing edge is redrawn from the vertex's weights and the overshoot
is folded onto it (radial = |y|, the discrete Tanaka rule of ``walsh``).
A radial that still ends past the far vertex, a 6-sigma event, is clamped
to it.

Draw order, one Philox generator per call: n uniforms for the starting
edge when x0 is a vertex, then per batch step, over the paths still
running in path order, a (m, n_edges) block of standard normals and m
uniforms for the redraw. Every edge gets one raw Gaussian per step; the
driving edge consumes its own and the others keep theirs as auxiliary
noise, so each path's W is a Brownian family and the interior identity
d(coord) = dW_edge holds exactly.

Halvings, floor hits, far-vertex clamps and per-path vertex touches are
counted on the result rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphPoint, MetricGraph
from .halfline import RngStream, check_horizon

__all__ = ["MetricIsdeSolution", "metric_isde_forward"]

CLAMP_SIGMAS = 6.0
FLOOR_H = 1e-15   # no step is halved below this
T_SLACK = 1e-12   # a clock within this of T has arrived


@dataclass
class MetricIsdeSolution:
    """Terminal states of n paths on a metric graph, the edge noises they
    consumed, and the engine's work counts."""

    graph: MetricGraph
    edge_ids: tuple
    edges: np.ndarray          # (n,) terminal edge id
    coords: np.ndarray         # (n,) terminal coordinate from the edge's from-end
    W: np.ndarray              # (n, n_edges) terminal edge noises, columns as edge_ids
    touches: np.ndarray        # (n,) vertex touches per path
    n_steps: int               # batch steps
    path_steps: int            # steps summed over paths
    halvings: int              # step halvings over all paths
    floor_hits: int            # halvings stopped at FLOOR_H
    clamps: int                # radials clamped to the far vertex

    @property
    def n(self) -> int:
        return len(self.edges)

    def point(self, k: int) -> GraphPoint:
        """Terminal point of path k."""
        return self.graph.point(int(self.edges[k]), float(self.coords[k]))


@dataclass
class _GraphTables:
    """Edge and vertex data of a graph as arrays indexed by edge column and
    vertex index."""

    src: np.ndarray      # (n_edges,) vertex index of the from-end
    dst: np.ndarray      # (n_edges,) vertex index of the to-end, -1 at infinity
    length: np.ndarray   # (n_edges,) inf for rays
    vmin: np.ndarray     # (n_vertices,) shortest incident edge
    cum: np.ndarray      # (n_vertices, max_degree) cumulative weights, inf-padded
    out: np.ndarray      # (n_vertices, max_degree) edge column per weight

    @classmethod
    def build(cls, g: MetricGraph) -> "_GraphTables":
        vidx = {v: i for i, v in enumerate(g.vertices)}
        col = {e.id: j for j, e in enumerate(g.edges)}
        src = np.array([vidx[e.src] for e in g.edges], dtype=np.int64)
        dst = np.array([-1 if e.dst is None else vidx[e.dst] for e in g.edges],
                       dtype=np.int64)
        length = np.array([e.length for e in g.edges])
        deg = max(len(p) for p in g.vertex_params.values())
        cum = np.full((len(vidx), deg), np.inf)
        out = np.zeros((len(vidx), deg), dtype=np.int64)
        vmin = np.empty(len(vidx))
        for v, i in vidx.items():
            params = g.vertex_params[v]
            ids = list(params)
            # the last cut stays inf, so rounding in the cumsum cannot run
            # the redraw off the end
            cum[i, :len(ids) - 1] = np.cumsum([params[e] for e in ids])[:-1]
            out[i, :len(ids)] = [col[e] for e in ids]
            vmin[i] = min(g.edge(e).length for e in ids)
        return cls(src=src, dst=dst, length=length, vmin=vmin, cum=cum, out=out)

    def redraw(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Edge columns drawn from the weights of vertices v with uniforms u."""
        return self.out[v, (self.cum[v] < u[:, None]).sum(axis=1)]


def metric_isde_forward(g: MetricGraph, x0: GraphPoint, T: float, dt: float,
                        rng: RngStream, n: int,
                        max_steps: int = 10 ** 8) -> MetricIsdeSolution:
    """Simulate n paths of the interface SDE on g from x0 over [0, T]."""
    check_horizon(T, dt)
    if n < 1:
        raise ValueError(f"need n >= 1 paths, got {n}")
    tab = _GraphTables.build(g)
    gen = rng.generator()
    edge_ids = tuple(e.id for e in g.edges)
    n_e = len(edge_ids)

    if x0.is_vertex:
        v0 = np.full(n, g.vertices.index(x0.vertex))
        e = tab.redraw(v0, gen.random(n))
        c = np.where(tab.src[e] == v0, 0.0, tab.length[e])
    else:
        e = np.full(n, edge_ids.index(x0.edge))
        c = np.full(n, float(x0.coord))
    t = np.zeros(n)
    W = np.zeros((n, n_e))
    touches = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)               # path of each working row
    out_e, out_c = np.empty(n, dtype=np.int64), np.empty(n)
    out_W, out_touch = np.empty((n, n_e)), np.empty(n, dtype=np.int64)

    steps = path_steps = halvings = floor_hits = clamps = 0
    while ids.size:
        steps += 1
        if steps > max_steps:
            raise RuntimeError(f"exceeded {max_steps} steps")
        m = ids.size
        path_steps += m
        rows = np.arange(m)

        # anchor at the nearer endpoint (rays: always their from-end)
        length = tab.length[e]
        near = c <= length - c
        radial = np.where(near, c, length - c)
        v = np.where(near, tab.src[e], tab.dst[e])
        sign = np.where(near, 1.0, -1.0)
        lim = (np.minimum(length - radial, radial + tab.vmin[v]) / CLAMP_SIGMAS) ** 2
        h = np.minimum(dt, T - t)
        big = np.flatnonzero(h >= lim)
        if big.size:
            hb, lb = h[big], lim[big]
            while True:
                over = hb >= lb
                if not over.any():
                    break
                hb[over] *= 0.5
                halvings += int(over.sum())
                hit = over & (hb < FLOOR_H)
                floor_hits += int(hit.sum())
                lb[hit] = np.inf        # floored: halve no further
            h[big] = hb

        dw = np.sqrt(h)[:, None] * gen.standard_normal((m, n_e))
        u = gen.random(m)
        W += dw
        y = radial + sign * dw[rows, e]
        cross = np.flatnonzero(y < 0.0)
        if cross.size:
            vc = v[cross]
            e[cross] = tab.redraw(vc, u[cross])
            sign[cross] = np.where(tab.src[e[cross]] == vc, 1.0, -1.0)
            touches[cross] += 1
        radial = np.abs(y)
        length = tab.length[e]
        past = radial > length
        if past.any():
            clamps += int(past.sum())
            radial = np.minimum(radial, length)
        c = np.where(sign > 0.0, radial, length - radial)
        t += h

        done = t >= T - T_SLACK
        if done.any():
            k = ids[done]
            out_e[k], out_c[k], out_W[k], out_touch[k] = e[done], c[done], W[done], touches[done]
            keep = ~done
            ids, e, c, t, W, touches = ids[keep], e[keep], c[keep], t[keep], W[keep], touches[keep]

    return MetricIsdeSolution(
        graph=g, edge_ids=edge_ids, edges=np.asarray(edge_ids)[out_e], coords=out_c,
        W=out_W, touches=out_touch, n_steps=steps, path_steps=path_steps,
        halvings=halvings, floor_hits=floor_hits, clamps=clamps)
