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
deviations fit inside the distance to the far vertex and inside the
radial plus the shortest edge at the anchor vertex, so a step can neither
cross an edge nor fold past the end of a short one; halving stops below
FLOOR_H. In the interior the coordinate follows the edge noise directly.
A step that crosses the vertex (radial + increment < 0) is a vertex touch:
the coupled Walsh step of ``walsh`` redraws the outgoing edge from the
vertex's weights (``MetricGraph.draw_edges``) and folds the overshoot onto
it (radial = |y|, the discrete Tanaka rule); paths start as the star
engines do, from ``walsh._start_state``.
A radial that still ends past the far vertex, a 6-sigma event, is clamped
to it.

Draw order, one Philox generator per call: n uniforms for the starting
edge when x0 is a vertex, then per batch step, over the paths still
running in path order, a (m, n_edges) block of standard normals and then
one redraw uniform per crossing row, in row order; rows that keep their
edge draw no coin. Every edge gets one raw Gaussian per step; the
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
from .walsh import _coupled_step, _start_state

__all__ = ["MetricIsdeSolution", "metric_isde_forward"]

CLAMP_SIGMAS = 6.0
FLOOR_H = 1e-15   # no step is halved below this
T_SLACK = 1e-12   # a clock within this of T has arrived


@dataclass
class MetricIsdeSolution:
    """Terminal states of n paths on a metric graph, the edge noises they
    consumed, and the engine's work counts."""

    graph: MetricGraph
    edges: np.ndarray          # (n,) terminal edge id
    coords: np.ndarray         # (n,) terminal coordinate from the edge's from-end
    W: np.ndarray              # (n, n_edges) terminal edge noises, column e for edge e
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


def metric_isde_forward(g: MetricGraph, x0: GraphPoint, T: float, dt: float,
                        rng: RngStream, n: int,
                        max_steps: int = 10 ** 8) -> MetricIsdeSolution:
    """Simulate n paths of the interface SDE on g from x0 over [0, T]."""
    check_horizon(T, dt)
    if n < 1:
        raise ValueError(f"need n >= 1 paths, got {n}")
    # the shortest edge at each vertex bounds a step anchored there
    vmin = np.array([g.edge_length[list(p)].min() for p in g.vertex_params.values()])
    gen = rng.generator()
    n_e = len(g.edges)

    e, c = _start_state(g, x0, n, gen)
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
        length = g.edge_length[e]
        near = c <= length - c
        radial = np.where(near, c, length - c)
        v = np.where(near, g.edge_src[e], g.edge_dst[e])
        sign = np.where(near, 1.0, -1.0)
        lim = (np.minimum(length - radial, radial + vmin[v]) / CLAMP_SIGMAS) ** 2
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
        W += dw
        radial, cross = _coupled_step(g, v, e, radial + sign * dw[rows, e], gen)
        if cross.size:
            sign[cross] = np.where(g.edge_src[e[cross]] == v[cross], 1.0, -1.0)
            touches[cross] += 1
        length = g.edge_length[e]
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
        graph=g, edges=out_e, coords=out_c,
        W=out_W, touches=out_touch, n_steps=steps, path_steps=path_steps,
        halvings=halvings, floor_hits=floor_hits, clamps=clamps)
