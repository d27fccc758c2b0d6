"""Star graphs, loop-free metric graphs, and test functions on them.

A star graph is N half-lines (rays) glued at one origin, each ray carrying a
weight p_i; a metric graph is a finite set of oriented edges glued at
vertices, with a weight family per vertex. Points are stored canonically:
anything sitting on a vertex is the vertex, never an (edge, endpoint
coordinate) pair, so equality is unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12
CONTINUITY_TOL = 1e-9

ORIGIN_VERTEX = 0  # the single vertex of a star graph


def _validate_probs(probs: Sequence[float], where: str) -> tuple[float, ...]:
    probs = tuple(float(p) for p in probs)
    if len(probs) == 1:
        # degree-1 vertex: the lone weight is 1 by convention
        if abs(probs[0] - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"{where}: single weight must be 1, got {probs[0]}")
        return probs
    for p in probs:
        if not (0.0 < p < 1.0):
            raise ValueError(f"{where}: weight {p} outside (0, 1)")
    if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{where}: weights sum to {sum(probs)}, not 1")
    return probs


@dataclass(frozen=True)
class GraphPoint:
    """Position on a graph: either a vertex, or an edge-interior point.

    ``vertex`` is set (and ``edge`` is None) iff the point sits on a vertex.
    Edge coordinates are measured from the edge's ``from`` end.
    """

    edge: int | None
    coord: float
    vertex: int | None = None

    def __post_init__(self):
        if (self.edge is None) == (self.vertex is None):
            raise ValueError("exactly one of edge/vertex must be set")
        if self.edge is not None and self.coord <= 0.0:
            raise ValueError("edge-interior point needs coord > 0")

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


@dataclass(frozen=True)
class StarGraph:
    """N rays glued at one origin, ray i chosen with weight probs[i]."""

    n_rays: int
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.n_rays < 1:
            raise ValueError("need at least one ray")
        if len(self.probs) != self.n_rays:
            raise ValueError("probs length must equal n_rays")
        object.__setattr__(self, "probs", _validate_probs(self.probs, "star"))

    def point(self, ray: int, r: float) -> GraphPoint:
        """The point e_ray(r); r = 0 canonicalizes to the origin."""
        if not 0 <= ray < self.n_rays:
            raise ValueError(f"ray {ray} out of range")
        if r < 0:
            raise ValueError("radial coordinate must be >= 0")
        if r == 0.0:
            return self.origin()
        return GraphPoint(edge=ray, coord=float(r))

    def origin(self) -> GraphPoint:
        return GraphPoint(edge=None, coord=0.0, vertex=ORIGIN_VERTEX)

    @property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs)

    def ray_partition(self, rays, radials) -> RayPartition:
        """Group a batch of points, given as (rays, radials) arrays, into
        origin rows and per-ray rows (see RayPartition).

        Raises ValueError when the arrays differ in shape, a ray id lies
        outside [0, N), or a radial is negative or non-finite. The last case
        is caught by counting: every row must land in exactly one group, so
        the group sizes must sum to the batch size.
        """
        rays = np.asarray(rays)
        radials = np.asarray(radials, dtype=float)
        if rays.shape != radials.shape:
            raise ValueError(f"rays shape {rays.shape} != radials shape {radials.shape}")
        rays, flat = rays.ravel(), radials.ravel()
        if rays.size and (rays.min() < 0 or rays.max() >= self.n_rays):
            raise ValueError(f"ray ids must lie in [0, {self.n_rays})")
        vertex = np.flatnonzero(flat == 0.0)
        interior = (flat > 0.0) & (flat < math.inf)
        rows = tuple(np.flatnonzero(interior & (rays == i)) for i in range(self.n_rays))
        if vertex.size + sum(r.size for r in rows) != flat.size:
            raise ValueError("radials must be finite and >= 0, ray ids integers")
        return RayPartition(shape=radials.shape, vertex=vertex, ray_rows=rows,
                            ray_radials=tuple(flat[r] for r in rows))


@dataclass(frozen=True)
class RayPartition:
    """Rows of one (rays, radials) batch on a star graph, grouped once so
    that every DomainFunction evaluated on the batch can share the grouping.

    ``vertex`` holds the flat indices of origin rows (radial == 0);
    ``ray_rows[i]`` the flat indices of the interior rows on ray i and
    ``ray_radials[i]`` their radials. Every row of a batch of ``shape`` is in
    exactly one group. Build it with ``StarGraph.ray_partition``.
    """

    shape: tuple[int, ...]
    vertex: np.ndarray
    ray_rows: tuple[np.ndarray, ...]
    ray_radials: tuple[np.ndarray, ...]


def make_star(n: int, probs: Sequence[float]) -> StarGraph:
    """Validated star graph with n rays and the given ray weights."""
    if n < 1:
        raise ValueError("need at least one ray")
    if len(probs) != n:
        raise ValueError(f"expected {n} weights, got {len(probs)}")
    return StarGraph(n_rays=n, probs=tuple(float(p) for p in probs))


@dataclass(frozen=True)
class Edge:
    """Oriented edge: runs from vertex ``src`` to vertex ``dst`` (or to
    infinity when ``dst`` is None, in which case length is inf)."""

    id: int
    src: int
    dst: int | None
    length: float

    def __post_init__(self):
        if self.dst is None and math.isfinite(self.length):
            raise ValueError("edge to infinity must have infinite length")
        if self.dst is not None and not (0.0 < self.length < math.inf):
            raise ValueError("finite edge needs length in (0, inf)")
        if self.dst is not None and self.dst == self.src:
            raise ValueError("loops are not allowed")


class MetricGraph:
    """Finite, connected, loop-free metric graph with per-vertex weights.

    ``vertex_params[v]`` maps incident edge id -> weight; weights at each
    vertex lie in (0,1) and sum to 1 (a degree-1 vertex carries weight 1).
    """

    def __init__(self, vertices: Sequence[int], edges: Sequence[Edge],
                 vertex_params: dict[int, dict[int, float]]):
        self.vertices = tuple(sorted(set(int(v) for v in vertices)))
        self.edges = tuple(edges)
        self._edge_by_id = {e.id: e for e in self.edges}
        if len(self._edge_by_id) != len(self.edges):
            raise ValueError("duplicate edge ids")
        for e in self.edges:
            if e.src not in self.vertices:
                raise ValueError(f"edge {e.id}: unknown vertex {e.src}")
            if e.dst is not None and e.dst not in self.vertices:
                raise ValueError(f"edge {e.id}: unknown vertex {e.dst}")

        self.vertex_params: dict[int, dict[int, float]] = {}
        for v in self.vertices:
            inc = self.incident(v)
            if not inc:
                raise ValueError(f"vertex {v} has no incident edges")
            params = vertex_params.get(v)
            if params is None or set(params) != set(e.id for e in inc):
                raise ValueError(f"vertex {v}: weights must cover exactly its edges")
            ordered = {e.id: float(params[e.id]) for e in inc}
            _validate_probs(list(ordered.values()), f"vertex {v}")
            self.vertex_params[v] = ordered

        self._check_connected()
        self._vertex_dist = self._shortest_vertex_paths()

    def incident(self, v: int) -> list[Edge]:
        return [e for e in self.edges if e.src == v or e.dst == v]

    def edge(self, edge_id: int) -> Edge:
        return self._edge_by_id[edge_id]

    def _check_connected(self):
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in self.incident(v):
                for w in (e.src, e.dst):
                    if w is not None and w not in seen:
                        seen.add(w)
                        frontier.append(w)
        if seen != set(self.vertices):
            raise ValueError("graph is not connected")

    def _shortest_vertex_paths(self) -> dict[tuple[int, int], float]:
        d = {(u, v): (0.0 if u == v else math.inf)
             for u in self.vertices for v in self.vertices}
        for e in self.edges:
            if e.dst is not None:
                key = (e.src, e.dst)
                d[key] = min(d[key], e.length)
                d[(e.dst, e.src)] = d[key]
        for k in self.vertices:
            for i in self.vertices:
                for j in self.vertices:
                    via = d[(i, k)] + d[(k, j)]
                    if via < d[(i, j)]:
                        d[(i, j)] = via
        return d

    def vertex_distance(self, u: int, v: int) -> float:
        return self._vertex_dist[(u, v)]

    def point(self, edge_id: int, coord: float) -> GraphPoint:
        """Point on an edge; endpoint coordinates canonicalize to vertices."""
        e = self.edge(edge_id)
        if coord < 0 or coord > e.length:
            raise ValueError(f"coord {coord} outside [0, {e.length}]")
        if coord == 0.0:
            return GraphPoint(edge=None, coord=0.0, vertex=e.src)
        if coord == e.length:
            return GraphPoint(edge=None, coord=0.0, vertex=e.dst)
        return GraphPoint(edge=edge_id, coord=float(coord))

    def endpoint_offsets(self, x: GraphPoint) -> list[tuple[int, float]]:
        """(vertex, distance-to-it) pairs for the point's reachable endpoints."""
        if x.is_vertex:
            return [(x.vertex, 0.0)]
        e = self.edge(x.edge)
        out = [(e.src, x.coord)]
        if e.dst is not None:
            out.append((e.dst, e.length - x.coord))
        return out


def distance(g: StarGraph | MetricGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Path distance between two points of g."""
    if isinstance(g, StarGraph):
        rx = 0.0 if x.is_vertex else x.coord
        ry = 0.0 if y.is_vertex else y.coord
        if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
            return abs(rx - ry)
        return rx + ry
    best = math.inf
    if not x.is_vertex and not y.is_vertex and x.edge == y.edge:
        best = abs(x.coord - y.coord)
    for (u, du) in g.endpoint_offsets(x):
        for (v, dv) in g.endpoint_offsets(y):
            best = min(best, du + g.vertex_distance(u, v) + dv)
    return best


class DomainFunction:
    """Scalar function on a graph given by per-edge restrictions h_i with
    analytic first and second derivatives.

    At a vertex v the value is the common limit of the incident restrictions
    (checked at construction), and derivatives use the weighted one-sided
    convention: f'(v) = sum over outgoing edges of p_i h_i'(0+) minus the sum
    over incoming edges of p_i h_i'(L_i-), and likewise for f''.
    """

    def __init__(self, g: StarGraph | MetricGraph,
                 edge_funcs: Sequence[tuple[Callable, Callable, Callable]],
                 vertex_overrides: dict[int, tuple[float | None, float | None]] | None = None):
        # vertex_overrides supplies closed-form vertex derivative values when
        # the constructor knows them exactly (weighted float sums carry dust)
        self.graph = g
        self.edge_funcs = list(edge_funcs)
        self.vertex_overrides = dict(vertex_overrides or {})
        if isinstance(g, StarGraph):
            if len(self.edge_funcs) != g.n_rays:
                raise ValueError("one (h, h', h'') triple per ray required")
        else:
            if len(self.edge_funcs) != len(g.edges):
                raise ValueError("one (h, h', h'') triple per edge required")
        self._check_continuity()

    def _vertices(self):
        if isinstance(self.graph, StarGraph):
            return (ORIGIN_VERTEX,)
        return self.graph.vertices

    def _incident_limits(self, v: int):
        """(weight, h, h', h'', endpoint coord, outgoing flag) per incident edge."""
        g = self.graph
        if isinstance(g, StarGraph):
            for i in range(g.n_rays):
                h, dh, d2h = self.edge_funcs[i]
                yield g.probs[i], h, dh, d2h, 0.0, True
            return
        for e in g.incident(v):
            h, dh, d2h = self.edge_funcs[e.id]
            p = g.vertex_params[v][e.id]
            if e.src == v:
                yield p, h, dh, d2h, 0.0, True
            else:
                yield p, h, dh, d2h, e.length, False

    def _check_continuity(self):
        for v in self._vertices():
            vals = [h(r0) for (_, h, _, _, r0, _) in self._incident_limits(v)]
            if max(vals) - min(vals) > CONTINUITY_TOL:
                raise ValueError(f"discontinuous at vertex {v}: {vals}")

    def vertex_value(self, v: int) -> float:
        vals = [h(r0) for (_, h, _, _, r0, _) in self._incident_limits(v)]
        return vals[0]

    def vertex_derivative(self, v: int) -> float:
        ov = self.vertex_overrides.get(v)
        if ov is not None and ov[0] is not None:
            return ov[0]
        s = 0.0
        for (p, _, dh, _, r0, outgoing) in self._incident_limits(v):
            s += p * dh(r0) if outgoing else -p * dh(r0)
        return s

    def vertex_second_derivative(self, v: int) -> float:
        ov = self.vertex_overrides.get(v)
        if ov is not None and ov[1] is not None:
            return ov[1]
        s = 0.0
        for (p, _, _, d2h, r0, outgoing) in self._incident_limits(v):
            s += p * d2h(r0) if outgoing else -p * d2h(r0)
        return s

    def value(self, x: GraphPoint) -> float:
        if x.is_vertex:
            return self.vertex_value(x.vertex)
        h, _, _ = self.edge_funcs[x.edge]
        return h(x.coord)

    def derivative(self, x: GraphPoint) -> float:
        if x.is_vertex:
            return self.vertex_derivative(x.vertex)
        _, dh, _ = self.edge_funcs[x.edge]
        return dh(x.coord)

    def second_derivative(self, x: GraphPoint) -> float:
        if x.is_vertex:
            return self.vertex_second_derivative(x.vertex)
        _, _, d2h = self.edge_funcs[x.edge]
        return d2h(x.coord)

    def in_domain(self, tol: float = 1e-12) -> bool:
        """Whether the weighted derivative vanishes at every vertex."""
        return all(abs(self.vertex_derivative(v)) <= tol for v in self._vertices())

    # vectorized evaluation over (ray, radial) arrays; vertex rows use the
    # weighted conventions. Star graphs only. ``part`` is a partition of
    # this batch from StarGraph.ray_partition, built here when not given.
    def _eval_arrays(self, which: int, rays, radials,
                     part: RayPartition | None = None) -> np.ndarray:
        g = self.graph
        if not isinstance(g, StarGraph):
            raise TypeError("array evaluation supports star graphs only")
        if part is None:
            part = g.ray_partition(rays, radials)
        elif part.shape != np.shape(radials):
            raise ValueError(f"partition built for shape {part.shape}, "
                             f"batch has shape {np.shape(radials)}")
        out = np.empty(part.shape)
        flat = out.reshape(-1)
        for funcs, rows, r in zip(self.edge_funcs, part.ray_rows, part.ray_radials):
            if rows.size:
                flat[rows] = funcs[which](r)
        if part.vertex.size:
            if which == 0:
                v0 = self.vertex_value(ORIGIN_VERTEX)
            elif which == 1:
                v0 = self.vertex_derivative(ORIGIN_VERTEX)
            else:
                v0 = self.vertex_second_derivative(ORIGIN_VERTEX)
            flat[part.vertex] = v0
        return out

    def value_arrays(self, rays, radials, part: RayPartition | None = None):
        return self._eval_arrays(0, rays, radials, part)

    def derivative_arrays(self, rays, radials, part: RayPartition | None = None):
        return self._eval_arrays(1, rays, radials, part)

    def second_derivative_arrays(self, rays, radials, part: RayPartition | None = None):
        return self._eval_arrays(2, rays, radials, part)


def canonical_test_functions(g: StarGraph, i: int) -> tuple[DomainFunction, DomainFunction]:
    """The pair (f_i, g_i = f_i^2) for ray i.

    f_i is q_i|x| on ray i and -p_i|x| elsewhere (q_i = 1 - p_i); it has zero
    weighted derivative at the origin and vanishing second derivative. g_i
    has weighted second derivative 2 p_i q_i at the origin.
    """
    if not 0 <= i < g.n_rays:
        raise ValueError(f"ray {i} out of range")
    p = g.probs[i]
    q = 1.0 - p

    def mk_f(slope):
        return (lambda r, s=slope: s * r,
                lambda r, s=slope: s + 0.0 * r,
                lambda r: 0.0 * r)

    def mk_g(slope):
        s2 = slope * slope
        return (lambda r, c=s2: c * r * r,
                lambda r, c=s2: 2.0 * c * r,
                lambda r, c=s2: 2.0 * c + 0.0 * r)

    f_funcs = [mk_f(q if j == i else -p) for j in range(g.n_rays)]
    g_funcs = [mk_g(q if j == i else p) for j in range(g.n_rays)]
    f_i = DomainFunction(g, f_funcs, vertex_overrides={ORIGIN_VERTEX: (0.0, 0.0)})
    g_i = DomainFunction(g, g_funcs,
                         vertex_overrides={ORIGIN_VERTEX: (0.0, 2.0 * p * q)})
    return f_i, g_i


def per_ray_quadratic(g: StarGraph, quad: Sequence[float], lin: Sequence[float],
                      const: float = 0.0) -> DomainFunction:
    """h_i(r) = quad[i] r^2 + lin[i] r + const on each ray."""
    if len(quad) != g.n_rays or len(lin) != g.n_rays:
        raise ValueError("need one quadratic and one linear coefficient per ray")

    def mk(a, b):
        return (lambda r, a=a, b=b: a * r * r + b * r + const,
                lambda r, a=a, b=b: 2.0 * a * r + b,
                lambda r, a=a: 2.0 * a + 0.0 * r)

    return DomainFunction(g, [mk(float(a), float(b)) for a, b in zip(quad, lin)])


# -- JSON graph description files -------------------------------------------

def metric_graph_to_dict(g: MetricGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "from": e.src,
             "to": "inf" if e.dst is None else e.dst,
             "length": "inf" if not math.isfinite(e.length) else e.length}
            for e in g.edges
        ],
        "params": {str(v): {str(i): p for i, p in params.items()}
                   for v, params in g.vertex_params.items()},
    }


def metric_graph_from_dict(d: dict) -> MetricGraph:
    edges = [
        Edge(id=int(e["id"]), src=int(e["from"]),
             dst=None if e["to"] == "inf" else int(e["to"]),
             length=math.inf if e["length"] == "inf" else float(e["length"]))
        for e in d["edges"]
    ]
    params = {int(v): {int(i): float(p) for i, p in m.items()}
              for v, m in d["params"].items()}
    return MetricGraph(vertices=[int(v) for v in d["vertices"]],
                       edges=edges, vertex_params=params)


def save_graph(g: MetricGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(metric_graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path) as fh:
        return metric_graph_from_dict(json.load(fh))
