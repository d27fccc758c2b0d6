"""Loop-free metric graphs, star graphs, and test functions on them.

A metric graph is a finite set of oriented edges glued at vertices, with a
weight family per vertex; an edge runs from one vertex to another, or to
infinity (a ray). A star graph is the one-vertex metric graph: N rays
leaving vertex 0, ray i carrying the weight p_i. Points are stored
canonically: anything sitting on a vertex is the vertex, never an (edge,
endpoint coordinate) pair, so equality is unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PROB_SUM_TOL = 1e-12
CONTINUITY_TOL = 1e-9

ORIGIN_VERTEX = 0  # the single vertex of a star graph, and its position in vertices


def _validate_probs(probs: Sequence[float], where: str) -> None:
    if len(probs) == 1:
        # degree-1 vertex: the lone weight is 1 by convention
        if abs(probs[0] - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"{where}: single weight must be 1, got {probs[0]}")
        return
    for p in probs:
        if not (0.0 < p < 1.0):
            raise ValueError(f"{where}: weight {p} outside (0, 1)")
    if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{where}: weights sum to {sum(probs)}, not 1")


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

    Edge ids are the positions 0, 1, ... of the edges, so arrays indexed by
    edge id need no lookup. ``vertex_params[v]`` maps incident edge id ->
    weight; weights at each vertex lie in (0,1) and sum to 1 (a degree-1
    vertex carries weight 1). ``edge_src``, ``edge_dst`` and ``edge_length``
    hold per edge id the position in ``vertices`` of its from-end, of its
    to-end (-1 for a ray) and its length (inf for a ray).

    The weight table is the one rule for leaving a vertex: row i of
    ``vertex_cum`` holds the running sums of the weights at vertex
    ``vertices[i]`` with its last cut set to inf (and inf past its degree),
    and ``vertex_edges[i]`` the edge id of each weight. ``draw_edges`` reads
    it, so rounding in the sums can never draw past the last edge.
    """

    def __init__(self, vertices: Sequence[int], edges: Sequence[Edge],
                 vertex_params: dict[int, dict[int, float]]):
        self.vertices = tuple(sorted(set(int(v) for v in vertices)))
        if not self.vertices:
            raise ValueError("a metric graph needs at least one vertex")
        self.edges = tuple(edges)
        if [e.id for e in self.edges] != list(range(len(self.edges))):
            raise ValueError("edge ids must be 0, 1, ... in the order of the edges")
        vidx = {v: i for i, v in enumerate(self.vertices)}
        for e in self.edges:
            for w in (e.src, e.dst):
                if w is not None and w not in vidx:
                    raise ValueError(f"edge {e.id}: unknown vertex {w}")
        self.edge_src = np.array([vidx[e.src] for e in self.edges], dtype=np.int64)
        self.edge_dst = np.array([-1 if e.dst is None else vidx[e.dst] for e in self.edges],
                                 dtype=np.int64)
        self.edge_length = np.array([e.length for e in self.edges])
        self._incident = {v: [e for e in self.edges if v in (e.src, e.dst)]
                          for v in self.vertices}

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
        deg = max(len(p) for p in self.vertex_params.values())
        self.vertex_cum = np.full((len(self.vertices), deg), np.inf)
        self.vertex_edges = np.zeros((len(self.vertices), deg), dtype=np.int64)
        for i, params in enumerate(self.vertex_params.values()):
            self.vertex_cum[i, :len(params) - 1] = np.cumsum(list(params.values()))[:-1]
            self.vertex_edges[i, :len(params)] = list(params)

        self._check_connected()
        self._vertex_dist = self._shortest_vertex_paths()

    def draw_edges(self, v, u):
        """Edge ids drawn from the weights at vertex position v with the
        uniforms u: weight k is drawn when u lies in (cut k-1, cut k]. v is
        one position (a searchsorted on its row) or an array of positions,
        one per uniform (a compare over their rows)."""
        if isinstance(v, np.ndarray):
            return self.vertex_edges[v, (self.vertex_cum[v] < u[:, None]).sum(axis=1)]
        return self.vertex_edges[v].take(self.vertex_cum[v].searchsorted(u))

    def incident(self, v: int) -> list[Edge]:
        return self._incident[v]

    def edge(self, edge_id: int) -> Edge:
        if not 0 <= edge_id < len(self.edges):
            raise ValueError(f"unknown edge {edge_id}")
        return self.edges[edge_id]

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
        if not (0.0 <= coord <= e.length and math.isfinite(coord)):
            raise ValueError(f"coord {coord} outside [0, {e.length}] or not finite")
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

    def partition(self, edges, coords) -> EdgePartition:
        """Group a batch of points, given as (edges, coords) arrays, into
        vertex rows and per-edge interior rows (see EdgePartition).

        Raises ValueError when the arrays differ in shape, an edge id is not
        an integer in [0, n_edges), or a coord is non-finite or outside
        [0, length] of its edge. The last case is caught by counting: every
        row must land in exactly one group, so the group sizes must sum to
        the batch size.
        """
        ids = np.asarray(edges)
        coords = np.asarray(coords, dtype=float)
        if ids.shape != coords.shape:
            raise ValueError(f"edges shape {ids.shape} != coords shape {coords.shape}")
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError("edge ids must be integers")
        ids, flat = ids.ravel().astype(np.int64, copy=False), coords.ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.edges)):
            raise ValueError(f"edge ids must lie in [0, {len(self.edges)})")
        at_src = np.flatnonzero(flat == 0.0)
        vertex_rows, vertex_index = [at_src], [self.edge_src[ids[at_src]]]
        inside = (flat > 0.0) & (flat < math.inf)   # nan and inf join no group
        edge_rows = []
        for e in self.edges:
            on = inside & (ids == e.id)
            if e.dst is None:
                edge_rows.append(np.flatnonzero(on))
                continue
            edge_rows.append(np.flatnonzero(on & (flat < e.length)))
            at_dst = np.flatnonzero(on & (flat == e.length))
            vertex_rows.append(at_dst)
            vertex_index.append(np.full(at_dst.size, self.edge_dst[e.id]))
        vertex_rows = np.concatenate(vertex_rows)
        if vertex_rows.size + sum(r.size for r in edge_rows) != flat.size:
            raise ValueError("coords must lie in [0, length] of their edge")
        return EdgePartition(shape=coords.shape, vertex_rows=vertex_rows,
                             vertex_index=np.concatenate(vertex_index),
                             edge_rows=tuple(edge_rows),
                             edge_coords=tuple(flat[r] for r in edge_rows))


@dataclass(frozen=True)
class EdgePartition:
    """Rows of one (edges, coords) batch on a metric graph, grouped once so
    that every DomainFunction evaluated on the batch can share the grouping.

    ``vertex_rows`` holds the flat indices of rows on a vertex (coord 0 is
    the edge's from-end, coord == length its to-end) and ``vertex_index``
    the position of that vertex in ``MetricGraph.vertices``;
    ``edge_rows[e]`` the flat indices of the interior rows on edge e and
    ``edge_coords[e]`` their coords. Every row of a batch of ``shape`` is in
    exactly one group. Build it with ``MetricGraph.partition``.
    """

    shape: tuple[int, ...]
    vertex_rows: np.ndarray
    vertex_index: np.ndarray
    edge_rows: tuple[np.ndarray, ...]
    edge_coords: tuple[np.ndarray, ...]


class StarGraph(MetricGraph):
    """N rays glued at one origin: the one-vertex metric graph whose edge i
    is an infinite ray leaving vertex 0, chosen with weight probs[i]."""

    def __init__(self, n_rays: int, probs: Sequence[float]):
        rays = [Edge(id=i, src=ORIGIN_VERTEX, dst=None, length=math.inf)
                for i in range(n_rays)]
        super().__init__([ORIGIN_VERTEX], rays, {ORIGIN_VERTEX: dict(enumerate(probs))})

    @property
    def n_rays(self) -> int:
        return len(self.edges)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(self.vertex_params[ORIGIN_VERTEX].values())

    @property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs)

    def origin(self) -> GraphPoint:
        return GraphPoint(edge=None, coord=0.0, vertex=ORIGIN_VERTEX)


def make_star(n: int, probs: Sequence[float]) -> StarGraph:
    """Validated star graph with n rays and the given ray weights."""
    return StarGraph(n, probs)


def distance(g: MetricGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Path distance between two points of g."""
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

    def __init__(self, g: MetricGraph,
                 edge_funcs: Sequence[tuple[Callable, Callable, Callable]],
                 vertex_overrides: dict[int, tuple[float | None, float | None]] | None = None):
        # vertex_overrides supplies closed-form vertex derivative values when
        # the constructor knows them exactly (weighted float sums carry dust)
        self.graph = g
        self.edge_funcs = list(edge_funcs)
        self.vertex_overrides = dict(vertex_overrides or {})
        if len(self.edge_funcs) != len(g.edges):
            raise ValueError("one (h, h', h'') triple per edge required")
        self._check_continuity()

    def _incident_limits(self, v: int):
        """(weight, h, h', h'', endpoint coord, outgoing flag) per incident edge."""
        g = self.graph
        for e in g.incident(v):
            h, dh, d2h = self.edge_funcs[e.id]
            p = g.vertex_params[v][e.id]
            if e.src == v:
                yield p, h, dh, d2h, 0.0, True
            else:
                yield p, h, dh, d2h, e.length, False

    def _check_continuity(self):
        for v in self.graph.vertices:
            vals = [h(r0) for (_, h, _, _, r0, _) in self._incident_limits(v)]
            if max(vals) - min(vals) > CONTINUITY_TOL:
                raise ValueError(f"discontinuous at vertex {v}: {vals}")

    def vertex_value(self, v: int) -> float:
        vals = [h(r0) for (_, h, _, _, r0, _) in self._incident_limits(v)]
        return vals[0]

    def _weighted_sum(self, which: int, v: int) -> float:
        """Weighted one-sided derivative (which 1) or second derivative
        (which 2) at vertex v, unless an override gives it."""
        ov = self.vertex_overrides.get(v)
        if ov is not None and ov[which - 1] is not None:
            return ov[which - 1]
        s = 0.0
        for (p, *funcs, r0, outgoing) in self._incident_limits(v):
            s += p * funcs[which](r0) if outgoing else -p * funcs[which](r0)
        return s

    def vertex_derivative(self, v: int) -> float:
        return self._weighted_sum(1, v)

    def vertex_second_derivative(self, v: int) -> float:
        return self._weighted_sum(2, v)

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
        return all(abs(self.vertex_derivative(v)) <= tol for v in self.graph.vertices)

    # vectorized evaluation over (edge, coord) arrays; vertex rows use the
    # weighted conventions. ``part`` is a partition of this batch from
    # MetricGraph.partition, built here when not given.
    def _eval_arrays(self, which: int, edges, coords,
                     part: EdgePartition | None = None) -> np.ndarray:
        g = self.graph
        if part is None:
            part = g.partition(edges, coords)
        elif part.shape != np.shape(coords):
            raise ValueError(f"partition built for shape {part.shape}, "
                             f"batch has shape {np.shape(coords)}")
        out = np.empty(part.shape)
        flat = out.reshape(-1)
        for funcs, rows, c in zip(self.edge_funcs, part.edge_rows, part.edge_coords):
            if rows.size:
                flat[rows] = funcs[which](c)
        if part.vertex_rows.size:
            at = (self.vertex_value, self.vertex_derivative,
                  self.vertex_second_derivative)[which]
            flat[part.vertex_rows] = np.array([at(v) for v in g.vertices])[part.vertex_index]
        return out

    # the batch is (edge ids, coords); the parameters keep their star-graph
    # names, under which callers and perfbench/tracer.py may pass them
    def value_arrays(self, rays, radials, part: EdgePartition | None = None):
        return self._eval_arrays(0, rays, radials, part)

    def derivative_arrays(self, rays, radials, part: EdgePartition | None = None):
        return self._eval_arrays(1, rays, radials, part)

    def second_derivative_arrays(self, rays, radials, part: EdgePartition | None = None):
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
    if not isinstance(d, dict):
        raise ValueError(f"graph description must be a JSON object, not {type(d).__name__}")
    try:
        edges = [
            Edge(id=int(e["id"]), src=int(e["from"]),
                 dst=None if e["to"] == "inf" else int(e["to"]),
                 length=math.inf if e["length"] == "inf" else float(e["length"]))
            for e in d["edges"]
        ]
        params = {int(v): {int(i): float(p) for i, p in m.items()}
                  for v, m in d["params"].items()}
        vertices = [int(v) for v in d["vertices"]]
    except KeyError as err:
        raise ValueError(f"graph description has no key {err}") from None
    except (TypeError, AttributeError) as err:
        raise ValueError(f"malformed graph description: {err}") from None
    return MetricGraph(vertices=vertices, edges=edges, vertex_params=params)


def save_graph(g: MetricGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(metric_graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path) as fh:
        return metric_graph_from_dict(json.load(fh))
