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
from typing import Sequence

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
    to-end (-1 for a ray) and its length (inf for a ray), and
    ``vertex_dist[i, j]`` holds the path distance between the vertices at
    positions i and j.

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
        self.vertex_dist = self._shortest_vertex_paths()

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

    def _shortest_vertex_paths(self) -> np.ndarray:
        """Floyd-Warshall over the vertex positions."""
        d = np.full((len(self.vertices),) * 2, math.inf)
        np.fill_diagonal(d, 0.0)
        for u, v, length in zip(self.edge_src, self.edge_dst, self.edge_length):
            if v >= 0:
                d[u, v] = d[v, u] = min(d[u, v], length)
        for k in range(len(self.vertices)):
            d = np.minimum(d, d[:, k, None] + d[k])
        return d

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


def distances(g: MetricGraph, x: GraphPoint, edges, coords) -> np.ndarray:
    """Path distances from x to a batch of points of g, given as (edges,
    coords) arrays; a coord of 0 or of its edge's length is the vertex at
    that end. Each is the least of: the gap along a common edge, when
    neither point is a vertex, and offset + vertex distance + offset, added
    in that order, over the ends each point can leave by (only the vertex
    itself for a point on one)."""
    edges = np.asarray(edges, dtype=np.int64)
    coords = np.asarray(coords, dtype=float)
    length, src, dst = g.edge_length[edges], g.edge_src[edges], g.edge_dst[edges]
    at_src, at_dst = coords == 0.0, coords == length
    best = np.full(coords.shape, math.inf)
    if not x.is_vertex:
        same = np.flatnonzero(~at_src & ~at_dst & (edges == x.edge))
        best[same] = np.abs(x.coord - coords[same])
    # an inf offset rules an end out: the far end of a point on a vertex, or no end
    ends = ((src, np.where(at_dst, math.inf, coords)),
            (dst, np.where(at_src | (dst < 0), math.inf, length - coords)))
    for u, du in g.endpoint_offsets(x):
        row = g.vertex_dist[g.vertices.index(u)]
        for v, dv in ends:
            best = np.minimum(best, du + row[v] + dv)
    return best


class DomainFunction:
    """Scalar function on a graph, a quadratic on each edge: row e of
    ``coeffs`` is (a, b, c) and h_e(r) = a r^2 + b r + c, with r measured
    from the edge's from-end. Every test function of the checks has this
    form, so the grid engine sums moments of r per path and edge instead
    of evaluating f' and f'' at every path-step. A batch of points is
    evaluated by one gather: each row takes its edge's (a, b, c) row and
    the same quadratic, and rows on a vertex then take the vertex rule.

    At a vertex the value is the common limit of the incident edges, c at
    a from-end and a L^2 + b L + c at a to-end, equal to CONTINUITY_TOL
    (else ValueError, as for coefficients that are not a finite
    (n_edges, 3) array). Derivatives there are weighted one-sided sums:
    f'(v) = sum over outgoing edges of p_e h_e'(0+) minus the sum over
    incoming edges of p_e h_e'(L_e-), and likewise f''. ``vertex_overrides``
    maps a vertex to exact (f'(v), f''(v)) values, None for the sum.
    """

    def __init__(self, g: MetricGraph, coeffs,
                 vertex_overrides: dict[int, tuple[float | None, float | None]] | None = None):
        self.graph = g
        self.coeffs = np.array(coeffs, dtype=float)
        if self.coeffs.shape != (len(g.edges), 3):
            raise ValueError(f"need one (a, b, c) row per edge, shape ({len(g.edges)}, 3), "
                             f"got {self.coeffs.shape}")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")
        self.coeffs.flags.writeable = False
        self.vertex_overrides = dict(vertex_overrides or {})
        self._check_continuity()

    def edge_eval(self, which: int, e, r):
        """h_e (which 0), h_e' (1) or h_e'' (2) at the coords r of edge e,
        or of edges e, an array of edge ids of r's shape."""
        a, b, c = self.coeffs.T   # one gather per coefficient read
        if which == 0:
            return a[e] * r * r + b[e] * r + c[e]
        return 2.0 * a[e] * r + b[e] if which == 1 else 2.0 * a[e] + 0.0 * r

    def _incident_limits(self, v: int):
        """(weight, edge id, coord of v) per incident edge; the coord is 0
        exactly on the edges leaving v."""
        for e in self.graph.incident(v):
            yield self.graph.vertex_params[v][e.id], e.id, 0.0 if e.src == v else e.length

    def _check_continuity(self):
        for v in self.graph.vertices:
            vals = [self.edge_eval(0, e, r0) for (_, e, r0) in self._incident_limits(v)]
            if max(vals) - min(vals) > CONTINUITY_TOL:
                raise ValueError(f"discontinuous at vertex {v}: {vals}")

    def vertex_value(self, v: int) -> float:
        _, e, r0 = next(self._incident_limits(v))
        return self.edge_eval(0, e, r0)

    def _weighted_sum(self, which: int, v: int) -> float:
        """Weighted one-sided derivative (which 1) or second derivative
        (which 2) at vertex v, unless an override gives it."""
        ov = self.vertex_overrides.get(v)
        if ov is not None and ov[which - 1] is not None:
            return ov[which - 1]
        s = 0.0
        for p, e, r0 in self._incident_limits(v):
            d = self.edge_eval(which, e, r0)
            s += p * d if r0 == 0.0 else -p * d
        return s

    def vertex_derivative(self, v: int) -> float:
        return self._weighted_sum(1, v)

    def vertex_second_derivative(self, v: int) -> float:
        return self._weighted_sum(2, v)

    def _eval_arrays(self, which: int, edges, coords) -> np.ndarray:
        """h, h' or h'' (which 0, 1, 2) at a batch of (edge id, coord)
        points, as one gather of the rows' coefficients; rows at coord 0 or
        at their edge's length then take the vertex rule at that end."""
        g = self.graph
        ids, coords = np.asarray(edges), np.asarray(coords, dtype=float)
        if ids.shape != coords.shape:
            raise ValueError(f"edges shape {ids.shape} != coords shape {coords.shape}")
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError("edge ids must be integers")
        ids = ids.astype(np.int64, copy=False)
        if ids.size and (ids.min() < 0 or ids.max() >= len(g.edges)):
            raise ValueError(f"edge ids must lie in [0, {len(g.edges)})")
        length = g.edge_length[ids]
        if not np.all((coords >= 0.0) & (coords <= length) & (coords < math.inf)):
            raise ValueError("coords must be finite and lie in [0, length] of their edge")
        out = np.asarray(self.edge_eval(which, ids, coords))
        at = (self.vertex_value, self.vertex_derivative, self.vertex_second_derivative)[which]
        vals = np.array([at(v) for v in g.vertices])
        for end, vertex in ((coords == 0.0, g.edge_src), (coords == length, g.edge_dst)):
            out[end] = vals[vertex[ids[end]]]
        return out

    # the batch is (edge ids, coords); the parameters keep their star-graph
    # names, under which callers and perfbench/tracer.py may pass them
    def value_arrays(self, rays, radials):
        return self._eval_arrays(0, rays, radials)

    def derivative_arrays(self, rays, radials):
        return self._eval_arrays(1, rays, radials)

    def second_derivative_arrays(self, rays, radials):
        return self._eval_arrays(2, rays, radials)


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
    slopes = [q if j == i else -p for j in range(g.n_rays)]
    f_i = DomainFunction(g, [(0.0, s, 0.0) for s in slopes],
                         vertex_overrides={ORIGIN_VERTEX: (0.0, 0.0)})
    g_i = DomainFunction(g, [(s * s, 0.0, 0.0) for s in slopes],
                         vertex_overrides={ORIGIN_VERTEX: (0.0, 2.0 * p * q)})
    return f_i, g_i


def per_ray_quadratic(g: StarGraph, quad: Sequence[float], lin: Sequence[float],
                      const: float = 0.0) -> DomainFunction:
    """h_i(r) = quad[i] r^2 + lin[i] r + const on each ray."""
    if len(quad) != g.n_rays or len(lin) != g.n_rays:
        raise ValueError("need one quadratic and one linear coefficient per ray")
    return DomainFunction(g, [(a, b, const) for a, b in zip(quad, lin)])


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
