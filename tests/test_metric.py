import math

import numpy as np
import pytest
from scipy.special import erf

from starflow.graphs import (
    DomainFunction, Edge, GraphPoint, MetricGraph, distance, make_star, per_ray_quadratic,
)
from starflow.halfline import RngStream
from starflow.metric import metric_isde_forward
from starflow.stats import ks_against_cdf

STAR_WEIGHTS = (0.2, 0.5, 0.3)


def star_as_metric_graph():
    """Three infinite rays at one vertex: Walsh Brownian motion written as
    a metric graph."""
    edges = [Edge(id=i, src=0, dst=None, length=math.inf) for i in range(3)]
    return MetricGraph(vertices=[0], edges=edges,
                       vertex_params={0: dict(enumerate(STAR_WEIGHTS))})


def short_edge_tree():
    """Vertices 0 and 1 joined by an edge of length 0.25, two rays at each."""
    edges = [
        Edge(id=0, src=0, dst=1, length=0.25),
        Edge(id=1, src=0, dst=None, length=math.inf),
        Edge(id=2, src=0, dst=None, length=math.inf),
        Edge(id=3, src=1, dst=None, length=math.inf),
        Edge(id=4, src=1, dst=None, length=math.inf),
    ]
    params = {0: {0: 0.2, 1: 0.5, 2: 0.3}, 1: {0: 0.45, 3: 0.35, 4: 0.2}}
    return MetricGraph(vertices=[0, 1], edges=edges, vertex_params=params)


def vertex(v):
    return GraphPoint(edge=None, coord=0.0, vertex=v)


@pytest.fixture(scope="module")
def star_run():
    g = star_as_metric_graph()
    return metric_isde_forward(g, vertex(0), 1.0, 1e-3, RngStream(31), 20000)


class TestBatchEngine:
    def test_same_seed_is_bit_identical(self):
        g = short_edge_tree()
        a = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(5), 300)
        b = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(5), 300)
        for name in ("edges", "coords", "W", "touches"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for name in ("n_steps", "path_steps", "halvings", "floor_hits", "clamps"):
            assert getattr(a, name) == getattr(b, name), name
        c = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(6), 300)
        assert not np.array_equal(a.coords, c.coords)

    # the middle of the short edge (anchored at either end) and a ray
    @pytest.mark.parametrize("edge, coord, T, dt", [(0, 0.125, 0.01, 1e-4),
                                                    (3, 1.5, 1.0, 1e-3)])
    def test_untouched_paths_follow_their_edge_noise(self, edge, coord, T, dt):
        g = short_edge_tree()
        sol = metric_isde_forward(g, GraphPoint(edge=edge, coord=coord), T, dt,
                                  RngStream(7), 2000)
        assert sol.clamps == 0
        quiet = sol.touches == 0
        # both kinds of path occur, so the identity is not checked on nothing
        assert 100 < quiet.sum() < sol.n - 100
        assert np.all(sol.edges[quiet] == edge)
        np.testing.assert_allclose(sol.coords[quiet] - coord, sol.W[quiet, edge],
                                   rtol=0, atol=1e-12)

    def test_counts_on_the_short_edge(self):
        # 6 sqrt(dt) = 0.6 exceeds the 0.25 edge, so steps near it halve
        g = short_edge_tree()
        sol = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(8), 500)
        assert sol.halvings > 0 and sol.floor_hits == 0 and sol.clamps == 0
        assert sol.n_steps > 100 and sol.path_steps > 500 * 100
        assert sol.touches.sum() > 0

    def test_draws_a_coin_only_for_crossing_rows(self, philox_words):
        # n_edges normals per path-step, plus one uniform per vertex touch
        # (and n for the starting edges); a coin for every row would cost
        # n_edges + 1 words per path-step
        g = short_edge_tree()
        sol = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(8), 500)
        words = philox_words()
        assert words >= len(g.edges) * sol.path_steps + sol.touches.sum() + sol.n
        assert words / sol.path_steps < len(g.edges) + 0.5

    def test_fixed_grid_without_short_edges(self, star_run):
        assert star_run.halvings == 0
        assert star_run.n_steps == 1000
        assert star_run.path_steps == 1000 * star_run.n


class TestWeightTable:
    """draw_edges draws what searchsorted on the running sums of a vertex's
    weights draws, for every uniform up to the last partial sum."""

    def cases(self):
        u = np.random.default_rng(0).random(4000)
        for g in (make_star(3, STAR_WEIGHTS), short_edge_tree()):
            for i, params in enumerate(g.vertex_params.values()):
                cum = np.cumsum(list(params.values()))
                # the cuts themselves, where searchsorted takes the lower edge
                at = np.concatenate([u[u <= cum[-1]], cum])
                yield g, i, at, np.array(list(params))[np.searchsorted(cum, at)]

    def test_one_vertex(self):
        for g, i, u, want in self.cases():
            np.testing.assert_array_equal(g.draw_edges(i, u), want)
            assert g.draw_edges(i, float(u[0])) == want[0]

    def test_one_vertex_per_row(self):
        for g, i, u, want in self.cases():
            np.testing.assert_array_equal(g.draw_edges(np.full(u.size, i), u), want)
        # rows at both vertices of the tree in one call, against the scalar form
        g = short_edge_tree()
        rng = np.random.default_rng(1)
        v, u = rng.integers(0, 2, 2000), rng.random(2000)
        want = [g.draw_edges(int(a), float(b)) for a, b in zip(v, u)]
        np.testing.assert_array_equal(g.draw_edges(v, u), want)

    def test_past_the_last_partial_sum(self):
        # the last cut is inf, so rounding in the sums cannot draw past
        # the last edge of a vertex
        g = short_edge_tree()
        assert np.all(np.isinf(g.vertex_cum[:, -1]))
        for i, params in enumerate(g.vertex_params.values()):
            last = list(params)[-1]
            assert g.draw_edges(i, 1.0) == last
            np.testing.assert_array_equal(g.draw_edges(np.full(2, i), np.ones(2)), [last] * 2)


class TestStarIsTheOneVertexGraph:
    """make_star and the star written by hand as a metric graph are the same
    graph: same partitions, evaluations, distances and walker output."""

    RAYS = np.array([0, 1, 2, 0, 2, 1, 0, 2])
    RADS = np.array([1.0, 2.0, 0.5, 0.0, 3.25, 0.0, 1e-9, 7.5])

    def pair(self):
        return make_star(3, STAR_WEIGHTS), star_as_metric_graph()

    def test_same_partition(self):
        a, b = (g.partition(self.RAYS, self.RADS) for g in self.pair())
        assert a.shape == b.shape
        for name in ("vertex_rows", "vertex_index"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in ("edge_rows", "edge_coords"):
            assert len(getattr(a, name)) == len(getattr(b, name)) == 3
            for x, y in zip(getattr(a, name), getattr(b, name)):
                np.testing.assert_array_equal(x, y)

    def test_same_evaluations(self):
        star, hand = self.pair()
        f = per_ray_quadratic(star, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25], const=0.3)
        h = DomainFunction(hand, f.edge_funcs)
        for name in ("value_arrays", "derivative_arrays", "second_derivative_arrays"):
            np.testing.assert_array_equal(getattr(f, name)(self.RAYS, self.RADS),
                                          getattr(h, name)(self.RAYS, self.RADS))
        assert f.vertex_derivative(0) == h.vertex_derivative(0)
        assert f.vertex_second_derivative(0) == h.vertex_second_derivative(0)

    def test_same_distances(self):
        star, hand = self.pair()
        pts = list(zip(self.RAYS.tolist(), self.RADS.tolist()))
        for x in pts:
            assert star.point(*x) == hand.point(*x)
            for y in pts:
                assert distance(star, star.point(*x), star.point(*y)) == \
                    distance(hand, hand.point(*x), hand.point(*y))

    @pytest.mark.parametrize("x0", [vertex(0), GraphPoint(edge=2, coord=0.3)])
    def test_walker_bit_identical(self, x0):
        a, b = (metric_isde_forward(g, x0, 0.5, 1e-2, RngStream(9), 200) for g in self.pair())
        for name in ("edges", "coords", "W", "touches"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in ("n_steps", "path_steps", "halvings", "floor_hits", "clamps"):
            assert getattr(a, name) == getattr(b, name), name


def _quadratic(a, b, c):
    return (lambda r: a * r * r + b * r + c,
            lambda r: 2.0 * a * r + b,
            lambda r: 2.0 * a + 0.0 * r)


class TestArrayEvaluationOnATree:
    """On the 0.25-edge tree, array evaluation equals pointwise evaluation
    at interior rows, at both ends of the finite edge and on the rays."""

    EDGES = np.array([0, 0, 0, 1, 2, 3, 4, 0, 3, 1, 4])
    COORDS = np.array([0.0, 0.1, 0.25, 0.7, 0.0, 1.2, 0.0, 0.2499, 2.0, 0.0, 0.5])

    def function(self):
        # quadratic on every edge; edge 0 takes the value 1 at vertex 0 to
        # 1.5/16 - 0.5/4 + 1 = 0.96875 at vertex 1, both exact in binary
        at_1 = 0.96875
        funcs = [_quadratic(1.5, -0.5, 1.0), _quadratic(0.5, 0.25, 1.0),
                 _quadratic(-0.75, 1.0, 1.0), _quadratic(0.25, -1.0, at_1),
                 _quadratic(1.0, 0.5, at_1)]
        return DomainFunction(short_edge_tree(), funcs)

    def test_partition_finds_both_ends(self):
        part = short_edge_tree().partition(self.EDGES, self.COORDS)
        np.testing.assert_array_equal(np.sort(part.vertex_rows), [0, 2, 4, 6, 9])
        at = dict(zip(part.vertex_rows.tolist(), part.vertex_index.tolist()))
        assert at == {0: 0, 2: 1, 4: 0, 6: 1, 9: 0}
        np.testing.assert_array_equal(part.edge_rows[0], [1, 7])
        np.testing.assert_array_equal(part.edge_coords[0], [0.1, 0.2499])

    def test_matches_pointwise(self):
        f = self.function()
        g = f.graph
        pts = [g.point(int(e), float(c)) for e, c in zip(self.EDGES, self.COORDS)]
        assert pts[2] == pts[6] == vertex(1)
        part = g.partition(self.EDGES, self.COORDS)
        for arrays, point in ((f.value_arrays, f.value),
                              (f.derivative_arrays, f.derivative),
                              (f.second_derivative_arrays, f.second_derivative)):
            expected = np.array([point(x) for x in pts])
            np.testing.assert_array_equal(arrays(self.EDGES, self.COORDS), expected)
            np.testing.assert_array_equal(arrays(self.EDGES, self.COORDS, part=part), expected)
        out = f.value_arrays(self.EDGES[:10].reshape(2, 5), self.COORDS[:10].reshape(2, 5))
        assert out.shape == (2, 5)

    @pytest.mark.parametrize("edges, coords", [
        ([0, 5], [0.1, 1.0]),             # no edge 5
        ([0, 1], [0.3, 1.0]),             # past the far end of edge 0
        ([0, 1], [0.1, -1.0]),
        ([3, 1], [math.inf, 1.0]),        # a ray has no far end
        ([0, 1], [math.nan, 1.0]),
        ([0.0, 1.0], [0.1, 1.0]),         # edge ids must be integers
    ])
    def test_bad_batch_rejected(self, edges, coords):
        with pytest.raises(ValueError):
            self.function().value_arrays(np.array(edges), np.array(coords))


class TestStarAgreesWithWalsh:
    """From the vertex, Walsh Brownian motion at time T sits on ray i with
    probability p_i, at a distance distributed as |N(0, T)|."""

    def test_edge_frequencies_match_weights(self, star_run):
        n = star_run.n
        freq = np.bincount(star_run.edges, minlength=3) / n
        for i, p in enumerate(STAR_WEIGHTS):
            assert abs(freq[i] - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_distance_is_half_normal(self, star_run):
        ks = ks_against_cdf(star_run.coords, lambda r: erf(r / math.sqrt(2.0)))
        assert ks.p_value > 1e-3


class TestHorizon:
    @pytest.mark.parametrize("T, dt", [(1.0, 0.0), (1.0, -1e-3), (0.0, 1e-3),
                                       (-1.0, 1e-3), (1.0, math.nan), (math.inf, 1e-3)])
    def test_bad_horizon_raises(self, T, dt):
        with pytest.raises(ValueError):
            metric_isde_forward(short_edge_tree(), vertex(0), T, dt, RngStream(1), 4)

    def test_bad_path_count_raises(self):
        with pytest.raises(ValueError):
            metric_isde_forward(short_edge_tree(), vertex(0), 1.0, 1e-2, RngStream(1), 0)

    def test_off_grid_horizon_runs_to_T(self):
        # no whole number of steps is needed: the last step is shortened
        sol = metric_isde_forward(star_as_metric_graph(), vertex(0), 0.1, 0.03,
                                  RngStream(2), 10)
        assert sol.n_steps == 4
        sol = metric_isde_forward(star_as_metric_graph(), vertex(0), 0.1, 0.1,
                                  RngStream(2), 10)
        assert sol.n_steps == 1
