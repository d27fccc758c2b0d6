import math

import numpy as np
import pytest
from scipy.special import erf

from starflow.graphs import Edge, GraphPoint, MetricGraph
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
        col = sol.edge_ids.index(edge)
        np.testing.assert_allclose(sol.coords[quiet] - coord, sol.W[quiet, col],
                                   rtol=0, atol=1e-12)

    def test_counts_on_the_short_edge(self):
        # 6 sqrt(dt) = 0.6 exceeds the 0.25 edge, so steps near it halve
        g = short_edge_tree()
        sol = metric_isde_forward(g, vertex(0), 1.0, 1e-2, RngStream(8), 500)
        assert sol.halvings > 0 and sol.floor_hits == 0 and sol.clamps == 0
        assert sol.n_steps > 100 and sol.path_steps > 500 * 100
        assert sol.touches.sum() > 0

    def test_fixed_grid_without_short_edges(self, star_run):
        assert star_run.halvings == 0
        assert star_run.n_steps == 1000
        assert star_run.path_steps == 1000 * star_run.n


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
