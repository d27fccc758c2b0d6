import math

import numpy as np
import pytest
from scipy.special import erf, ndtr
from scipy.stats import chi2_contingency

from starflow import metric
from starflow.graphs import (
    DomainFunction, Edge, GraphPoint, MetricGraph, distances, make_star,
    per_ray_quadratic,
)
from starflow.halfline import RngStream
from starflow.metric import CLAMP_SIGMAS, FLOOR_H, MAX_BLOCK, T_SLACK, metric_isde_forward
from starflow.stats import ks_against_cdf, ks_two_sample
from starflow.walsh import _coupled_step, _start_state

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


class _Source:
    """Stands in for an RngStream whose generator is gen."""

    def __init__(self, gen):
        self.gen = gen

    def generator(self):
        return self.gen


class _Counting:
    """A generator that counts the normals and uniforms it hands out."""

    def __init__(self, gen):
        self.gen, self.normals, self.uniforms = gen, 0, 0

    def standard_normal(self, size):
        out = self.gen.standard_normal(size)
        self.normals += out.size
        return out

    def random(self, size):
        out = self.gen.random(size)
        self.uniforms += out.size
        return out


class _Constant:
    """A generator whose every normal is z and every uniform u: the path
    does not depend on which normal a step reads."""

    def __init__(self, z, u):
        self.z, self.u = z, u

    def standard_normal(self, size):
        return np.full(size, self.z)

    def random(self, size):
        return np.full(size, self.u)


def _per_step_walker(g, x0, T, dt, gen, n):
    """The walker before blocks: one batch step per loop pass, a normal
    for every edge at every step (the driving edge's moves the path). A
    frozen copy, the reference for the law and the counts of the blocked
    walker; returns (edges, coords, touches, counts)."""
    vmin = np.array([g.edge_length[list(p)].min() for p in g.vertex_params.values()])
    n_e = len(g.edges)
    e, c = _start_state(g, x0, n, gen)
    t = np.zeros(n)
    touches = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)
    out_e, out_c = np.empty(n, dtype=np.int64), np.empty(n)
    out_touch = np.empty(n, dtype=np.int64)
    steps = path_steps = halvings = floor_hits = clamps = 0
    while ids.size:
        steps += 1
        m = ids.size
        path_steps += m
        rows = np.arange(m)
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
                lb[hit] = np.inf
            h[big] = hb
        dw = np.sqrt(h)[:, None] * gen.standard_normal((m, n_e))
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
            out_e[k], out_c[k], out_touch[k] = e[done], c[done], touches[done]
            keep = ~done
            ids, e, c, t, touches = ids[keep], e[keep], c[keep], t[keep], touches[keep]
    counts = dict(n_steps=steps, path_steps=path_steps, halvings=halvings,
                  floor_hits=floor_hits, clamps=clamps)
    return out_e, out_c, out_touch, counts


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
        # an exact account of the draws: the normals the solution reports
        # (one per path-step, the queues' remainder and n * n_edges for the
        # undriven noise), one uniform per vertex touch and n for the
        # starting edges; a coin for every row, or every edge's normal at
        # every step, would cost 2 or n_edges words per path-step
        g = short_edge_tree()
        gen = _Counting(RngStream(8).generator())
        sol = metric_isde_forward(g, vertex(0), 1.0, 1e-2, _Source(gen), 500)
        assert gen.normals == sol.normals
        assert gen.uniforms == sol.touches.sum() + sol.n
        assert 0 <= sol.normals - sol.path_steps - sol.n * len(g.edges) <= sol.n * MAX_BLOCK
        # a standard normal reads one 64-bit word, or more on a ziggurat
        # rejection (about 2 % of draws)
        words = philox_words()
        assert gen.normals + gen.uniforms <= words <= 1.05 * gen.normals + gen.uniforms
        assert words / sol.path_steps < 1.5

    def test_fixed_grid_without_short_edges(self, star_run):
        assert star_run.halvings == 0
        assert star_run.n_steps == 1000
        assert star_run.path_steps == 1000 * star_run.n


class TestBlocks:
    """With every normal equal to z and every uniform to u a path does not
    depend on which normal a step reads, so the blocked walker must take
    the per-step walker's steps exactly, for any block length: the same
    counts, touches and terminal edge, and the coordinate to 1e-12."""

    @pytest.mark.parametrize("z, u, x0, T, dt", [
        # bounces at vertex 1 on the short edge, halving near both ends
        (0.7, 0.1, vertex(0), 1.0, 1e-2),
        # crosses every halving band of the short edge, then out on ray 3
        (0.05, 0.5, GraphPoint(edge=0, coord=0.01), 1.0, 1e-3),
        # 9-sigma steps clamp at the far vertex
        (-9.0, 0.1, GraphPoint(edge=1, coord=0.5), 1.0, 1e-3),
        # a horizon off the grid
        (1.0, 0.5, vertex(1), 0.37, 1e-2),
    ])
    @pytest.mark.parametrize("max_block", [1, 3, MAX_BLOCK])
    def test_same_steps_as_the_per_step_walker(self, monkeypatch, max_block, z, u, x0, T, dt):
        monkeypatch.setattr(metric, "MAX_BLOCK", max_block)
        g = short_edge_tree()
        sol = metric_isde_forward(g, x0, T, dt, _Source(_Constant(z, u)), 1)
        edges, coords, touches, counts = _per_step_walker(g, x0, T, dt, _Constant(z, u), 1)
        assert {k: getattr(sol, k) for k in counts} == counts
        assert sol.edges[0] == edges[0] and sol.touches[0] == touches[0]
        assert abs(sol.coords[0] - coords[0]) <= 1e-12 * max(1.0, coords[0])
        assert counts["halvings"] > 0 and sol.blocks <= sol.path_steps

    @pytest.mark.parametrize("T", [0.01, 0.1])
    def test_every_step_in_the_halving_band_is_a_quarter_step(self, T):
        # at the middle of the short edge the room is 0.125, so from dt =
        # 1e-3 the rule halves twice (6 sqrt(dt / 2) = 0.134 >= 0.125 >
        # 6 sqrt(dt / 4) = 0.095). With every normal 0 no path moves, so the
        # 4N - 3 steps that start with dt left on the clock are dt / 4, and
        # the last 3 dt / 4 go as 3.75e-4 (halved once from 7.5e-4) and
        # 3.75e-4 (not halved)
        g, dt, n = short_edge_tree(), 1e-3, 7
        sol = metric_isde_forward(g, GraphPoint(edge=0, coord=0.125), T, dt,
                                  _Source(_Constant(0.0, 0.5)), n)
        N = round(T / dt)
        assert sol.n_steps == 4 * N - 1 and sol.path_steps == n * sol.n_steps
        assert sol.halvings == n * (2 * (4 * N - 3) + 1)
        assert np.all(sol.coords == 0.125) and np.all(sol.edges == 0)
        # the rows run their quarter steps in blocks of up to MAX_BLOCK
        assert sol.blocks <= (4 * N - 3) // MAX_BLOCK + 3

    def test_huge_radial(self):
        # a radial of 1e300 squares past the float range; the 6-sigma test
        # compares 6 sqrt(h) with the room instead
        g = short_edge_tree()
        sol = metric_isde_forward(g, GraphPoint(edge=3, coord=1e300), 1.0, 1e-3,
                                  RngStream(12), 20)
        assert sol.halvings == 0 and sol.floor_hits == 0 and sol.clamps == 0
        assert np.all(sol.touches == 0) and np.all(sol.edges == 3)
        assert np.all(sol.coords == 1e300)
        assert sol.n_steps == 1000


def _law_pvalues(x0, T, dt, seed, n=4000):
    """p-values of the blocked walker against the per-step walker, n paths
    each from x0: terminal edges (chi-squared on the 2 x edges table),
    terminal distance and touches (two-sample KS)."""
    g = short_edge_tree()
    sol = metric_isde_forward(g, x0, T, dt, RngStream(seed, (0,)), n)
    edges, coords, touches, _ = _per_step_walker(g, x0, T, dt,
                                                 RngStream(seed, (1,)).generator(), n)
    table = np.array([np.bincount(sol.edges, minlength=5), np.bincount(edges, minlength=5)])
    return (chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue,
            ks_two_sample(distances(g, x0, sol.edges, sol.coords),
                          distances(g, x0, edges, coords)).p_value,
            ks_two_sample(sol.touches, touches).p_value)


def _brownian_pvalues(seed, n=4000, T=1.0):
    """KS p-values of W_e(T) / sqrt(T) against N(0, 1), one per edge, and
    the largest |correlation| * sqrt(n) over the pairs of edges."""
    sol = metric_isde_forward(short_edge_tree(), vertex(0), T, 1e-2, RngStream(seed), n)
    ks = [ks_against_cdf(sol.W[:, e] / math.sqrt(T), ndtr).p_value for e in range(5)]
    r = np.corrcoef(sol.W.T)[np.triu_indices(5, 1)]
    return ks, float(np.max(np.abs(r)) * math.sqrt(n))


class TestLawAgainstPerStepWalker:
    """Blocks, the per-row queues and the undriven noise drawn at the end
    leave the law of the per-step walker. Six two-sample tests (three at
    each start) and five KS tests of W pass at p > 1e-3, and the ten
    correlations of W within 4 / sqrt(n) (two-sided 6.3e-5 each), so by
    Bonferroni at most 6e-3 + 5e-3 + 6.3e-4 = 1.2 % of seeds fail. Over
    seeds 0-19 every one passed; the smallest p-values were 0.018 (from
    vertex 0), 0.0081 (from edge 0) and 0.0076 (W), and the largest
    |correlation| 2.7 / sqrt(n)."""

    @pytest.mark.parametrize("x0, T, dt", [
        (vertex(0), 1.0, 1e-2),                       # halving near the short edge
        (GraphPoint(edge=0, coord=0.1), 0.5, 1e-3),
    ])
    def test_terminal_law(self, x0, T, dt):
        assert min(_law_pvalues(x0, T, dt, seed=3)) > 1e-3

    def test_w_is_a_brownian_family(self):
        ks, r = _brownian_pvalues(seed=3)
        assert min(ks) > 1e-3
        assert r < 4.0


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
    graph: same vertex rows, evaluations, distances and walker output."""

    RAYS = np.array([0, 1, 2, 0, 2, 1, 0, 2])
    RADS = np.array([1.0, 2.0, 0.5, 0.0, 3.25, 0.0, 1e-9, 7.5])

    def pair(self):
        return make_star(3, STAR_WEIGHTS), star_as_metric_graph()

    def test_same_partition(self):
        # a vertex rule that no ray takes marks the rows at the vertex; on
        # either graph they are rows 3 and 5, and every other row takes its
        # own ray's quadratic at its own radial
        coeffs = [(0.5, 0.5, 0.3), (0.75, -0.5, 0.3), (1.0, 0.25, 0.3)]
        for g in self.pair():
            f = DomainFunction(g, coeffs, vertex_overrides={0: (-9.0, -7.0)})
            off = np.flatnonzero(self.RADS > 0.0)
            for which, mark, arrays in ((1, -9.0, f.derivative_arrays),
                                        (2, -7.0, f.second_derivative_arrays)):
                out = arrays(self.RAYS, self.RADS)
                np.testing.assert_array_equal(np.flatnonzero(out == mark), [3, 5])
                np.testing.assert_array_equal(
                    out[off], [f.edge_eval(which, e, r) for e, r in zip(self.RAYS[off],
                                                                         self.RADS[off])])

    def test_same_evaluations(self):
        star, hand = self.pair()
        f = per_ray_quadratic(star, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25], const=0.3)
        h = DomainFunction(hand, f.coeffs)
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
            for e, c in pts:
                assert distances(star, star.point(*x), [e], [c])[0] == \
                    distances(hand, hand.point(*x), [e], [c])[0]

    @pytest.mark.parametrize("x0", [vertex(0), GraphPoint(edge=2, coord=0.3)])
    def test_walker_bit_identical(self, x0):
        a, b = (metric_isde_forward(g, x0, 0.5, 1e-2, RngStream(9), 200) for g in self.pair())
        for name in ("edges", "coords", "W", "touches"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in ("n_steps", "path_steps", "halvings", "floor_hits", "clamps"):
            assert getattr(a, name) == getattr(b, name), name


class TestArrayEvaluationOnATree:
    """On the 0.25-edge tree, array evaluation equals pointwise evaluation
    at interior rows, at both ends of the finite edge and on the rays."""

    EDGES = np.array([0, 0, 0, 1, 2, 3, 4, 0, 3, 1, 4])
    COORDS = np.array([0.0, 0.1, 0.25, 0.7, 0.0, 1.2, 0.0, 0.2499, 2.0, 0.0, 0.5])

    def function(self):
        # quadratic on every edge; edge 0 takes the value 1 at vertex 0 to
        # 1.5/16 - 0.5/4 + 1 = 0.96875 at vertex 1, both exact in binary
        at_1 = 0.96875
        rows = [(1.5, -0.5, 1.0), (0.5, 0.25, 1.0), (-0.75, 1.0, 1.0),
                (0.25, -1.0, at_1), (1.0, 0.5, at_1)]
        return DomainFunction(short_edge_tree(), rows)

    def test_partition_finds_both_ends(self):
        # vertex rules that no edge takes mark the rows at each vertex: both
        # ends of the finite edge 0, and coord 0 of the rays at either vertex
        f = DomainFunction(short_edge_tree(), self.function().coeffs,
                           vertex_overrides={0: (-9.0, None), 1: (-7.0, None)})
        d = f.derivative_arrays(self.EDGES, self.COORDS)
        np.testing.assert_array_equal(np.flatnonzero(d == -9.0), [0, 4, 9])
        np.testing.assert_array_equal(np.flatnonzero(d == -7.0), [2, 6])
        np.testing.assert_array_equal(d[[1, 7]], f.edge_eval(1, 0, np.array([0.1, 0.2499])))

    def test_matches_pointwise(self, pointwise):
        f = self.function()
        g = f.graph
        pts = [g.point(int(e), float(c)) for e, c in zip(self.EDGES, self.COORDS)]
        assert pts[2] == pts[6] == vertex(1)
        for which, arrays in enumerate((f.value_arrays, f.derivative_arrays,
                                        f.second_derivative_arrays)):
            expected = np.array([pointwise(f, which, x) for x in pts])
            np.testing.assert_array_equal(arrays(self.EDGES, self.COORDS), expected)
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

    @pytest.mark.parametrize("x0", [GraphPoint(edge=0, coord=5.0),    # past the 0.25 edge
                                    GraphPoint(edge=0, coord=0.25),   # its end is vertex 1
                                    GraphPoint(edge=5, coord=1.0),    # the tree has 5 edges
                                    vertex(2)])
    def test_start_off_the_graph_raises_before_any_draw(self, x0, philox_words):
        with pytest.raises(ValueError):
            metric_isde_forward(short_edge_tree(), x0, 1.0, 1e-2, RngStream(1), 4)
        assert philox_words() == 0

    def test_off_grid_horizon_runs_to_T(self):
        # no whole number of steps is needed: the last step is shortened
        sol = metric_isde_forward(star_as_metric_graph(), vertex(0), 0.1, 0.03,
                                  RngStream(2), 10)
        assert sol.n_steps == 4
        sol = metric_isde_forward(star_as_metric_graph(), vertex(0), 0.1, 0.1,
                                  RngStream(2), 10)
        assert sol.n_steps == 1
