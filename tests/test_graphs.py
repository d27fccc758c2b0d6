import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starflow import graphs
from starflow.graphs import (
    DomainFunction, Edge, GraphPoint, MetricGraph, canonical_test_functions,
    distance, load_graph, make_star, metric_graph_from_dict,
    metric_graph_to_dict, per_ray_quadratic, save_graph,
)


class TestMakeStar:
    def test_two_ray_half(self):
        g = make_star(2, [0.5, 0.5])
        assert g.n_rays == 2 and g.probs == (0.5, 0.5)

    def test_uniform_three(self):
        g = make_star(3, [1 / 3, 1 / 3, 1 / 3])
        assert abs(sum(g.probs) - 1) < 1e-12

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            make_star(2, [0.7, 0.2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_star(2, [1.2, -0.2])
        with pytest.raises(ValueError):
            make_star(2, [1.0, 0.0])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_star(3, [0.5, 0.5])

    def test_single_ray_allowed(self):
        g = make_star(1, [1.0])
        assert g.probs == (1.0,)


class TestGraphPoint:
    def test_zero_coord_canonicalizes(self):
        g = make_star(3, [0.2, 0.3, 0.5])
        assert g.point(0, 0.0) == g.point(2, 0.0) == g.origin()

    def test_interior_points_differ_across_rays(self):
        g = make_star(2, [0.5, 0.5])
        assert g.point(0, 1.0) != g.point(1, 1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GraphPoint(edge=1, coord=1.0, vertex=0)
        with pytest.raises(ValueError):
            GraphPoint(edge=1, coord=0.0)

    def test_metric_endpoints_are_vertices(self):
        g = _segment_graph()
        assert g.point(1, 0.0).vertex == 0
        assert g.point(1, 1.0).vertex == 1

    @pytest.mark.parametrize("edge, coord", [(3, 0.5), (-1, 0.5), (1, 1.5), (1, -0.1),
                                             (0, math.inf), (0, math.nan), (1, math.nan)])
    def test_bad_point_rejected(self, edge, coord):
        with pytest.raises(ValueError, match="unknown edge|outside"):
            _segment_graph().point(edge, coord)

    def test_star_ray_has_no_far_end(self):
        with pytest.raises(ValueError, match="outside"):
            make_star(2, [0.5, 0.5]).point(1, math.inf)


def _segment_graph() -> MetricGraph:
    # the real line with vertices at 0 and 1
    edges = [Edge(0, 0, None, math.inf), Edge(1, 0, 1, 1.0), Edge(2, 1, None, math.inf)]
    return MetricGraph([0, 1], edges,
                       {0: {0: 0.5, 1: 0.5}, 1: {1: 0.5, 2: 0.5}})


class TestDistance:
    def test_same_ray(self):
        g = make_star(3, [1 / 3, 1 / 3, 1 / 3])
        assert distance(g, g.point(0, 2.0), g.point(0, 5.0)) == 3.0

    def test_across_rays(self):
        g = make_star(3, [1 / 3, 1 / 3, 1 / 3])
        assert distance(g, g.point(0, 2.0), g.point(1, 3.0)) == 5.0

    def test_identity(self):
        g = make_star(2, [0.4, 0.6])
        x = g.point(1, 1.5)
        assert distance(g, x, x) == 0.0

    def test_metric_graph_paths(self):
        g = _segment_graph()
        # two sides of the finite edge
        assert distance(g, g.point(0, 0.5), g.point(2, 0.25)) == pytest.approx(1.75)
        assert distance(g, g.point(1, 0.25), g.point(1, 0.75)) == pytest.approx(0.5)
        # through-vertex path vs direct
        assert distance(g, g.point(0, 0.1), g.point(1, 0.2)) == pytest.approx(0.3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.floats(0, 8)), min_size=3, max_size=3))
    def test_metric_axioms_on_star(self, pts):
        g = make_star(3, [0.5, 0.3, 0.2])
        x, y, z = (g.point(r, c) for r, c in pts)
        dxy = distance(g, x, y)
        assert dxy == distance(g, y, x)
        assert dxy >= 0
        assert dxy <= distance(g, x, z) + distance(g, z, y) + 1e-12
        assert (dxy == 0) == (x == y)

    def test_parallel_edges(self):
        edges = [Edge(0, 0, 1, 1.0), Edge(1, 0, 1, 4.0)]
        g = MetricGraph([0, 1], edges, {0: {0: 0.5, 1: 0.5}, 1: {0: 0.5, 1: 0.5}})
        # around through the short edge beats going along the long one
        assert distance(g, g.point(1, 0.5), g.point(1, 3.9)) == pytest.approx(1.6)


class TestMetricGraphValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge(0, 0, 0, 1.0)

    def test_disconnected_rejected(self):
        edges = [Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0)]
        params = {0: {0: 1.0}, 1: {0: 1.0}, 2: {1: 1.0}, 3: {1: 1.0}}
        with pytest.raises(ValueError):
            MetricGraph([0, 1, 2, 3], edges, params)

    def test_vertex_weights_must_sum(self):
        edges = [Edge(0, 0, None, math.inf), Edge(1, 0, 1, 1.0), Edge(2, 1, None, math.inf)]
        with pytest.raises(ValueError):
            MetricGraph([0, 1], edges, {0: {0: 0.6, 1: 0.5}, 1: {1: 0.5, 2: 0.5}})


class TestSkewDerivative:
    def test_linear_everywhere(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f = per_ray_quadratic(g, [0, 0, 0], [1, 1, 1])
        assert f.vertex_derivative(0) == pytest.approx(1.0)

    def test_quadratic_vanishes(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f = per_ray_quadratic(g, [1, 1, 1], [0, 0, 0])
        assert f.vertex_derivative(0) == 0.0

    def test_canonical_is_in_domain(self):
        for probs in ([0.5, 0.5], [0.7, 0.3], [0.2, 0.3, 0.5]):
            g = make_star(len(probs), probs)
            for i in range(g.n_rays):
                f_i, g_i = canonical_test_functions(g, i)
                assert f_i.vertex_derivative(0) == 0.0
                assert f_i.in_domain() and g_i.in_domain()

    def test_discontinuous_rejected(self):
        g = make_star(2, [0.5, 0.5])
        funcs = [(lambda r: r, lambda r: 1 + 0 * r, lambda r: 0 * r),
                 (lambda r: r + 1.0, lambda r: 1 + 0 * r, lambda r: 0 * r)]
        with pytest.raises(ValueError):
            DomainFunction(g, funcs)


class TestCanonicalFunctions:
    def test_values_on_own_ray(self):
        g = make_star(2, [0.5, 0.5])
        f1, _ = canonical_test_functions(g, 0)
        assert f1.value(g.point(0, 2.0)) == pytest.approx(1.0)

    def test_values_off_ray(self):
        g = make_star(2, [0.3, 0.7])
        f1, _ = canonical_test_functions(g, 0)
        assert f1.value(g.point(1, 3.0)) == pytest.approx(-0.9)

    def test_second_derivative_convention(self):
        g = make_star(2, [0.3, 0.7])
        _, g1 = canonical_test_functions(g, 0)
        assert g1.vertex_second_derivative(0) == pytest.approx(0.42)
        f1, _ = canonical_test_functions(g, 0)
        assert f1.second_derivative(g.point(0, 1.0)) == 0.0

    def test_array_evaluation_matches_pointwise(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 1)
        rays = np.array([0, 1, 2, 0])
        rads = np.array([1.0, 2.0, 0.5, 0.0])
        vals = f1.value_arrays(rays, rads)
        for k in range(4):
            pt = g.point(int(rays[k]), float(rads[k]))
            assert vals[k] == pytest.approx(f1.value(pt))
        assert g1.derivative_arrays(rays, rads)[3] == 0.0


class TestArrayEvaluation:
    """Array evaluation on (rays, radials) batches, through the shared
    partition or without one, against pointwise evaluation."""

    G = make_star(3, [0.5, 0.3, 0.2])
    RAYS = np.array([0, 1, 2, 0, 2, 1, 0, 2, 1])
    RADS = np.array([1.0, 2.0, 0.5, 0.0, 3.25, 0.0, 1e-9, 0.0, 7.5])

    def functions(self):
        f1, g1 = canonical_test_functions(self.G, 1)
        quad = per_ray_quadratic(self.G, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25], const=0.3)
        return f1, g1, quad

    def test_matches_pointwise_with_and_without_partition(self):
        part = self.G.partition(self.RAYS, self.RADS)
        pts = [self.G.point(int(i), float(r)) for i, r in zip(self.RAYS, self.RADS)]
        for f in self.functions():
            for arrays, point in ((f.value_arrays, f.value),
                                  (f.derivative_arrays, f.derivative),
                                  (f.second_derivative_arrays, f.second_derivative)):
                expected = np.array([point(x) for x in pts])
                np.testing.assert_array_equal(arrays(self.RAYS, self.RADS), expected)
                np.testing.assert_array_equal(
                    arrays(self.RAYS, self.RADS, part=part), expected)

    def test_partition_groups(self):
        part = self.G.partition(self.RAYS, self.RADS)
        np.testing.assert_array_equal(part.vertex_rows, [3, 5, 7])
        np.testing.assert_array_equal(part.vertex_index, [0, 0, 0])
        np.testing.assert_array_equal(part.edge_rows[0], [0, 6])
        np.testing.assert_array_equal(part.edge_rows[1], [1, 8])
        np.testing.assert_array_equal(part.edge_rows[2], [2, 4])
        for rows, rads in zip(part.edge_rows, part.edge_coords):
            np.testing.assert_array_equal(rads, self.RADS[rows])

    def test_batch_shape_kept(self):
        f1, _, quad = self.functions()
        rays, rads = self.RAYS[:8].reshape(2, 4), self.RADS[:8].reshape(2, 4)
        for f in (f1, quad):
            out = f.value_arrays(rays, rads)
            assert out.shape == (2, 4)
            np.testing.assert_array_equal(
                out.ravel(), f.value_arrays(self.RAYS[:8], self.RADS[:8]))

    @pytest.mark.parametrize("rays, rads", [
        ([0, 1, 2], [1.0, 1.0]),                  # shapes differ
        ([0, 1, 5, -1], [1.0, 1.0, 1.0, 1.0]),    # ray ids out of range
        ([0, 3], [1.0, 0.0]),                     # out of range at the origin
        ([0, -1], [1.0, 0.0]),
        ([0, 1], [1.0, -0.5]),                    # negative radial
        ([0, 1], [1.0, math.nan]),                # non-finite radials
        ([0, 1], [1.0, math.inf]),
    ])
    def test_bad_batch_rejected(self, rays, rads):
        f1, _, _ = self.functions()
        with pytest.raises(ValueError):
            self.G.partition(rays, rads)
        with pytest.raises(ValueError):
            f1.value_arrays(rays, rads)
        with pytest.raises(ValueError):
            f1.second_derivative_arrays(rays, rads)

    def test_partition_of_other_batch_rejected(self):
        f1, _, _ = self.functions()
        part = self.G.partition(self.RAYS[:4], self.RADS[:4])
        with pytest.raises(ValueError):
            f1.derivative_arrays(self.RAYS, self.RADS, part=part)
        with pytest.raises(ValueError):
            f1.value_arrays(self.RAYS[:4].reshape(2, 2), self.RADS[:4].reshape(2, 2),
                            part=part)


class TestGraphJson:
    def test_round_trip_bit_exact(self, tmp_path):
        edges = [Edge(0, 0, None, math.inf), Edge(1, 0, 1, 0.123456789123456789),
                 Edge(2, 1, None, math.inf)]
        g = MetricGraph([0, 1], edges,
                        {0: {0: 1 / 3, 1: 2 / 3}, 1: {1: 0.4, 2: 0.6}})
        p = tmp_path / "g.json"
        save_graph(g, p)
        g2 = load_graph(p)
        assert metric_graph_to_dict(g) == metric_graph_to_dict(g2)
        for e1, e2 in zip(g.edges, g2.edges):
            assert e1 == e2  # bit-exact float equality through repr round-trip
        assert g.vertex_params == g2.vertex_params
        # a second dump is byte-identical
        p2 = tmp_path / "g2.json"
        save_graph(g2, p2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key", ["vertices", "edges", "params"])
    def test_missing_key_named(self, key):
        d = metric_graph_to_dict(_segment_graph())
        del d[key]
        with pytest.raises(ValueError, match=key):
            metric_graph_from_dict(d)

    def test_orientation_preserved(self):
        d = {"vertices": [0, 1],
             "edges": [{"id": 0, "from": 1, "to": 0, "length": 2.0},
                       {"id": 1, "from": 0, "to": "inf", "length": "inf"},
                       {"id": 2, "from": 1, "to": "inf", "length": "inf"}],
             "params": {"0": {"0": 0.5, "1": 0.5}, "1": {"0": 0.25, "2": 0.75}}}
        g = metric_graph_from_dict(d)
        assert g.edge(0).src == 1 and g.edge(0).dst == 0
        assert metric_graph_to_dict(g)["edges"][0]["from"] == 1
