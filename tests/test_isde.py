import math

import numpy as np
import pytest
from scipy.special import ndtr

from starflow.graphs import make_star
from starflow.halfline import RngStream
from starflow.isde import isde_forward, sample_isde_terminals
from starflow.stats import ks_against_cdf

G = make_star(3, [0.5, 0.3, 0.2])


class TestForwardNoises:
    @pytest.mark.parametrize("x0", [None, (1, 0.4)])
    def test_edge_noise_is_driver_on_ray_aux_noise_off(self, x0):
        x0 = G.origin() if x0 is None else G.point(*x0)
        T, dt, rng = 4.0, 0.01, RngStream(41)
        sol = isde_forward(G, x0, T, dt, rng)
        K = sol.path.n_steps
        # the auxiliary noises are the first draws of the second child stream
        dV = rng.child(1).generator().standard_normal((G.n_rays, K)) * math.sqrt(dt)
        dB = np.diff(sol.path.driver)
        on_ray = sol.path.rays[:-1] == np.arange(G.n_rays)[:, None]
        dW = np.where(on_ray, dB, dV)
        np.testing.assert_array_equal(sol.W[:, 0], 0.0)
        np.testing.assert_array_equal(sol.W[:, 1:], np.cumsum(dW, axis=1))
        np.testing.assert_array_equal(sol.V[:, 1:], np.cumsum(dV, axis=1))
        # each ray's noise follows the driver on the steps that start on it;
        # the path visits every ray, so both branches are exercised
        for i in range(G.n_rays):
            assert on_ray[i].any() and not on_ray[i].all()
            np.testing.assert_allclose(np.diff(sol.W[i])[on_ray[i]], dB[on_ray[i]],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.diff(sol.W[i])[~on_ray[i]], dV[i][~on_ray[i]],
                                       rtol=0, atol=1e-12)


def _terminals_reference(g, T, dt, n, rng, x0):
    """Per-step loop with the redraw coins looked up at full width."""
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    rad = np.full(n, 0.0 if x0.is_vertex else x0.coord)
    rays = (np.searchsorted(cum, gen.random(n)) if x0.is_vertex
            else np.full(n, x0.edge, dtype=np.int64))
    WT = np.zeros((n, g.n_rays))
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        dV = sq * gen.standard_normal((n, g.n_rays))
        coins = np.searchsorted(cum, gen.random(n))
        for j in range(n):
            WT[j] += dV[j]
            WT[j, rays[j]] += xi[j] - dV[j, rays[j]]
        y = rad + xi
        rays = np.where(y < 0.0, coins, rays)
        rad = np.abs(y)
    return rays, rad, WT


class TestSampleTerminals:
    def test_same_seed_same_output(self):
        a = sample_isde_terminals(G, 1.0, 0.01, 200, RngStream(42))
        b = sample_isde_terminals(G, 1.0, 0.01, 200, RngStream(42))
        c = sample_isde_terminals(G, 1.0, 0.01, 200, RngStream(43))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[2], c[2])

    @pytest.mark.parametrize("seed, x0", [(44, None), (45, (2, 0.25))])
    def test_bit_identical_to_reference_loop(self, seed, x0):
        x0 = G.origin() if x0 is None else G.point(*x0)
        out = sample_isde_terminals(G, 1.0, 0.01, 150, RngStream(seed), x0=x0)
        ref = _terminals_reference(G, 1.0, 0.01, 150, RngStream(seed), x0)
        for x, y in zip(out, ref):
            np.testing.assert_array_equal(x, y)

    def test_edge_noises_are_brownian(self):
        # Each W^i is an exact Brownian motion on the grid, so W^i_T / sqrt(T)
        # is N(0, 1) and each p-value is uniform: the test fails a correct
        # engine with probability about 3e-3. Calibrated over seeds 100-299
        # at this config (CHANGES.md); at seed 46 the smallest p is 0.017.
        T = 2.0
        _, _, WT = sample_isde_terminals(G, T, 0.02, 4000, RngStream(46))
        for i in range(G.n_rays):
            assert ks_against_cdf(WT[:, i] / math.sqrt(T), ndtr).p_value > 1e-3, i
