import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate
from scipy.special import erf

from starflow import isde, walsh
from starflow.graphs import canonical_test_functions, make_star
from starflow.halfline import (
    BRIDGE_CUT, RngStream, bridge_crossing_prob, bridge_min, grid_steps, heat_kernels,
    map_chunks, reflected_increment,
)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().standard_normal(32)
        b = RngStream(123, 4).generator().standard_normal(32)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 4).generator().standard_normal(32)
        b = RngStream(123, 5).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_child_paths(self):
        s = RngStream(9)
        assert s.child(3).index == (3,)
        assert s.child(3).child(1).index == (3, 1)
        a = s.child(3).child(1).generator().random(8)
        b = RngStream(9, (3, 1)).generator().random(8)
        assert np.array_equal(a, b)


class TestMapChunks:
    @staticmethod
    def _draws(lo, hi, stream):
        return np.arange(lo, hi), stream.generator().random(hi - lo)

    def test_chunk_streams_and_order(self):
        rng = RngStream(21)
        ids, u = map_chunks(self._draws, 10, rng, 4)
        np.testing.assert_array_equal(ids, np.arange(10))
        # chunk ci draws from rng.child(ci): chunks [0, 4), [4, 8), [8, 10)
        ref = [rng.child(ci).generator().random(m) for ci, m in enumerate((4, 4, 2))]
        np.testing.assert_array_equal(u, np.concatenate(ref))


BAD_HORIZONS = [(1.0, 0.0), (1.0, -1e-3), (0.0, 1e-3), (-1.0, 1e-3),
                (1.0, math.nan), (math.inf, 1e-3), (1.0, 0.3), (1.0, 3.0)]


def _grid_engines():
    g = make_star(3, [0.2, 0.5, 0.3])
    f, _ = canonical_test_functions(g, 0)
    return {
        "sample_residual_summaries": lambda T, dt: walsh.sample_residual_summaries(
            g, {"f": f}, T, dt, 4, RngStream(1)),
        # the engine with no test function, under the name of the forward
        # terminals' sampler it stood for; the key keeps the test ids
        "sample_isde_terminals": lambda T, dt: walsh.sample_residual_summaries(
            g, {}, T, dt, 4, RngStream(1)),
        "npoint_motion": lambda T, dt: isde.npoint_motion(
            g, [g.origin(), g.point(1, 0.5)], T, dt, RngStream(1)),
    }


class TestGridSteps:
    def test_whole_step_counts(self):
        assert grid_steps(1.0, 1e-3) == 1000
        assert grid_steps(1.0, 2.5e-4) == 4000
        assert grid_steps(0.5, 0.5) == 1

    @pytest.mark.parametrize("T, dt", BAD_HORIZONS)
    def test_bad_horizon_raises(self, T, dt):
        with pytest.raises(ValueError):
            grid_steps(T, dt)

    @pytest.mark.parametrize("engine", sorted(_grid_engines()))
    @pytest.mark.parametrize("T, dt", BAD_HORIZONS)
    def test_grid_engines_reject_bad_horizons(self, engine, T, dt):
        with pytest.raises(ValueError):
            _grid_engines()[engine](T, dt)

    @pytest.mark.parametrize("engine", sorted(_grid_engines()))
    def test_grid_engines_accept_one_step(self, engine):
        _grid_engines()[engine](0.1, 0.1)


class TestHeatKernels:
    def test_zero_start_kills_nothing(self):
        _, qz = heat_kernels(1.0, 0.0, 0.7)
        assert qz == 0.0

    def test_mass_conservation(self):
        val, _ = integrate.quad(lambda rho: heat_kernels(0.7, 1.3, rho)[0], 0, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_killed_mass_is_survival_probability(self):
        # integral of q_zero equals P(no zero hit up to t from r) = erf(r/sqrt(2t))
        for t, r in [(1.0, 0.5), (0.25, 1.0), (2.0, 0.1)]:
            val, _ = integrate.quad(lambda rho: heat_kernels(t, r, rho)[1], 0, np.inf)
            assert val == pytest.approx(erf(r / math.sqrt(2 * t)), abs=1e-8)

    def test_ordering_and_bounds(self):
        r = np.linspace(0, 3, 7)
        rho = np.linspace(0, 3, 7)
        qp, qz = heat_kernels(0.5, r, rho)
        assert np.all(qz >= 0) and np.all(qz <= qp)

    def test_chapman_kolmogorov(self):
        s, t, r, rho = 0.3, 0.5, 0.8, 1.1
        val, _ = integrate.quad(
            lambda u: heat_kernels(s, r, u)[0] * heat_kernels(t, u, rho)[0],
            0, np.inf, limit=200)
        assert val == pytest.approx(heat_kernels(s + t, r, rho)[0], abs=1e-6)

    def test_invalid_t(self):
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                heat_kernels(t, 1.0, 1.0)


class TestBridgeCrossing:
    def test_plug_in(self):
        dt = 0.2
        a = math.sqrt(dt / 2)
        assert bridge_crossing_prob(a, a, dt) == pytest.approx(math.exp(-1))

    def test_small_a_limit(self):
        assert bridge_crossing_prob(1e-9, 1.0, 0.1) == pytest.approx(1.0, abs=1e-6)

    def test_formula_value(self):
        assert bridge_crossing_prob(1.0, 1.0, 0.1) == pytest.approx(math.exp(-20.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            bridge_crossing_prob(-1.0, 1.0, 0.1)
        for a, b, dt in ((1.0, 1.0, 0.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
                         (math.nan, 1.0, 0.1), (1.0, 1.0, [0.1, math.inf])):
            with pytest.raises(ValueError):
                bridge_crossing_prob(a, b, dt)

    def test_against_simulated_bridges(self):
        # fine random walks pinned at both ends, a = b = 0.2, dt = 0.1
        a = b = 0.2
        dt = 0.1
        n, fine = 200000, 512
        gen = RngStream(11).generator()
        t = np.linspace(0, dt, fine + 1)
        crossed = np.zeros(n, dtype=bool)
        for lo in range(0, n, 20000):
            m = min(20000, n - lo)
            w = np.cumsum(gen.standard_normal((m, fine)) * math.sqrt(dt / fine), axis=1)
            w = np.concatenate([np.zeros((m, 1)), w], axis=1)
            bridge = a + w - (t / dt)[None, :] * (w[:, -1:] - (b - a))
            crossed[lo:lo + m] = bridge.min(axis=1) <= 0
        p_emp = crossed.mean()
        p_true = bridge_crossing_prob(a, b, dt)
        sig = math.sqrt(p_true * (1 - p_true) / n)
        # the discrete minimum undercounts crossings by about
        # 0.5826 sqrt(h) times the barrier sensitivity of the formula
        bias = p_true * (2 * (a + b) / dt) * 0.5826 * math.sqrt(dt / fine)
        assert p_emp <= p_true + 3 * sig
        assert p_emp >= p_true - 3 * sig - 1.5 * bias

    def test_bridge_min_law(self):
        # P(bridge min < 0) from the sampled minimum must match the formula
        a, b, h = 0.3, 0.5, 0.2
        gen = RngStream(13).generator()
        m = bridge_min(a, b, h, gen.random(200000))
        p_emp = float(np.mean(m < 0))
        p_true = bridge_crossing_prob(a, b, h)
        assert abs(p_emp - p_true) < 3 * math.sqrt(p_true * (1 - p_true) / 200000)
        assert np.all(m <= min(a, b) + 1e-12)


class TestReflectedIncrement:
    def test_identity_and_positivity(self):
        gen = RngStream(3).generator()
        y = 0.4
        z = gen.standard_normal(1000)
        u = gen.random(1000)
        y2, dl = reflected_increment(y, 0.01, z, u)
        assert np.all(y2 >= 0) and np.all(dl >= 0)
        assert np.allclose(y2, y + 0.1 * z + dl)

    def test_matches_reflected_kernel(self):
        # endpoint of an exact step has the reflected-BM transition law
        gen = RngStream(4).generator()
        y0, h, n = 0.25, 0.3, 200000
        y2, _ = reflected_increment(y0, h, gen.standard_normal(n), gen.random(n))
        ys = np.sort(y2)
        # reflected CDF: Phi((y-y0)/s) - Phi((-y-y0)/s) with s = sqrt(h)
        from scipy.stats import norm
        cdf = norm.cdf((ys - y0) / math.sqrt(h)) - norm.cdf((-ys - y0) / math.sqrt(h))
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert d < 1.95 / math.sqrt(n) * 1.5

    def test_cut_off_is_below_the_uniform_resolution(self):
        # Generator.random returns multiples of 2**-53, and past the cut-off
        # the bridge dips below 0 with probability under 2**-53
        u = RngStream(5).generator().random(100000)
        assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))
        assert math.exp(-2.0 * BRIDGE_CUT) < 2.0 ** -53

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, 1e2), st.floats(0.0, 1e9), st.floats(-40.0, 40.0),
           st.floats(2.0 ** -53, 1.0))
    def test_no_local_time_past_the_cut_off(self, h, s, z, u):
        # y = s sqrt(h); numpy's normal draws stay within |z| < 40, so the
        # endpoint w = y + sqrt(h) z is never many orders of magnitude from
        # y when y w >= BRIDGE_CUT h: there the step is the free one for
        # the smallest positive uniform and every larger one
        y = s * math.sqrt(h)
        w = y + math.sqrt(h) * z
        assume(y * w >= BRIDGE_CUT * h)
        for v in (2.0 ** -53, u):
            y_new, dl = reflected_increment(y, h, z, v)
            assert dl == 0.0 and y_new == w


def _reflect_chain(incr, u, h):
    """Chain exact reflected steps from 0: the reflected path R and its
    local time L at the grid times, for driver increments incr."""
    R, L = [0.0], [0.0]
    for dx, ui in zip(incr, u):
        y, dl = reflected_increment(R[-1], h, dx / math.sqrt(h), ui)
        R.append(y)
        L.append(L[-1] + dl)
    return np.array(R), np.array(L)


class TestLevyReflect:
    """Chained reflected_increment steps are the Levy-Skorokhod reflection of
    the driver: R = B + L with L = max(0, -min B), the minimum taken over
    the sampled bridges; at u = 1 the bridges never dip below their ends."""

    def test_hand_example(self):
        R, L = _reflect_chain([-1.0, 2.0], [1.0, 1.0], 1.0)
        assert np.allclose(R, [0, 0, 2])
        assert np.allclose(L, [0, 1, 1])
        # from 1 back to 1 over h = 1: the bridge minimum is 1 - sqrt(-log(u)/2)
        y, dl = reflected_increment(1.0, 1.0, 0.0, math.exp(-2.0))
        assert dl == 0.0 and y == pytest.approx(1.0)
        y, dl = reflected_increment(1.0, 1.0, 0.0, math.exp(-8.0))
        assert dl == pytest.approx(1.0) and y == pytest.approx(2.0)

    def test_nondecreasing_driver(self):
        vals = np.array([0.0, 0.5, 1.5, 1.6])
        R, L = _reflect_chain(np.diff(vals), np.ones(3), 1.0)
        assert np.all(L == 0) and np.allclose(R, vals)

    def test_local_time_mean(self):
        # exact steps: L_1 = -min of B over [0,1] in law, E = E|B_1| = sqrt(2/pi),
        # with no grid bias however coarse the steps
        gen = RngStream(7).generator()
        n, k = 20000, 8
        h = 1.0 / k
        y = np.zeros(n)
        ls = np.zeros(n)
        for _ in range(k):
            y, dl = reflected_increment(y, h, gen.standard_normal(n), gen.random(n))
            ls += dl
        target = math.sqrt(2 / math.pi)
        se = ls.std(ddof=1) / math.sqrt(n)
        assert abs(ls.mean() - target) < 3 * se
        assert ls.var() == pytest.approx(1 - 2 / math.pi, abs=0.02)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(1e-12, 1.0)),
                    min_size=1, max_size=40))
    def test_pathwise_identity(self, steps):
        incr = np.array([dx for dx, _ in steps])
        u = np.array([ui for _, ui in steps])
        h = 0.5
        vals = np.concatenate([[0.0], np.cumsum(incr)])
        R, L = _reflect_chain(incr, u, h)
        assert np.all(R >= 0)
        assert np.all(np.diff(L) >= 0) and L[0] == 0
        assert np.allclose(np.diff(R), incr + np.diff(L))
        # L is the Skorokhod map of the free path's bridge minima
        mins = bridge_min(vals[:-1], vals[1:], h, u)
        assert np.allclose(L[1:], np.maximum(0.0, -np.minimum.accumulate(mins)))
        # at u = 1 this is the grid reflection, which is 0 wherever L grows
        Rg, Lg = _reflect_chain(incr, np.ones(incr.size), h)
        assert np.allclose(Lg, np.maximum(0.0, -np.minimum.accumulate(vals)))
        assert np.allclose(Rg, vals + Lg)
        grows = np.diff(Lg) > 0
        assert np.allclose(Rg[1:][grows], 0.0, rtol=0, atol=1e-12)
        assert np.all(L >= Lg - 1e-9)
