import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import erf

from starflow import isde, walsh
from starflow.graphs import canonical_test_functions, make_star
from starflow.halfline import (
    BrownianGrid, RngStream, bridge_crossing_prob, bridge_min, grid_steps,
    heat_kernels, levy_reflect, reflected_increment, sample_bm,
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


BAD_HORIZONS = [(1.0, 0.0), (1.0, -1e-3), (0.0, 1e-3), (-1.0, 1e-3),
                (1.0, math.nan), (math.inf, 1e-3), (1.0, 0.3), (1.0, 3.0)]


def _grid_engines():
    g = make_star(3, [0.2, 0.5, 0.3])
    f, _ = canonical_test_functions(g, 0)
    return {
        "wbm_coupled_path": lambda T, dt: walsh.wbm_coupled_path(
            g, g.origin(), T, dt, RngStream(1)),
        "sample_wbm_terminals": lambda T, dt: walsh.sample_wbm_terminals(
            g, g.origin(), T, dt, 4, RngStream(1)),
        "sample_residual_summaries": lambda T, dt: walsh.sample_residual_summaries(
            g, {"f": f}, T, dt, 4, RngStream(1)),
        "sample_isde_terminals": lambda T, dt: isde.sample_isde_terminals(
            g, T, dt, 4, RngStream(1)),
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


class TestSampleBm:
    def test_validation(self):
        with pytest.raises(ValueError):
            sample_bm(0, 0.1, RngStream(1))
        with pytest.raises(ValueError):
            sample_bm(10, -1.0, RngStream(1))

    def test_starts_at_zero_and_length(self):
        b = sample_bm(100, 0.01, RngStream(1))
        assert b.values[0] == 0.0 and b.n_steps == 100

    def test_terminal_moments(self):
        gen = RngStream(5).generator()
        finals = np.array([sample_bm(100, 0.01, gen).values[-1] for _ in range(10000)])
        assert abs(finals.mean()) < 3e-2
        assert abs(finals.var() - 1.0) < 0.05


class TestLevyReflect:
    def test_hand_example(self):
        r = levy_reflect(BrownianGrid(dt=1.0, values=np.array([0.0, -1.0, 1.0])))
        assert np.allclose(r.R, [0, 0, 2])
        assert np.allclose(r.L, [0, 1, 1])

    def test_nondecreasing_driver(self):
        b = BrownianGrid(dt=1.0, values=np.array([0.0, 0.5, 1.5, 1.6]))
        r = levy_reflect(b)
        assert np.all(r.L == 0) and np.allclose(r.R, b.values)

    def test_local_time_mean(self):
        # E[-min B over [0,1]] = E|B_1| = sqrt(2/pi); the grid minimum sits
        # about 0.5826*sqrt(dt) above the continuous one
        dt = 1e-4
        gen = RngStream(7).generator()
        k = int(1 / dt)
        ls = np.empty(4000)
        for i in range(ls.size):
            ls[i] = levy_reflect(sample_bm(k, dt, gen)).L[-1]
        target = math.sqrt(2 / math.pi)
        se = ls.std(ddof=1) / math.sqrt(ls.size)
        assert abs(ls.mean() - target) < 3 * se + 0.7 * math.sqrt(dt)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=40))
    def test_pathwise_identity(self, incr):
        vals = np.concatenate([[0.0], np.cumsum(incr)])
        r = levy_reflect(BrownianGrid(dt=0.5, values=vals))
        assert np.all(r.R >= 0)
        assert np.all(np.diff(r.L) >= 0) and r.L[0] == 0
        assert np.allclose(np.diff(r.R), np.diff(vals) + np.diff(r.L))
        grows = np.diff(r.L) > 0
        assert np.all(r.R[1:][grows] == 0.0)


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
        with pytest.raises(ValueError):
            heat_kernels(0.0, 1.0, 1.0)


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
        with pytest.raises(ValueError):
            bridge_crossing_prob(1.0, 1.0, 0.0)

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
