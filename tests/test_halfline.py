import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from starflow import isde, walsh
from starflow.graphs import canonical_test_functions, make_star
from starflow.halfline import (
    BRIDGE_CUT, RngStream, bridge_crossings, grid_steps, map_chunks, reflected_step,
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


class _Uniforms:
    """Generator stub: its uniforms are the given values, handed out in
    order; ``drawn`` counts them."""

    def __init__(self, u):
        self.u = np.atleast_1d(np.asarray(u, dtype=float))
        self.drawn = 0

    def random(self, size):
        out = self.u[self.drawn:self.drawn + size]
        self.drawn += size
        return out


def _crossing_prob(a, b, h):
    """P(a Brownian bridge from a > 0 to b > 0 over h reaches 0)."""
    return math.exp(-2.0 * a * b / h)


def bridge_min(a, b, h, u):
    """Minimum of a Brownian bridge from a to b over h, by inverting its
    CDF at the uniform u."""
    return 0.5 * (a + b - np.sqrt((a - b) ** 2 - 2.0 * h * np.log(u)))


class TestBridgeCrossing:
    @staticmethod
    def _cross(a, b, h, u):
        """bridge_crossings on len(u) copies of one row, with uniforms u."""
        n = len(u)
        hit, near = bridge_crossings(np.full(n, a), np.full(n, b), np.full(n, h), True,
                                     _Uniforms(u))
        np.testing.assert_array_equal(near, np.arange(n))
        return hit

    def test_plug_in(self):
        dt = 0.2
        a = math.sqrt(dt / 2)
        p = math.exp(-1)
        np.testing.assert_array_equal(self._cross(a, a, dt, [p * (1 - 1e-9), p * (1 + 1e-9)]),
                                      [True, False])

    def test_small_a_limit(self):
        assert self._cross(1e-9, 1.0, 0.1, [1.0 - 1e-6]).all()

    def test_formula_value(self):
        p = math.exp(-20.0)
        np.testing.assert_array_equal(self._cross(1.0, 1.0, 0.1, [p * (1 - 1e-9), p * (1 + 1e-9)]),
                                      [True, False])

    def test_rows_past_the_cut_draw_nothing(self):
        # rows at or below 0 cross and rows with a b >= BRIDGE_CUT h do not,
        # both without a uniform; the tested rows in between take one each,
        # in row order, and the untested ones (the last two) do not cross
        h = np.full(7, 0.1)
        a = np.array([1.0, 1.0, 0.5, 2.0, 0.3, 0.5, 1.0])
        b = np.array([2.0, -0.2, 0.5, 0.0, 0.1, 0.5, -0.1])
        gen = _Uniforms([0.5, 0.0])
        hit, near = bridge_crossings(a, b, h, np.arange(7) < 5, gen)
        np.testing.assert_array_equal(near, [2, 4])
        assert gen.drawn == 2
        # row 2: 0.5 < exp(-5) is false; row 4: 0 < exp(-0.6)
        np.testing.assert_array_equal(hit, [False, True, False, True, True, False, True])

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
        p_true = _crossing_prob(a, b, dt)
        sig = math.sqrt(p_true * (1 - p_true) / n)
        # the discrete minimum undercounts crossings by about
        # 0.5826 sqrt(h) times the barrier sensitivity of the formula
        bias = p_true * (2 * (a + b) / dt) * 0.5826 * math.sqrt(dt / fine)
        assert p_emp <= p_true + 3 * sig
        assert p_emp >= p_true - 3 * sig - 1.5 * bias
        # the crossing test crosses with the formula's probability
        hit, near = bridge_crossings(np.full(n, a), np.full(n, b), np.full(n, dt), True, gen)
        assert near.size == n
        assert abs(hit.mean() - p_true) <= 3 * sig

    def test_bridge_min_law(self):
        # P(bridge min < 0), read off the local time of the reflected step,
        # must match the crossing formula; the minimum lies below both ends
        a, b, h, n = 0.3, 0.5, 0.2, 200000
        gen = RngStream(13).generator()
        _, dl, near = reflected_step(np.full(n, a), np.full(n, b), np.full(n, h), gen)
        assert near.size == n
        p_emp = float(np.mean(dl > 0))
        p_true = _crossing_prob(a, b, h)
        assert abs(p_emp - p_true) < 3 * math.sqrt(p_true * (1 - p_true) / n)
        m = bridge_min(a, b, h, RngStream(13).generator().random(n))
        np.testing.assert_array_equal(dl, np.maximum(-m, 0.0))
        assert np.all(m <= min(a, b) + 1e-12)


class TestReflectedIncrement:
    def test_identity_and_positivity(self):
        gen = RngStream(3).generator()
        y = np.full(1000, 0.4)
        z = gen.standard_normal(1000)
        y2, dl, _ = reflected_step(y, y + 0.1 * z, np.full(1000, 0.01), gen)
        assert np.all(y2 >= 0) and np.all(dl >= 0)
        assert np.allclose(y2, y + 0.1 * z + dl)

    def test_matches_reflected_kernel(self):
        # endpoint of an exact step has the reflected-BM transition law
        gen = RngStream(4).generator()
        y0, h, n = 0.25, 0.3, 200000
        y = np.full(n, y0)
        y2, _, _ = reflected_step(y, y + math.sqrt(h) * gen.standard_normal(n), np.full(n, h), gen)
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

    def test_rows_past_the_cut_draw_nothing(self):
        # only the rows with y w < BRIDGE_CUT h draw, one uniform each in row
        # order, and take the local time of their bridge minimum
        y = np.array([0.0, 2.0, 0.1, 3.0, 0.05])
        w = np.array([0.3, 2.5, -0.2, 2.9, 0.02])
        h = np.array([0.1, 0.1, 0.1, 0.1, 0.01])
        u = np.array([0.4, 0.7, 0.9])
        gen = _Uniforms(u)
        y2, dl, near = reflected_step(y, w.copy(), h, gen)
        np.testing.assert_array_equal(near, [0, 2, 4])
        assert gen.drawn == 3
        m = bridge_min(y[near], w[near], h[near], u)
        np.testing.assert_array_equal(dl[near], np.maximum(-m, 0.0))
        np.testing.assert_array_equal(dl[[1, 3]], 0.0)
        np.testing.assert_array_equal(y2, w + dl)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, 1e2), st.floats(0.0, 1e9), st.floats(-40.0, 40.0),
           st.floats(2.0 ** -53, 1.0))
    def test_no_local_time_past_the_cut_off(self, h, s, z, u):
        # y = s sqrt(h); numpy's normal draws stay within |z| < 40, so the
        # endpoint w = y + sqrt(h) z is never many orders of magnitude from
        # y when y w >= BRIDGE_CUT h: there the bridge minimum is >= 0 for
        # the smallest positive uniform and every larger one, so the step
        # that draws no uniform is the step any uniform would give
        y = s * math.sqrt(h)
        w = y + math.sqrt(h) * z
        assume(y * w >= BRIDGE_CUT * h)
        for v in (2.0 ** -53, u):
            assert bridge_min(y, w, h, v) >= 0.0
        gen = _Uniforms([])
        y_new, dl, near = reflected_step(np.array([y]), np.array([w]), np.array([h]), gen)
        assert gen.drawn == 0 and near.size == 0
        assert dl[0] == 0.0 and y_new[0] == w


def _reflect_chain(incr, u, h):
    """Chain exact reflected steps from 0: the reflected path R and its
    local time L at the grid times, for driver increments incr; step k
    takes u[k] if it draws a uniform."""
    R, L = [0.0], [0.0]
    for dx, ui in zip(incr, u):
        y, dl, _ = reflected_step(np.array([R[-1]]), np.array([R[-1] + dx]), np.array([h]),
                                  _Uniforms([ui]))
        R.append(y[0])
        L.append(L[-1] + dl[0])
    return np.array(R), np.array(L)


class TestLevyReflect:
    """Chained reflected_step steps are the Levy-Skorokhod reflection of
    the driver: R = B + L with L = max(0, -min B), the minimum taken over
    the sampled bridges; at u = 1 the bridges never dip below their ends."""

    def test_hand_example(self):
        R, L = _reflect_chain([-1.0, 2.0], [1.0, 1.0], 1.0)
        assert np.allclose(R, [0, 0, 2])
        assert np.allclose(L, [0, 1, 1])
        # from 1 back to 1 over h = 1: the bridge minimum is 1 - sqrt(-log(u)/2)
        for u, dl_want in ((math.exp(-2.0), 0.0), (math.exp(-8.0), 1.0)):
            y, dl, _ = reflected_step(np.ones(1), np.ones(1), np.ones(1), _Uniforms([u]))
            assert dl[0] == pytest.approx(dl_want) and y[0] == pytest.approx(1.0 + dl_want)

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
            y, dl, _ = reflected_step(y, y + math.sqrt(h) * gen.standard_normal(n), np.full(n, h),
                                      gen)
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
