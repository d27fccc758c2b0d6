import math

import numpy as np
import pytest
from scipy.special import chdtr, ndtr

from starflow import isde, quadrant
from starflow.graphs import GraphPoint, make_star, per_ray_quadratic
from starflow.halfline import RngStream
from starflow.isde import (
    _dispersions, filtered_kernel, isde_n2_from_noise, npoint_motion,
    sample_coalescence_times, sample_first_legs, sample_kernel_dispersions,
)
from starflow.stats import ks_against_cdf, ks_two_sample
from starflow.walsh import sample_residual_summaries

G = make_star(3, [0.5, 0.3, 0.2])


def _terminals_reference(g, T, dt, n, rng, x0):
    """Per-step loop: the driver increments, then a redraw coin for each
    path that folds. Per path, xi is summed over each stint (the steps
    under one ray label, on the ray or at the vertex; a fold, a move onto
    or off the vertex, or the last step ends it), and the stint's sum and
    step count go into its (at vertex, label) cell. After the last step one
    normal per path and ray gives the sum of the off-ray increments.
    Returns the terminal rays and radials, W_T from the stint cells by the
    engine's arithmetic, and W_T from the plain per-step driver sums."""
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    N = g.n_rays
    rad = np.full(n, 0.0 if x0.is_vertex else x0.coord)
    rays = (np.searchsorted(cum, gen.random(n)) if x0.is_vertex
            else np.full(n, x0.edge, dtype=np.int64))
    stint, since = np.zeros(n), np.zeros(n, dtype=np.int64)
    cell_xi, cell_steps = np.zeros((n, 2, N)), np.zeros((n, 2, N), dtype=np.int64)
    plain = np.zeros((n, N))
    for k in range(K):
        xi = sq * gen.standard_normal(n)
        y = rad + xi
        new_rays = rays.copy()
        new_rays[y < 0.0] = np.searchsorted(cum, gen.random(np.count_nonzero(y < 0.0)))
        new = np.abs(y)
        for j in range(n):
            plain[j, rays[j]] += xi[j]
            stint[j] += xi[j]
            if k == K - 1 or y[j] < 0.0 or (rad[j] == 0.0) != (new[j] == 0.0):
                cell = (j, int(rad[j] == 0.0), rays[j])
                cell_xi[cell] += stint[j]
                cell_steps[cell] += k + 1 - since[j]
                stint[j], since[j] = 0.0, k + 1
        rays, rad = new_rays, new
    Z = gen.standard_normal((n, N))
    WT, WT_plain = np.empty((n, N)), np.empty((n, N))
    for j in range(n):
        for i in range(N):
            off = math.sqrt((K - (cell_steps[j, 0, i] + cell_steps[j, 1, i])) * dt) * Z[j, i]
            WT[j, i] = off + (cell_xi[j, 0, i] + cell_xi[j, 1, i])
            WT_plain[j, i] = off + plain[j, i]
    return rays, rad, WT, WT_plain


def _terminals(T, dt, n, seed, x0=None):
    """(rays, radials, W_T) of the grid engine with no test function."""
    out = sample_residual_summaries(G, {}, T, dt, n, RngStream(seed), x0=x0)
    return out.rays, out.radials, out.noises


class TestSampleTerminals:
    def test_same_seed_same_output(self):
        a = _terminals(1.0, 0.01, 200, 42)
        b = _terminals(1.0, 0.01, 200, 42)
        c = _terminals(1.0, 0.01, 200, 43)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[2], c[2])

    @pytest.mark.parametrize("seed, x0", [(44, None), (45, (2, 0.25))])
    def test_bit_identical_to_reference_loop(self, seed, x0):
        x0 = G.origin() if x0 is None else G.point(*x0)
        out = _terminals(1.0, 0.01, 150, seed, x0=x0)
        ref = _terminals_reference(G, 1.0, 0.01, 150, RngStream(seed), x0)
        for x, y in zip(out, ref):
            np.testing.assert_array_equal(x, y)

    def test_stint_sums_match_plain_driver_sums(self):
        # summing xi per stint and then per cell only reorders the plain
        # per-step sum of W_T's on-ray increments: K = 1000 terms of size
        # sqrt(dt) = 0.03 err by far less than 1e-12
        x0 = G.point(1, 0.1)
        noises = _terminals(1.0, 1e-3, 60, 50, x0=x0)[2]
        _, _, WT, WT_plain = _terminals_reference(G, 1.0, 1e-3, 60, RngStream(50), x0)
        np.testing.assert_array_equal(noises, WT)
        np.testing.assert_allclose(noises, WT_plain, rtol=0, atol=1e-12)
        assert not np.array_equal(WT, WT_plain)

    def test_draws_about_one_word_per_path_step(self, philox_words):
        # the driver increment, a coin per fold, and N normals per path at
        # the end for the off-ray sums; drawing every dV^i and a coin per
        # step took five words
        n, K = 2000, 100
        _terminals(1.0, 1.0 / K, n, 47)
        assert philox_words() / (n * K) < 1.3

    def test_edge_noises_are_brownian(self):
        # Each W^i is an exact Brownian motion on the grid, so W^i_T / sqrt(T)
        # is N(0, 1) and each p-value is uniform: the test fails a correct
        # engine with probability about 3e-3. Calibrated over seeds 100-299
        # at this config (CHANGES.md); at seed 46 the smallest p is 0.017.
        T = 2.0
        WT = _terminals(T, 0.02, 4000, 46)[2]
        for i in range(G.n_rays):
            assert ks_against_cdf(WT[:, i] / math.sqrt(T), ndtr).p_value > 1e-3, i

    def test_edge_noises_are_jointly_brownian(self):
        # W_T / sqrt(T) is a standard normal vector in R^N, so |W_T|^2 / T is
        # chi^2 with N degrees of freedom and u.W_T / sqrt(T) is N(0, 1) for a
        # unit vector u off the axes; both p-values are uniform and the test
        # fails a correct engine with probability about 2e-3. Over seeds
        # 100-299 at this config the p-values average 0.51 and 0.50, with
        # minima 0.008 and 0.011; at seed 48 they are 0.61 and 0.71.
        T = 2.0
        WT = _terminals(T, 0.02, 4000, 48)[2]
        norm2 = np.sum(WT * WT, axis=1) / T
        assert ks_against_cdf(norm2, lambda x: chdtr(G.n_rays, x)).p_value > 1e-3
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        assert ks_against_cdf(WT @ u / math.sqrt(T), ndtr).p_value > 1e-3

    def test_noises_and_terminals_come_from_the_recorded_paths(self):
        # one engine call with a test function: a recorded row that never
        # folds stays on its ray, so its noise on that ray is its driver sum,
        # the radial's displacement
        x0 = G.point(1, 0.5)
        quad = per_ray_quadratic(G, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        out = sample_residual_summaries(G, {"q": quad}, 0.25, 0.01, 200, RngStream(49),
                                        x0=x0, record=200)
        unfolded = [j for j, p in enumerate(out.paths) if p.radial_localtime[-1] == 0.0]
        assert 0 < len(unfolded) < 200
        for j in unfolded:
            path = out.paths[j]
            assert np.all(path.rays == 1)
            assert abs(path.radials[-1] - path.radials[0] - out.noises[j, 1]) <= 1e-12
        np.testing.assert_array_equal(out.rays, [p.rays[-1] for p in out.paths])
        np.testing.assert_array_equal(out.radials, [p.radials[-1] for p in out.paths])


def _npoint_reference(g, starts, T, dt, runs, rng, tol_c):
    """Scalar loop over runs and points: the points at the vertex draw
    their rays, in row order; per step the (runs, N) noise block, then each
    live point, in row order, moves by its ray's noise and, if it crosses
    the origin, folds and redraws its ray with a coin drawn then; after the
    start and after each step the live points of a run within tol_c of the
    origin merge into the lowest of them. Per run it also keeps the pivot
    (the lowest-index crosser of the last step with a crossing, moved with
    its merges), the steps where another point crosses and the merges."""
    n, K = len(starts), round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    rays, rad = np.empty((runs, n), dtype=np.int64), np.empty((runs, n))
    for r in range(runs):
        for j, s in enumerate(starts):
            if s.is_vertex:
                rays[r, j], rad[r, j] = np.searchsorted(cum, gen.random()), 0.0
            else:
                rays[r, j], rad[r, j] = s.edge, s.coord
    rep = np.tile(np.arange(n), (runs, 1))
    pivot = [-1] * runs
    taus = [[] for _ in range(runs)]
    pairs = [{} for _ in range(runs)]

    def merge(k):
        for r in range(runs):
            near = [j for j in range(n) if rep[r, j] == j and rad[r, j] < tol_c]
            for j in near[1:]:
                pairs[r][(near[0], j)] = k
                rep[r][rep[r] == j] = near[0]
                if pivot[r] == j:
                    pivot[r] = near[0]
            rays[r], rad[r] = rays[r, rep[r]], rad[r, rep[r]]

    merge(0)
    out = [(rays.copy(), rad.copy(), list(pivot))]
    for k in range(K):
        dW = sq * gen.standard_normal((runs, g.n_rays))
        for r in range(runs):
            crossers = []
            for j in range(n):
                if rep[r, j] != j:
                    continue
                y = rad[r, j] + dW[r, rays[r, j]]
                if y < 0.0:
                    rays[r, j] = np.searchsorted(cum, gen.random())
                    crossers.append(j)
                rad[r, j] = abs(y)
            if crossers:
                if any(j != pivot[r] for j in crossers):
                    taus[r].append(k + 1)
                pivot[r] = crossers[0]
        merge(k + 1)
        out.append((rays.copy(), rad.copy(), list(pivot)))
    rays_k, rad_k, piv_k = (np.array(c) for c in zip(*out))
    return rays_k, rad_k, piv_k, taus, pairs


class TestNPointMotion:
    @pytest.mark.parametrize("seed, starts", [
        (61, [None, (1, 0.5)]),
        (62, [(0, 0.3), (2, 0.6)]),
        (63, [(0, 0.4), None, (2, 0.2)]),
        (64, [None, None, (1, 0.2)]),
    ])
    def test_bit_identical_to_reference_loop(self, seed, starts):
        starts = [G.origin() if s is None else G.point(*s) for s in starts]
        tol = 0.05
        out = npoint_motion(G, starts, 2.0, 0.01, RngStream(seed), tol_c=tol)
        rays, rads, piv, taus, pairs = _npoint_reference(
            G, starts, 2.0, 0.01, 1, RngStream(seed), tol)
        np.testing.assert_array_equal(out.rays, rays[:, 0])
        np.testing.assert_array_equal(out.radials, rads[:, 0])
        np.testing.assert_array_equal(out.pivot_index, piv[:, 0])
        assert out.tau_events == taus[0] and out.coalesced_pairs == pairs[0]
        assert taus[0]

    @pytest.mark.parametrize("seed, starts", [
        (75, [(0, 0.4), None, (2, 0.2)]),
        (76, [None, None, (1, 0.2), (0, 0.1)]),
    ])
    def test_batch_bit_identical_to_reference_loop(self, seed, starts):
        # several runs in one batch: each run's noise row, the coins in row
        # order across runs, and the merge rule run by run
        starts = [G.origin() if s is None else G.point(*s) for s in starts]
        runs, tol = 5, 0.05
        rays, rads, reps, _ = isde._flow_batch(G, starts, 2.0, 0.01, runs,
                                               RngStream(seed).generator(), tol, record=True)
        ref_rays, ref_rads, _, _, pairs = _npoint_reference(
            G, starts, 2.0, 0.01, runs, RngStream(seed), tol)
        np.testing.assert_array_equal(rays, ref_rays)
        np.testing.assert_array_equal(rads, ref_rads)
        for r in range(runs):
            for (lo, hi), k in pairs[r].items():
                assert reps[k, r, hi] == lo and (k == 0 or reps[k - 1, r, hi] == hi)
            live = reps[-1, r] == np.arange(len(starts))
            assert live.sum() == len(starts) - len(pairs[r])
        assert len({tuple(sorted(p.items())) for p in pairs}) > 1

    def test_start_off_the_star_raises(self, philox_words):
        with pytest.raises(ValueError):
            npoint_motion(G, [G.origin(), GraphPoint(edge=7, coord=1.0)], 1.0, 0.01,
                          RngStream(73))
        assert philox_words() == 0

    @pytest.mark.parametrize("seed", [65, 66, 67])
    def test_points_on_one_ray_keep_their_distance(self, seed):
        # both points ride ray 0's noise rigidly, so their gap stays 0.6 (up
        # to rounding) and they stay on ray 0 until the first of them
        # crosses the vertex (the lower one, which then pivots); if neither
        # crosses by T, over the whole path
        starts = [G.point(0, 0.3), G.point(0, 0.9), G.point(2, 0.5)]
        out = npoint_motion(G, starts, 2.0, 0.01, RngStream(seed))
        on_ray0 = np.isin(out.pivot_index, [0, 1])
        first = int(np.argmax(on_ray0)) if on_ray0.any() else len(on_ray0)
        assert first > 0
        assert np.all(out.rays[:first, :2] == 0)
        np.testing.assert_allclose(out.radials[:first, 1] - out.radials[:first, 0], 0.6,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [65, 66, 67])
    def test_coalesced_points_never_separate(self, seed):
        starts = [G.point(0, 0.1), G.point(1, 0.15), G.point(2, 0.3), G.origin()]
        out = npoint_motion(G, starts, 2.0, 0.01, RngStream(seed))
        assert out.coalesced_pairs
        for (lo, hi), k in out.coalesced_pairs.items():
            np.testing.assert_array_equal(out.rays[k:, lo], out.rays[k:, hi])
            np.testing.assert_array_equal(out.radials[k:, lo], out.radials[k:, hi])

    def test_n_point_motions_are_consistent(self):
        # Le Jan-Raimond consistency of phi: the points (a, b) of a 3-point
        # motion from (a, b, c) move as the 2-point motion from (a, b). The
        # law holds on the grid too: W is a Brownian family either way, each
        # point's coins are its own, and with c last a merge never moves a
        # or b. Two-sample KS on the terminal graph distance of a and b (0
        # once merged) and on a's terminal radial, each at p > 5e-4: by
        # Bonferroni the test fails correct code with probability 1e-3.
        a, b, c = G.point(0, 0.3), G.point(1, 0.2), G.point(0, 0.5)
        T, dt, runs = 1.0, 1e-2, 4000
        tol = isde.default_coalescence_tol(dt)
        ends = []
        for starts, seed in (([a, b, c], 77), ([a, b], 78)):
            rays, rads = isde._flow_batch(G, starts, T, dt, runs,
                                          RngStream(seed).generator(), tol)[:2]
            ends.append((rays[0], rads[0]))
        dist = [np.where(r[:, 0] == r[:, 1], np.abs(x[:, 0] - x[:, 1]), x[:, 0] + x[:, 1])
                for r, x in ends]
        assert 0.05 < np.mean(dist[0] == 0.0) < 0.95
        assert ks_two_sample(*dist).p_value > 5e-4
        assert ks_two_sample(ends[0][1][:, 0], ends[1][1][:, 0]).p_value > 5e-4


# -- the pair run --------------------------------------------------------------
# A frozen copy of the pair run (one chunk, stream child 0): step size,
# exact bridge-minimum step of the pivot with a coin when it touches the
# origin, transfer test and the conditioned redraw of the next moving ray,
# in the run's draw order, then per transfer the leg books, and for each
# path that goes on a restart at unit scale with a uniform for the pivot's
# ray. A uniform is drawn only for a row that reads it: a bridge within
# the cut-off a b < 19 h, a touched pivot, a transfer onto the moving ray,
# a restart.

def _h_reference(dt, o_rad, p_rad):
    z2 = o_rad * o_rad + p_rad * p_rad
    far = np.minimum(o_rad / 12.0, np.maximum(p_rad / 12.0, o_rad / 48.0)) ** 2
    return np.maximum(np.minimum(dt, z2 / 144.0), far)


def _other_ray_reference(probs, cum, banned, u):
    # the banned weight cut out of u, then the plain draw
    v = u * (1.0 - probs[banned])
    start = cum[banned - 1] if banned else 0.0
    return int(np.searchsorted(cum, v + probs[banned] if v > start else v))


def _pair_step_reference(gen, dt, probs, cum, orad, oray, prad, pray):
    ma = orad.size
    h = _h_reference(dt, orad, prad)
    sq = np.sqrt(h)
    zp, zo = gen.standard_normal(ma), gen.standard_normal(ma)
    o_new = orad + sq * np.where(oray == pray, zp, zo)
    w = prad + sq * zp
    dL = np.zeros(ma)
    for k in range(ma):
        if prad[k] * w[k] < 19.0 * h[k]:
            u = gen.random()
            mn = 0.5 * (prad[k] + w[k] - np.sqrt((prad[k] - w[k]) ** 2 - 2.0 * h[k] * np.log(u)))
            dL[k] = max(-mn, 0.0)
    p_new = w + dL
    p_ray_new = pray.copy()
    for k in range(ma):
        if dL[k] > 0.0:
            p_ray_new[k] = np.searchsorted(cum, gen.random())
    transfer = o_new <= 0.0
    for k in range(ma):
        if not transfer[k] and orad[k] * o_new[k] < 19.0 * h[k]:
            transfer[k] = gen.random() < np.exp(-2.0 * orad[k] * o_new[k] / h[k])
    nxt = p_ray_new[transfer]
    for k in np.flatnonzero(nxt == oray[transfer]):
        nxt[k] = _other_ray_reference(probs, cum, oray[transfer][k], gen.random())
    return h, o_new, p_new, p_ray_new, transfer, nxt


def _pair_run_reference(g, start_ray, dt, n, rng, n_legs=None, eps_unit=0.0):
    """Per path: its legs, scale, real time, ratios and rays of every leg;
    and the (N, N) transition counts."""
    probs = g.probs_array
    cum = np.cumsum(probs)
    gen = rng.child(0).generator()
    o_rad, o_ray = np.ones(n), np.full(n, start_ray)
    p_rad, p_ray = np.zeros(n), np.searchsorted(cum, gen.random(n))
    d, idx = np.zeros(n), np.arange(n)
    legs, scales, times = np.zeros(n, dtype=np.int64), np.ones(n), np.zeros(n)
    ratios, chains = [[] for _ in range(n)], [[start_ray] for _ in range(n)]
    trans = np.zeros((g.n_rays, g.n_rays), dtype=np.int64)
    while idx.size:
        h, o_rad, p_rad, p_ray, transfer, nxt = _pair_step_reference(
            gen, dt, probs, cum, o_rad, o_ray, p_rad, p_ray)
        d = d + h
        live = np.ones(idx.size, dtype=bool)
        restarts = []
        for row, ray in zip(np.flatnonzero(transfer), nxt):
            i = idx[row]
            ratios[i].append(p_rad[row])
            chains[i].append(ray)
            trans[o_ray[row], ray] += 1
            times[i] += scales[i] ** 2 * d[row]
            scales[i] *= p_rad[row]
            legs[i] += 1
            if scales[i] < eps_unit or legs[i] == n_legs:
                live[row] = False
            else:
                restarts.append(row)
                o_rad[row], o_ray[row], p_rad[row], d[row] = 1.0, ray, 0.0, 0.0
        for row in restarts:
            p_ray[row] = np.searchsorted(cum, gen.random())
        idx, o_rad, o_ray, p_rad, p_ray, d = (
            a[live] for a in (idx, o_rad, o_ray, p_rad, p_ray, d))
    return legs, scales, times, ratios, chains, trans


def _assert_matches_reference(out, ref, cols, r=1.0):
    legs, scales, times, ratios, chains, trans = ref
    np.testing.assert_array_equal(out.legs, legs)
    np.testing.assert_array_equal(out.scales, r * scales)
    np.testing.assert_array_equal(out.times, r * r * times)
    np.testing.assert_array_equal(out.ratios, [row[:cols] for row in ratios])
    np.testing.assert_array_equal(out.chains, [row[:cols + 1] for row in chains])
    np.testing.assert_array_equal(out.transitions, trans)


class TestPairEngines:
    @pytest.mark.parametrize("seed, start_ray", [(51, 0), (52, 2)])
    def test_first_legs_bit_identical_to_reference_loop(self, seed, start_ray):
        out = sample_first_legs(G, start_ray, 0.01, 100, RngStream(seed), n_legs=2)
        ref = _pair_run_reference(G, start_ray, 0.01, 100, RngStream(seed), n_legs=2)
        _assert_matches_reference(out, ref, 2)
        assert np.all(out.chains[:, 1:] != out.chains[:, :-1])

    @pytest.mark.parametrize("seed, start", [(53, (0, 1.0)), (54, (2, 0.5))])
    def test_coalescence_bit_identical_to_reference_loop(self, seed, start):
        eps = 0.01 * start[1]
        out = sample_coalescence_times(G, G.point(*start), 0.01, eps, 40, RngStream(seed))
        ref = _pair_run_reference(G, start[0], 0.01, 40, RngStream(seed),
                                  eps_unit=eps / start[1])
        _assert_matches_reference(out, ref, 1, r=start[1])
        assert out.legs.max() > 1 and out.fraction_coalesced() == 1.0

    @pytest.mark.parametrize("x", [0.37, 1e3])
    def test_times_at_x_are_x_squared_times_the_unit_times(self, x):
        eps = 0.05 * x
        at = sample_coalescence_times(G, G.point(1, x), 0.01, eps, 20, RngStream(57))
        one = sample_coalescence_times(G, G.point(1, 1.0), 0.01, eps / x, 20, RngStream(57))
        np.testing.assert_array_equal(at.times, x * x * one.times)
        np.testing.assert_array_equal(at.scales, x * one.scales)
        np.testing.assert_array_equal(at.legs, one.legs)
        np.testing.assert_array_equal(at.ratios, one.ratios)
        np.testing.assert_array_equal(at.transitions, one.transitions)

    def test_each_path_stops_where_its_rule_says(self):
        # n_legs: every path runs exactly that many legs
        first = sample_first_legs(G, 1, 0.01, 50, RngStream(58), n_legs=3)
        assert np.all(first.legs == 3) and first.transitions.sum() == 150
        np.testing.assert_array_equal(first.scales, np.cumprod(first.ratios, axis=1)[:, -1])
        # eps: each path stops at the first leg whose scale falls below eps,
        # read from a run that keeps the ratios of (many more than) all legs
        run = isde._pair_run(G, 1, 0.01, 50, RngStream(59), 65536, 60, eps_unit=0.05)
        assert run.legs.max() < 60 and run.transitions.sum() == run.legs.sum()
        for k, row, s in zip(run.legs, run.ratios, run.scales):
            u = np.cumprod(row[:k])
            assert u[-1] == s < 0.05 and np.all(u[:-1] >= 0.05)

    def test_draw_fewer_than_three_words_per_path_step(self, philox_words, monkeypatch):
        # two normals per path-step, and a uniform only for a row that reads
        # one; drawing four uniforms for every row (five in the coalescence
        # engine) took 6 and 7 words per path-step
        rows = []

        def counted(g, gen, dt, o_rad, *args):
            rows.append(o_rad.size)
            return step(g, gen, dt, o_rad, *args)

        step = isde._pair_step
        monkeypatch.setattr(isde, "_pair_step", counted)
        sample_first_legs(G, 0, 1e-3, 300, RngStream(69), n_legs=2)
        words = philox_words()
        assert words / sum(rows) < 3
        rows.clear()
        sample_coalescence_times(G, G.point(1, 1.0), 1e-2, 1e-2, 20, RngStream(70))
        assert (philox_words() - words) / sum(rows) < 3

    def test_coalescence_from_off_the_star_raises(self, philox_words):
        with pytest.raises(ValueError):
            sample_coalescence_times(G, GraphPoint(edge=7, coord=1.0), 0.01, 0.01, 10,
                                     RngStream(71))
        assert philox_words() == 0

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, math.nan])
    def test_coalescence_needs_eps_below_the_start(self, eps, philox_words):
        with pytest.raises(ValueError):
            sample_coalescence_times(G, G.point(0, 1.0), 0.01, eps, 10, RngStream(73))
        with pytest.raises(ValueError):
            isde.sample_exact_leg_counts(G, G.point(0, 1.0), eps, 10, RngStream(73))
        assert philox_words() == 0

    @pytest.mark.parametrize("start_ray", [-1, 3])
    def test_first_legs_from_off_the_star_raise(self, start_ray, philox_words):
        with pytest.raises(ValueError):
            sample_first_legs(G, start_ray, 0.01, 10, RngStream(72))
        assert philox_words() == 0

    def test_first_leg_chunks_are_kernel_runs_in_order(self, check_chunks):
        rng = RngStream(55)
        a = sample_first_legs(G, 1, 0.01, 30, rng, n_legs=1, chunk=7)
        check_chunks((a.legs, a.scales, a.times, a.ratios, a.chains), 30, 7, rng)

    def test_coalescence_chunks_are_kernel_runs_in_order(self, check_chunks):
        rng = RngStream(56)
        c = sample_coalescence_times(G, G.point(1, 1.0), 0.01, 0.1, 20, rng, chunk=7)
        check_chunks((c.legs, c.scales, c.times, c.ratios, c.chains), 20, 7, rng)

    def test_other_rays_follow_the_conditioned_weights(self):
        # P(j | not i) = p_j / (1 - p_i), by a chi^2 test at 1e-3 per banned ray
        gen = np.random.default_rng(74)
        for i in range(G.n_rays):
            got = isde._other_rays(G, np.full(30000, i), gen.random(30000))
            counts = np.bincount(got, minlength=G.n_rays)
            assert counts[i] == 0
            want = 30000 * np.delete(G.probs_array, i) / (1.0 - G.probs_array[i])
            chi2 = np.sum((np.delete(counts, i) - want) ** 2 / want)
            assert chdtr(G.n_rays - 2, chi2) < 1 - 1e-3

    def test_exact_leg_counts_end_after_one_leg_by_the_beta_prime_law(self):
        # scale 0.5 within one leg with the probability of the Beta-prime
        # CDF at the first ray's angle
        n = 20000
        legs = isde.sample_exact_leg_counts(G, G.point(1, 2.0), 1.0, n, RngStream(75))
        p1 = quadrant.ys_cdf(math.atan2(0.3, 0.7), 1.0, 0.5)
        frac = np.mean(legs == 1)
        assert abs(frac - p1) <= 4 * math.sqrt(p1 * (1 - p1) / n)
        assert legs.min() == 1 and legs.max() > 3


def _forward_noises(g, T, dt, rng):
    """(N, K) edge-noise increments assembled around a forward path from the
    origin: a scalar coupled Walsh path (its K driver increments, then its
    starting ray, then a coin per fold) on rng.child(0), and auxiliary
    noises dV on rng.child(1); dW^i is the driver on the path's ray and dV^i
    off it."""
    K = round(T / dt)
    gen = rng.child(0).generator()
    cum = np.cumsum(g.probs_array)
    xi = gen.standard_normal(K) * math.sqrt(dt)
    ray, rad = int(np.searchsorted(cum, gen.random())), 0.0
    rays = []
    for k in range(K):
        rays.append(ray)
        y = rad + xi[k]
        if y < 0.0:
            ray = int(np.searchsorted(cum, gen.random()))
        rad = abs(y)
    dV = rng.child(1).generator().standard_normal((g.n_rays, K)) * math.sqrt(dt)
    return np.where(np.array(rays)[None, :] == np.arange(g.n_rays)[:, None], xi[None, :], dV)


def _dispersions_reference(g, T, dt, n_runs, m, rng):
    """Per-run loop: W assembled around a forward path, then m replicas
    from the origin with their own starting rays and redraw coins, folded
    one step at a time."""
    cum = np.cumsum(g.probs_array)
    out = np.empty(n_runs)
    for run in range(n_runs):
        stream = rng.child(run)
        dW = _forward_noises(g, T, dt, stream.child(0))
        gen = stream.child(1).generator()
        coins = np.searchsorted(cum, gen.random((m, dW.shape[1])))
        rays, rad = np.searchsorted(cum, gen.random(m)), np.zeros(m)
        for k in range(dW.shape[1]):
            y = rad + dW[rays, k]
            rays, rad = np.where(y < 0.0, coins[:, k], rays), np.abs(y)
        same = rays[:, None] == rays[None, :]
        out[run] = np.where(same, np.abs(rad[:, None] - rad[None, :]),
                            rad[:, None] + rad[None, :]).max()
    return out


class TestReplicaEndpoints:
    def test_origin_start_ray_is_apart_from_step_zero_coin(self):
        # One step from the origin: a replica starting on ray i ends at radial
        # |dW^i|, so the radials group the replicas by starting ray. A group
        # with dW^i < 0 folds and redraws, so its end rays follow the weights.
        # Reusing the redraw coin as the starting ray would never move a
        # folded replica: every group would end on one ray.
        g = make_star(3, [0.2, 0.5, 0.3])
        m, dt = 20000, 0.01
        est = filtered_kernel(g, g.origin(), dt, dt, m, RngStream(57))
        radii, group = np.unique(est.radials, return_inverse=True)
        assert radii.size == 3
        mixed = 0
        for gi in range(3):
            rays = est.rays[group == gi]
            size = rays.size
            p_start = g.probs[int(rays[0])] if np.all(rays == rays[0]) else None
            if p_start is None:
                mixed += 1
                for i, p in enumerate(g.probs):
                    assert abs(np.mean(rays == i) - p) <= 4 * math.sqrt(p * (1 - p) / size)
            else:
                assert abs(size / m - p_start) <= 4 * math.sqrt(p_start * (1 - p_start) / m)
        assert mixed >= 1

    def test_two_rays_follow_the_euler_map(self):
        # For N = 2 each run draws its (2, K) noise block and every replica
        # is the Euler map of it, so all dispersions are exactly 0.
        g = make_star(2, [0.3, 0.7])
        T, dt = 2.0, 0.01
        for x0 in (g.origin(), g.point(1, 0.2)):
            est = filtered_kernel(g, x0, T, dt, 5, RngStream(59))
            dW = math.sqrt(dt) * RngStream(59).child(0).generator().standard_normal((2, 200))
            end = isde_n2_from_noise(g, x0, dW, dt)
            np.testing.assert_array_equal(est.rays, end.rays[-1])
            np.testing.assert_array_equal(est.radials, end.radials[-1])
            assert est.dispersion == 0.0
        disp = sample_kernel_dispersions(g, 1.0, [0.1, 0.025], 7, 4, RngStream(60))
        for d in disp.values():
            np.testing.assert_array_equal(d, 0.0)

    def test_dispersions_match_per_run_reference(self):
        # W drawn directly against W assembled around a forward path: the two
        # laws agree (each grid increment is a fresh N(0, dt) either way), so
        # the two-sample KS p-value is uniform and the test fails a correct
        # engine with probability 1e-3.
        g = make_star(3, [0.2, 0.5, 0.3])
        T, dt, runs, m = 1.0, 0.02, 300, 8
        batch = sample_kernel_dispersions(g, T, [dt], runs, m, RngStream(65))[dt]
        ref = _dispersions_reference(g, T, dt, runs, m, RngStream(66))
        assert batch.shape == (runs,) and np.all(batch >= 0.0)
        assert ks_two_sample(batch, ref).p_value > 1e-3

    def test_one_run_batch_is_filtered_kernel(self):
        # level 0 of the batch runs on rng.child(0), and its first chunk
        # on child 0 again, as filtered_kernel's one run does
        g = make_star(3, [0.2, 0.5, 0.3])
        one = filtered_kernel(g, g.origin(), 0.5, 0.01, 6, RngStream(67).child(0))
        disp = sample_kernel_dispersions(g, 0.5, [0.01], 1, 6, RngStream(67))[0.01]
        assert disp[0] == one.dispersion > 0.0

    def test_dispersion_is_the_largest_pairwise_distance(self):
        # same ray: |r_a - r_b|; distinct rays: r_a + r_b
        gen = RngStream(68).generator()
        for n_rays in (1, 2, 3, 5):
            rays = gen.integers(0, n_rays, (200, 7))
            rads = np.where(gen.random((200, 7)) < 0.1, 0.0, gen.exponential(size=(200, 7)))
            same = rays[:, :, None] == rays[:, None, :]
            pairwise = np.where(same, np.abs(rads[:, :, None] - rads[:, None, :]),
                                rads[:, :, None] + rads[:, None, :]).max(axis=(1, 2))
            np.testing.assert_array_equal(_dispersions(rays, rads, n_rays), pairwise)
