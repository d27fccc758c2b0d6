import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import j1, jn_zeros

from starflow import quadrant
from starflow.halfline import RngStream
from starflow.quadrant import (
    _disk_exits, _exit_time_table, _unit_exit_times,
    FixedAngles, LegOverflowError, expected_boundary_local_time,
    sample_legs, sample_quadrant_processes,
    tail_bound, ys_cdf, ys_log_mean, ys_log_square_moment, ys_moment,
)
from starflow.stats import ks_against_cdf, ks_two_sample, mc_estimate


def _hill(x, k):
    """Hill's tail-index estimate from the k largest values of x."""
    top = np.sort(x)[::-1][:k + 1]
    return 1.0 / np.mean(np.log(top[:k] / top[k]))


def _peng_mean(x, k, kappa):
    """Peng's (2001) tail-corrected mean of a sample whose tail is Pareto
    with index kappa > 1: the n - k smallest values as they are, and in
    place of the k largest, k times the Pareto mean kappa / (kappa - 1)
    times the threshold X_(n-k)."""
    s = np.sort(x)
    n = s.size
    return (s[:n - k].sum() + k * s[n - k - 1] * kappa / (kappa - 1.0)) / n


class TestOrbmLeg:
    """Recorded legs: rows 0..k-1 of a sample_legs batch."""

    @staticmethod
    def _legs(theta, seed):
        """Rows 0..2 of a batch."""
        return sample_legs(theta, 1.0, 1e-3, 200, RngStream(seed), record=3).paths

    def test_grid_identities_exact(self):
        for leg in self._legs(math.pi / 4, 1):
            assert np.allclose(leg.Y, leg.B2 + leg.L, rtol=0, atol=1e-12)
            assert np.allclose(leg.X, 1.0 + leg.B1 - math.tan(leg.theta) * leg.L,
                               rtol=0, atol=1e-12)
            assert np.all(leg.Y >= 0)
            assert np.all(np.diff(leg.L) >= 0)
            assert np.all(leg.X[:-1] > 0)
            assert leg.Y_S == leg.Y[-1] and leg.L_at_S == leg.L[-1]

    def test_local_time_grows_only_at_boundary(self):
        for leg in self._legs(math.pi / 3, 2):
            dl = np.diff(leg.L)
            # with exact bridge increments, dL > 0 means the within-step minimum
            # dipped below zero; the pre-step value must be near the boundary
            # on the scale of that step
            assert np.any(dl > 0)
            assert np.all(dl[leg.Y[:-1] > 6 * np.sqrt(leg.step_sizes)] == 0)

    def test_validation(self):
        for bad in [(-0.1, 1, 1e-3), (math.pi / 2, 1, 1e-3), (0.5, -1, 1e-3),
                    (0.5, 1, 0.0), (0.5, math.nan, 1e-3), (0.5, math.inf, 1e-3),
                    (0.5, 1, math.nan), (0.5, 1, -1e-3)]:
            with pytest.raises(ValueError):
                sample_legs(bad[0], bad[1], bad[2], 10, RngStream(3))

    def test_overflow_error(self):
        with pytest.raises(LegOverflowError):
            sample_legs(math.pi / 6, 1.0, 1e-6, 10, RngStream(4), max_steps=50)

    def test_extremes_bracket_path(self):
        for leg in sample_legs(math.pi / 4, 1.0, 1e-3, 200, RngStream(5), record=3).paths:
            assert leg.inf_abs <= 1.0 <= leg.sup_abs
            assert leg.inf_abs <= leg.Y_S
            az = np.sqrt(np.maximum(leg.X, 0.0) ** 2 + leg.Y * leg.Y)
            assert leg.sup_abs == az.max()


class TestLegSamples:
    @pytest.fixture(scope="class")
    def legs_pi4(self):
        return sample_legs(math.pi / 4, 1.0, 1e-4, 30000, RngStream(6))

    def test_mean_ys(self, legs_pi4):
        e = mc_estimate(legs_pi4.ys)
        assert abs(e.mean - 1.0) <= max(3 * e.stderr, 0.02)

    def test_log_moments(self, legs_pi4):
        lg = np.log(legs_pi4.ys)
        e = mc_estimate(lg)
        assert abs(e.mean - ys_log_mean(math.pi / 4)) <= max(3 * e.stderr, 0.02 * math.pi / 2)
        e2 = mc_estimate(lg ** 2)
        assert abs(e2.mean - ys_log_square_moment(math.pi / 4)) <= 0.03 * ys_log_square_moment(math.pi / 4)

    def test_local_time_matches_ys_mean(self, legs_pi4):
        # E[L_S] = E[Y_S] for every leg law
        el = mc_estimate(legs_pi4.local_times)
        ey = mc_estimate(legs_pi4.ys)
        assert abs(el.mean - ey.mean) <= 3 * (el.stderr + ey.stderr)

    def test_beta_prime_law(self, legs_pi4):
        r = ks_against_cdf(legs_pi4.ys ** 2,
                           lambda w: ys_cdf(math.pi / 4, 1.0, np.sqrt(w)))
        assert r.statistic < 0.015

    def test_x_scaling_law(self):
        # legs at (theta, x=2, dt) equal 2 x legs at (theta, 1, dt) in law
        # (dt is the step relative to x)
        a = sample_legs(math.pi / 3, 2.0, 1e-4, 20000, RngStream(7))
        b = sample_legs(math.pi / 3, 1.0, 1e-4, 20000, RngStream(8))
        r = ks_two_sample(a.ys, 2.0 * b.ys)
        assert r.statistic < 0.015
        rl = ks_two_sample(a.local_times, 2.0 * b.local_times)
        assert rl.statistic < 0.015

    @pytest.mark.parametrize("x", [1e-300, 0.37, 1e100, 1e200])
    def test_batch_at_x_is_x_times_the_unit_batch(self, x):
        # every leg runs at unit scale: a start of 1e-300 once never moved
        # (its first step underflowed to 0) and one of 1e200 turned to NaN
        one = sample_legs(math.pi / 5, 1.0, 1e-2, 200, RngStream(12), record=2)
        at = sample_legs(math.pi / 5, x, 1e-2, 200, RngStream(12), record=2)
        for f in ("ys", "local_times", "sup_abs", "inf_abs"):
            np.testing.assert_array_equal(getattr(at, f), x * getattr(one, f))
        # x * x is inf at 1e200, and so are those durations
        np.testing.assert_array_equal(at.durations, one.durations * (x * x))
        assert at.diagnostics() == one.diagnostics()
        for a, b in zip(at.paths, one.paths):
            assert a.x == x and a.Y_S == x * b.Y_S
            np.testing.assert_array_equal(a.Y, x * b.Y)

    def test_chunks_are_kernel_runs_in_order(self, check_chunks):
        rng = RngStream(9)
        s = sample_legs(math.pi / 4, 1.0, 1e-2, 10, rng, chunk=4)
        check_chunks((s.ys, s.local_times, s.sup_abs, s.inf_abs, s.durations), 10, 4, rng)

    def test_tail_steps_counted_from_the_record(self):
        # a recorded leg has one step size per batch step it was active in
        out = sample_legs(math.pi / 4, 1.0, 1e-2, 300, RngStream(11), record=300)
        steps = [len(leg.step_sizes) for leg in out.paths]
        assert out.diagnostics()["tail_steps"] == _tail_steps([steps]) > 0

    def test_longest_leg_steps_is_the_longest_batch(self):
        # one chunk: its longest leg ran every batch step; three chunks: the
        # longest of the three batches, below their summed steps
        one = sample_legs(math.pi / 4, 1.0, 1e-2, 300, RngStream(11), record=300)
        longest = one.diagnostics()["longest_leg_steps"]
        assert longest == max(len(leg.step_sizes) for leg in one.paths) == one.batch_steps
        three = sample_legs(math.pi / 4, 1.0, 1e-2, 300, RngStream(11), chunk=100, record=100)
        longest = three.diagnostics()["longest_leg_steps"]
        assert max(len(leg.step_sizes) for leg in three.paths) <= longest < three.batch_steps
        assert longest >= 1

    def test_per_leg_angles(self):
        thetas = np.where(np.arange(4000) % 2 == 0, math.pi / 3, math.pi / 6)
        s = sample_legs(thetas, 1.0, 1e-3, 4000, RngStream(10))
        even = mc_estimate(s.ys[::2])
        odd = mc_estimate(s.ys[1::2])
        assert abs(even.mean - ys_moment(math.pi / 3, 1.0)) <= max(3 * even.stderr, 0.05)
        assert abs(odd.mean - ys_moment(math.pi / 6, 1.0)) <= max(3 * odd.stderr, 0.15)


def _tail_steps(batches):
    """Steps with fewer than 1 % of their batch's rows active, summed over
    batches given as the step count of each of their rows."""
    total = 0
    for steps in batches:
        active = np.bincount(steps)[::-1].cumsum()[:-1]
        total += np.count_nonzero(100 * active < len(steps))
    return total


def _leg_reference(theta, x, dt, n, gen, max_legs=1, eps=0.0):
    """Plain loop over the active processes, held as a list of ids in row
    order; theta broadcasts to (2, n), and the legs of process j take
    theta[0, j] and theta[1, j] in turn. Per step the active legs draw two
    normals each. A leg whose free disk (radius rho, the least of X, Y and
    the distances of |Z| to its running inf and sup) has
    rho >= sqrt(2) sqrt(h) jumps to rho' z / |z| after the time
    rho'^2 tau_1(|z|^2 / 2), with rho' = rho (1 - 1e-9), and draws nothing
    more. Then each other active leg whose free endpoint w has Y w < 19 h
    draws the uniform of its bridge minimum, and each other active leg that
    neither crossed nor touched and has X X_new < 19 h draws its crossing
    uniform, all in row order. When a leg ends, its process's scale U (from
    1) and its totals sum U L_S and sum U^2 S (from 0) take it, and U
    becomes U Y_S; the process restarts at (x, 0), with L and t at 0, sup
    and inf at x and its next angle, unless it has run max_legs legs or
    U < eps. When j processes end, the live ones among the last j rows
    fill, in order, the rows of the ended ones before them, and the list
    shrinks by j. Returns per process U, sum U L_S, the sup and inf of its
    last leg, sum U^2 S and its legs, and the counts."""
    th = np.broadcast_to(np.asarray(theta, dtype=float), (2, n))
    tan_t = np.tan(th[0])
    X, Y, L = np.full(n, float(x)), np.zeros(n), np.zeros(n)
    sup, inf, t = X.copy(), X.copy(), np.zeros(n)
    rows = list(range(n))
    U, l_tot, sups, infs, t_tot = np.ones(n), *(np.zeros(n) for _ in range(4))
    legs = np.zeros(n, dtype=np.int64)
    path_steps = jumps = bridge = crossing = 0
    while rows:
        a = np.array(rows)
        Xa, Ya = X[a], Y[a]
        h = np.maximum(np.minimum(dt, (Xa * Xa + Ya * Ya) / 144.0), Xa * Xa / 144.0)
        z1 = gen.standard_normal(a.size)
        z2 = gen.standard_normal(a.size)
        dx, dy = np.sqrt(h) * z1, np.sqrt(h) * z2
        jumped = np.zeros(a.size, dtype=bool)
        for k in range(a.size):
            r = math.sqrt(Xa[k] * Xa[k] + Ya[k] * Ya[k])
            rho = min(Xa[k], Ya[k], r - inf[a[k]], sup[a[k]] - r)
            if rho >= math.sqrt(2.0) * math.sqrt(h[k]):
                zeta = 0.5 * (z1[k] * z1[k] + z2[k] * z2[k])
                rho *= 1.0 - 1e-9
                dx[k] = rho / math.sqrt(2.0 * zeta) * z1[k]
                dy[k] = rho / math.sqrt(2.0 * zeta) * z2[k]
                h[k] = rho * rho * _unit_exit_times(zeta)
                jumped[k] = True
                jumps += 1
        w = Ya + dy
        dL = np.zeros(a.size)
        for k in range(a.size):
            if not jumped[k] and Ya[k] * w[k] < 19.0 * h[k]:
                u = gen.random()
                # d * d, as numpy squares arrays: a scalar ** 2 is C pow, off by an ulp at times
                d = Ya[k] - w[k]
                m = 0.5 * (Ya[k] + w[k] - math.sqrt(d * d - 2.0 * h[k] * np.log(u)))
                dL[k] = max(-m, 0.0)
                bridge += 1
        Yn = w + dL
        Xn = Xa + dx - tan_t[a] * dL
        done = Xn <= 0.0
        for k in range(a.size):
            if not (done[k] or jumped[k]) and dL[k] == 0.0 and Xa[k] * Xn[k] < 19.0 * h[k]:
                done[k] = gen.random() < np.exp(-2.0 * Xa[k] * Xn[k] / h[k])
                crossing += 1
        az = np.sqrt(np.maximum(Xn, 0.0) ** 2 + Yn * Yn)
        sup[a] = np.maximum(sup[a], az)
        inf[a] = np.minimum(inf[a], np.where(done, Yn, az))
        t[a] += h
        X[a], Y[a], L[a] = Xn, Yn, L[a] + dL
        path_steps += a.size
        for k in np.flatnonzero(done):
            p = a[k]
            l_tot[p] += U[p] * L[p]
            t_tot[p] += U[p] * U[p] * t[p]
            U[p] *= Y[p]
            sups[p], infs[p] = sup[p], inf[p]
            legs[p] += 1
            if legs[p] < max_legs and U[p] >= eps:
                X[p], Y[p], L[p], t[p], sup[p], inf[p] = x, 0.0, 0.0, 0.0, x, x
                tan_t[p] = np.tan(th[legs[p] % 2, p])
                done[k] = False
        k = a.size - np.count_nonzero(done)
        holes = [j for j in range(k) if done[j]]
        for hole, j in zip(holes, [j for j in range(k, a.size) if not done[j]]):
            rows[hole] = rows[j]
        del rows[k:]
    return U, l_tot, sups, infs, t_tot, legs, path_steps, jumps, bridge, crossing


class TestLegBatchMatchesReference:
    # the per-leg angles alternate by row: a retirement that moves a live
    # row without its angle gives it the wrong reflection
    @pytest.mark.parametrize("seed, theta", [
        (31, math.pi / 4), (32, math.pi / 6),
        (33, np.where(np.arange(200) % 2 == 0, math.pi / 6, math.pi / 3)),
        # processes of up to 5 legs that restart in place and alternate
        # their angles: a row that restarts without its next angle, or
        # that keeps its L or its time, leaves the reference
        (34, FixedAngles(math.pi / 6, math.pi / 3))])
    def test_bit_identical(self, seed, theta):
        if isinstance(theta, FixedAngles):
            out = sample_quadrant_processes(theta, 1.0, 1e-2, 1e-2, 5, 200, RngStream(seed))
            u, l_tot, _, _, t_tot, legs, path_steps, jumps, *_ = _leg_reference(
                [[theta.theta1], [theta.theta2]], 1.0, 1e-2, 200,
                RngStream(seed).child(0).generator(), max_legs=5, eps=1e-2)
            for got, want in zip((out.l_totals, out.sigma0_times, out.n_legs, out.terminated),
                                 (l_tot, t_tot, legs, u < 1e-2)):
                np.testing.assert_array_equal(got, want)
            assert (out.path_steps, out.jumps) == (path_steps, jumps)
            assert out.terminated.any() and not out.terminated.all() and legs.max() == 5
            return
        out = sample_legs(theta, 1.0, 1e-2, 200, RngStream(seed))
        *ref, path_steps, jumps, bridge, crossing = _leg_reference(
            theta, 1.0, 1e-2, 200, RngStream(seed).child(0).generator())
        for got, want in zip((out.ys, out.local_times, out.sup_abs, out.inf_abs,
                              out.durations), ref):
            np.testing.assert_array_equal(got, want)
        assert (out.path_steps, out.jumps, out.bridge_uniforms, out.crossing_uniforms) == \
            (path_steps, jumps, bridge, crossing)
        assert jumps > 0 and bridge > 0 and crossing > 0

    def test_draws_few_words_per_path_step(self, philox_words):
        # two normals per path-step, plus a uniform only near a boundary
        out = sample_legs(math.pi / 6, 1.0, 1e-3, 2000, RngStream(34))
        assert philox_words() / out.path_steps < 3.2
        assert out.batch_steps > 0 and out.path_steps >= out.batch_steps


def _unit_exit_survival(t):
    """P(tau_1 > t) for the exit time tau_1 of planar Brownian motion from
    the unit disk, by its series over the first 400 zeros j_k of J_0."""
    j = jn_zeros(0, 400)
    return sum(c * np.exp(-0.5 * jk * jk * t) for jk, c in zip(j, 2.0 / (j * j1(j))))


class TestDiskExits:
    """The exact jump: exit point and exit time of a disk from two normals."""

    def test_table_cdf_error_below_stated_bound(self):
        # the quantile at the level zeta of each reference time t has the
        # CDF of t, up to the stated 3e-7
        t = np.geomspace(0.012, 8.0, 20001)
        surv = _unit_exit_survival(t)
        err = np.abs(_unit_exit_survival(_unit_exit_times(-np.log(surv))) - surv)
        assert err.max() < 3e-7

    def test_table_moments_match_laplace_transform(self):
        # E exp(-lam tau_1) = 1 / I_0(sqrt(2 lam)) = 1 - lam/2 + 3 lam^2/16 - ...,
        # so E tau_1 = 1/2 and E tau_1^2 = 3/8; zeta is Exp(1). A CDF error
        # of 3e-7 over t < 10 moves E tau_1 by 3e-6 and E tau_1^2 by 3e-5 at most
        zeta = np.linspace(0.0, 60.0, 600001)
        q = _unit_exit_times(zeta)
        w = np.exp(-zeta)
        assert integrate.trapezoid(q * w, zeta) == pytest.approx(0.5, abs=3e-6)
        assert integrate.trapezoid(q * q * w, zeta) == pytest.approx(0.375, abs=3e-5)

    def test_guided_lookup_is_np_interp_bit_for_bit(self):
        # the guide needs strictly increasing levels; then the lookup must be
        # the table's np.interp with its linear tail, to the last bit
        H, t, slope = _exit_time_table()
        assert np.all(np.diff(H) > 0)
        gen = RngStream(43).generator()
        zeta = np.concatenate([
            gen.standard_exponential(1_000_000),
            H, np.nextafter(H, -np.inf), np.nextafter(H, np.inf),
            [0.0, 5e-324, 1e-300, H[0] / 2, np.nextafter(H[-1], np.inf)],
            np.linspace(H[-1], 700.0, 10001)])
        want = np.interp(zeta, H, t) + slope * np.maximum(zeta - H[-1], 0.0)
        np.testing.assert_array_equal(_unit_exit_times(zeta), want)
        # 2-D levels keep their shape, and a 0-d level gives a scalar
        np.testing.assert_array_equal(_unit_exit_times(zeta[:6].reshape(2, 3)),
                                      want[:6].reshape(2, 3))
        for z in (0.0, 0.004, 0.7, float(H[-1]), 40.0, np.float64(2.5), np.array(9.0)):
            got = _unit_exit_times(z)
            assert np.ndim(got) == 0
            assert got == np.interp(z, H, t) + slope * max(z - H[-1], 0.0)

    def test_exit_law_from_two_normals(self):
        gen = RngStream(40).generator()
        z1, z2 = gen.standard_normal(20000), gen.standard_normal(20000)
        r = 1.0 - 1e-9
        scale, tau = _disk_exits(np.ones(20000), z1, z2)
        dx, dy = scale * z1, scale * z2
        np.testing.assert_allclose(np.hypot(dx, dy), r, rtol=1e-15)
        ks = ks_against_cdf(tau / (r * r), lambda t: 1.0 - _unit_exit_survival(t))
        assert ks.p_value > 1e-3
        angle = (np.arctan2(dy, dx) + np.pi) / (2.0 * np.pi)
        assert ks_against_cdf(angle, lambda u: u).p_value > 1e-3

    def test_jumps_end_strictly_inside_both_boundaries(self):
        # a disk of radius X (or Y) aimed straight at its boundary, or with
        # random directions: rounding never puts the end on the boundary
        gen = RngStream(41).generator()
        xy = np.concatenate([np.geomspace(1e-150, 1e150, 601), gen.uniform(0.0, 3.0, 5000)])
        tiny = np.full(xy.size, 1e-300)
        for z1, z2 in ((-np.ones_like(xy), tiny), (-np.ones_like(xy), -tiny),
                       (gen.standard_normal(xy.size), gen.standard_normal(xy.size))):
            # s is symmetric in (z1, z2): aimed along z1 covers both boundaries
            scale, _ = _disk_exits(xy, z1, z2)
            assert np.all(xy + scale * z1 > 0) and np.all(xy + scale * z2 > 0)


def _jump_gate(monkeypatch, seed):
    """Two-sample KS p-values of the jump engine against the stepping engine
    (JUMP = inf), on 20 000 independent legs each at theta = pi/6, dt 1e-2."""
    jumps = sample_legs(math.pi / 6, 1.0, 1e-2, 20000, RngStream(seed))
    monkeypatch.setattr(quadrant, "JUMP", math.inf)
    steps = sample_legs(math.pi / 6, 1.0, 1e-2, 20000, RngStream(seed).child(1))
    assert steps.jumps == 0 < jumps.jumps
    return {f: ks_two_sample(getattr(jumps, f), getattr(steps, f)).p_value
            for f in ("ys", "local_times", "durations", "sup_abs", "inf_abs")}


class TestJumpsMatchStepping:
    def test_same_law_as_the_stepping_engine(self, monkeypatch):
        # Y_S, L_S, the duration and the sup and inf of |Z|, each at
        # p > 2e-4: Bonferroni over five tests, a false-failure rate of 1e-3
        p = _jump_gate(monkeypatch, 42)
        assert min(p.values()) > 1e-3 / 5, p


class TestClosedForms:
    def test_cdf_endpoints(self):
        assert ys_cdf(math.pi / 4, 1.0, 0.0) == 0.0
        assert ys_cdf(math.pi / 4, 1.0, np.inf) == pytest.approx(1.0)

    def test_cdf_against_quadrature(self):
        # at theta = pi/4, y = 0.5: w = 0.25/1.25 = 0.2, so the CDF is the
        # beta ratio I_0.2(1/4, 3/4), computed here by quadrature
        a, b = 0.25, 0.75
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        num, _ = integrate.quad(dens, 0, 0.2, epsabs=1e-13, epsrel=1e-13)
        den, _ = integrate.quad(dens, 0, 1, epsabs=1e-13, epsrel=1e-13)
        val = ys_cdf(math.pi / 4, 1.0, 0.5)
        assert val == pytest.approx(num / den, rel=1e-10)
        assert val == pytest.approx(0.6085663817129537, rel=1e-9)  # frozen oracle value

    def test_cdf_scaling(self):
        for y in (0.2, 1.0, 3.7):
            assert ys_cdf(math.pi / 3, 2.0, y) == pytest.approx(
                ys_cdf(math.pi / 3, 1.0, y / 2.0), abs=1e-12)

    def test_cdf_median_by_bisection(self):
        # median of Y_S^2 solves I_w(1/4, 3/4) = 1/2; check CDF at the root
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ys_cdf(math.pi / 4, 1.0, math.sqrt(mid)) < 0.5:
                lo = mid
            else:
                hi = mid
        med = 0.5 * (lo + hi)
        legs = sample_legs(math.pi / 4, 1.0, 1e-3, 20000, RngStream(11))
        frac = np.mean(legs.ys ** 2 <= med)
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 20000) + 0.01

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            ys_cdf(math.pi / 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            ys_cdf(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: ys_moment(0.5, 0.5, -1.0),      # was a complex number
        lambda: ys_moment(0.5, 0.5, math.nan),
        lambda: ys_cdf(0.5, math.nan, 1.0),     # was nan
        lambda: ys_cdf(0.5, 1.0, math.nan),
        lambda: ys_cdf(0.5, 1.0, [0.5, math.nan]),
        lambda: ys_log_mean(0.5, math.nan),
        lambda: tail_bound(0.5, math.nan, 2.0, 0.5, "up"),
        lambda: expected_boundary_local_time(1.2, 1.2, math.nan),
        lambda: expected_boundary_local_time(1.2, 1.2, -1.0),
    ])
    def test_bad_start_or_level_raises(self, call):
        with pytest.raises(ValueError):
            call()

    def test_moment_examples(self):
        assert ys_moment(math.pi / 4, 1.0, 1.0) == pytest.approx(1.0)
        assert ys_moment(math.pi / 6, 1.0, 1.0) == pytest.approx(math.sqrt(3))
        assert ys_moment(math.pi / 3, 0.0, 5.0) == pytest.approx(1.0)
        assert ys_log_mean(math.pi / 4, 1.0) == pytest.approx(-math.pi / 2)
        assert ys_log_square_moment(math.pi / 4) == pytest.approx(3 * math.pi ** 2 / 4)

    def test_moment_validity_interval(self):
        with pytest.raises(ValueError):
            ys_moment(math.pi / 6, 2.0, 1.0)
        with pytest.raises(ValueError):
            ys_moment(math.pi / 4, -0.6, 1.0)

    def test_tail_bound_cases(self):
        # b below the free threshold: constant 1
        assert tail_bound(math.pi / 4, 1.0, 2.0, 1.0, "up") == pytest.approx(0.5)
        # above it: the cosine ratio appears
        c = math.cos(math.pi / 4) / math.cos(1.4 * math.pi / 2 - math.pi / 4)
        assert tail_bound(math.pi / 4, 1.0, 2.0, 1.4, "up") == pytest.approx(c * 0.5 ** 1.4)
        cd = math.cos(math.pi / 6) / math.cos(0.25 * math.pi + math.pi / 6)
        assert tail_bound(math.pi / 6, 1.0, 0.5, 0.5, "down") == pytest.approx(cd * 0.5 ** 0.5)

    def test_tail_bound_validation(self):
        with pytest.raises(ValueError):
            tail_bound(math.pi / 4, 1.0, 0.5, 1.0, "up")      # a must exceed x
        with pytest.raises(ValueError):
            tail_bound(math.pi / 4, 1.0, 2.0, 1.6, "up")      # b out of range
        with pytest.raises(ValueError):
            tail_bound(math.pi / 4, 1.0, 0.5, 0.6, "down")    # b out of range
        with pytest.raises(ValueError):
            tail_bound(math.pi / 4, 1.0, 2.0, 1.0, "sideways")

    def test_expected_local_time(self):
        assert expected_boundary_local_time(math.pi / 3, math.pi / 3, 1.0) == \
            pytest.approx((math.sqrt(3) + 1) / 2)
        assert expected_boundary_local_time(math.pi / 4, math.pi / 4, 1.0) == math.inf
        assert expected_boundary_local_time(math.pi / 6, math.pi / 6, 1.0) == math.inf
        # linear in the start point
        assert expected_boundary_local_time(math.pi / 3, math.pi / 3, 2.0) == \
            pytest.approx(math.sqrt(3) + 1)
        # first angle on the first boundary: formula is asymmetric
        a = expected_boundary_local_time(1.0, 1.3, 1.0)
        b = expected_boundary_local_time(1.3, 1.0, 1.0)
        assert a != pytest.approx(b)


class TestQuadrantProcess:
    def test_structure_and_termination(self):
        src = FixedAngles(math.pi / 3, math.pi / 3)
        batch = sample_quadrant_processes(src, 1.0, 1e-3, 1e-3, 200, 20, RngStream(12),
                                          record=3)
        for j, proc in enumerate(batch.paths):
            assert batch.terminated[j] and len(proc.legs) == batch.n_legs[j]
            assert proc.legs[0].x == 1.0 and proc.legs[-1].Y_S < 1e-3
            assert all(leg.Y_S >= 1e-3 for leg in proc.legs[:-1])
            for leg, nxt in zip(proc.legs, proc.legs[1:]):
                assert nxt.x == pytest.approx(leg.Y_S)
            # leg-wise local time and time accumulate
            assert batch.l_totals[j] == pytest.approx(sum(l.L_at_S for l in proc.legs))
            assert batch.sigma0_times[j] == pytest.approx(sum(l.times[-1] for l in proc.legs))

    @pytest.mark.parametrize("x", [1e-100, 1e100, 1e200])
    def test_batch_at_x_is_x_times_the_unit_batch(self, x):
        # processes run at unit scale down to eps_stop / x: at 1e200 the
        # squared scales of the corner time once overflowed
        src = FixedAngles(1.0, 1.0)
        eps = 0.01 * x
        one = sample_quadrant_processes(src, 1.0, 1e-2, eps / x, 100, 40, RngStream(19),
                                        record=2)
        at = sample_quadrant_processes(src, x, 1e-2, eps, 100, 40, RngStream(19), record=2)
        np.testing.assert_array_equal(at.l_totals, x * one.l_totals)
        # x * x is inf at 1e200, and so are those corner times
        np.testing.assert_array_equal(at.sigma0_times, one.sigma0_times * (x * x))
        np.testing.assert_array_equal(at.n_legs, one.n_legs)
        np.testing.assert_array_equal(at.terminated, one.terminated)
        assert at.terminated.any() and one.n_legs.max() > 1
        for a, b in zip(at.paths, one.paths):
            assert [leg.x for leg in a.legs] == [x * leg.x for leg in b.legs]
            assert [leg.L_at_S / x for leg in a.legs] == \
                pytest.approx([leg.L_at_S for leg in b.legs], rel=1e-15)

    def test_angles_alternate(self):
        src = FixedAngles(math.pi / 3, math.pi / 4)
        procs = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 200, 5, RngStream(13),
                                          record=5).paths
        assert max(len(proc.legs) for proc in procs) > 1
        for proc in procs:
            for n, leg in enumerate(proc.legs):
                assert leg.theta == (math.pi / 3 if n % 2 == 0 else math.pi / 4)

    def test_leg_cap_flagged(self):
        src = FixedAngles(math.pi / 6, math.pi / 6)
        batch = sample_quadrant_processes(src, 1.0, 1e-3, 1e-6, 2, 5, RngStream(14), record=1)
        assert not batch.terminated[0] and len(batch.paths[0].legs) == batch.n_legs[0] == 2
        d = batch.diagnostics()
        assert d["unterminated"] == np.count_nonzero(~batch.terminated) > 0
        assert 0 < d["jumps"] < d["path_steps"]

    def test_tail_steps_counted_from_the_record(self):
        src = FixedAngles(math.pi / 4, math.pi / 3)
        batch = sample_quadrant_processes(src, 1.0, 1e-2, 1e-2, 20, 300, RngStream(20),
                                          record=300)
        # a recorded process has one step size per batch step it was
        # active in, across its legs
        steps = [sum(len(leg.step_sizes) for leg in proc.legs) for proc in batch.paths]
        assert batch.diagnostics()["tail_steps"] == _tail_steps([steps]) > 0
        # one chunk: its longest process ran all of its batch's steps
        longest = batch.diagnostics()["longest_leg_steps"]
        assert longest == max(steps) == batch.batch_steps

    def test_eps_validation(self):
        src = FixedAngles(1.0, 1.0)
        for x, dt, eps, max_legs in [(1.0, 1e-3, 2.0, 10), (1.0, 1e-3, 0.0, 10),
                                     (1.0, math.nan, 1e-2, 10), (math.nan, 1e-3, 1e-2, 10),
                                     (math.inf, 1e-3, 1e-2, 10), (1.0, 1e-3, 1e-2, 0)]:
            with pytest.raises(ValueError):
                sample_quadrant_processes(src, x, dt, eps, max_legs, 10, RngStream(15))

    def test_ratio_law_and_drift(self):
        # U_{n+1}/U_n are independent with the leg endpoint law
        src = FixedAngles(math.pi / 3, math.pi / 3)
        batch = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 50, 400, RngStream(16),
                                          record=400)
        ratios = np.array([leg.Y_S / leg.x for proc in batch.paths for leg in proc.legs])
        r = ks_against_cdf(ratios ** 2, lambda w: ys_cdf(math.pi / 3, 1.0, np.sqrt(w)))
        assert r.statistic < 0.05
        e = mc_estimate(np.log(ratios))
        assert abs(e.mean - ys_log_mean(math.pi / 3)) <= 3 * e.stderr + 0.02

    def test_batch_matches_formula(self):
        # L_total has tail index kappa = 2 (th1 + th2)/pi = 4/3 < 2, so its
        # variance is infinite and a stderr band on its sample mean has no
        # stated rate. Peng's tail-corrected mean at this kappa with
        # k = 1000 of 30 000 read 1.369 (sd 0.019) over seeds 100-119,
        # against 1.366: the 5 % band lies 3.4 sd above that and 3.8 sd
        # below, a false-failure rate of about 4e-4 (normal approximation)
        src = FixedAngles(math.pi / 3, math.pi / 3)
        batch = sample_quadrant_processes(src, 1.0, 2.5e-4, 1e-3, 200, 30000,
                                          RngStream(17))
        target = expected_boundary_local_time(math.pi / 3, math.pi / 3, 1.0)
        mean = _peng_mean(batch.l_totals, 1000, 4.0 / 3.0)
        assert abs(mean - target) <= 0.05 * target
        assert np.mean(batch.terminated) > 0.999

    def test_chunks_are_kernel_runs_in_order(self, check_chunks):
        rng = RngStream(18)
        b = sample_quadrant_processes(FixedAngles(math.pi / 6, math.pi / 3), 1.0, 1e-2,
                                      1e-1, 50, 10, rng, chunk=4)
        # the kernel's columns at x = 1: U, sum U L_S, the last leg's sup
        # and inf, sum U^2 S and the legs; terminated is U < eps
        check_chunks((None, b.l_totals, None, None, b.sigma0_times, b.n_legs), 10, 4, rng)

    def test_divergent_angles_grow(self):
        # When tan th1 tan th2 <= 1 the mean of L_total is infinite at every
        # eps_stop, so sample means say nothing. L_total is a perpetuity over
        # the leg ratios r1, r2; its Kesten-Goldie tail index kappa solves
        # E[r1^kappa] E[r2^kappa] = 1, i.e. kappa = 2 (th1 + th2)/pi, and the
        # mean is infinite exactly when kappa <= 1.
        angles = [0.1, 0.4, math.pi / 6, math.pi / 4, 1.2, 1.5]
        for t1, t2 in itertools.product(angles, angles):
            kappa = 2.0 * (t1 + t2) / math.pi
            assert ys_moment(t1, kappa) * ys_moment(t2, kappa) == pytest.approx(1.0)
            assert (kappa <= 1.0) == math.isinf(expected_boundary_local_time(t1, t2))

        # Hill's estimate over the top k = n/10 values has sd about kappa/sqrt(k)
        n, k = 5000, 500

        def hill_of(t1, t2, child):
            batch = sample_quadrant_processes(FixedAngles(t1, t2), 1.0, 1e-2, 0.1,
                                              400, n, RngStream(19).child(child))
            assert np.mean(batch.terminated) > 0.999
            return _hill(batch.l_totals, k)

        pairs = [(math.pi / 6, math.pi / 6), (math.pi / 6, math.pi / 4)]
        for child, (t1, t2) in enumerate(pairs):
            kappa = 2.0 * (t1 + t2) / math.pi
            assert abs(hill_of(t1, t2, child) - kappa) <= 4 * kappa / math.sqrt(k)
        # negative control: at pi/3, pi/3 (kappa = 4/3) the estimate must
        # leave the band around 2/3, so the check above can fail
        kappa = 2.0 / 3.0
        assert abs(hill_of(math.pi / 3, math.pi / 3, 2) - kappa) > 4 * kappa / math.sqrt(k)


def _round_processes(theta1, theta2, dt, eps, max_legs, n, rng):
    """Quadrant processes built as leg rounds: round k runs leg k of the
    processes still active as one ``sample_legs`` batch from 1, with one
    angle per process, on rng.child(k), and rescales it by each process's
    U. Returns the l_totals, sigma0_times and n_legs."""
    u, l_tot, t_tot = np.ones(n), np.zeros(n), np.zeros(n)
    legs = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for k in range(max_legs):
        if not active.size:
            break
        theta = np.full(active.size, theta1 if k % 2 == 0 else theta2)
        s = sample_legs(theta, 1.0, dt, active.size, rng.child(k))
        l_tot[active] += u[active] * s.local_times
        t_tot[active] += u[active] ** 2 * s.durations
        u[active] *= s.ys
        legs[active] += 1
        active = active[u[active] >= eps]
    return l_tot, t_tot, legs


def _restart_gate(seed):
    """p-values of the restart engine against the leg rounds on 2000
    processes each at (pi/6, pi/3), dt 1e-2, eps 1e-2: two-sample KS on
    l_totals and sigma0_times, and chi^2 homogeneity on n_legs with the
    values above the pooled 99 % quantile in one bin."""
    from scipy.stats import chi2_contingency
    n, eps = 2000, 1e-2
    batch = sample_quadrant_processes(FixedAngles(math.pi / 6, math.pi / 3), 1.0, 1e-2, eps,
                                      400, n, RngStream(seed))
    assert batch.terminated.all()
    l_tot, t_tot, legs = _round_processes(math.pi / 6, math.pi / 3, 1e-2, eps, 400, n,
                                          RngStream(seed).child(1))
    cap = int(np.quantile(np.concatenate([batch.n_legs, legs]), 0.99))
    table = [np.bincount(np.minimum(a, cap), minlength=cap + 1)[1:] for a in (batch.n_legs, legs)]
    return {"l_totals": ks_two_sample(batch.l_totals, l_tot).p_value,
            "sigma0_times": ks_two_sample(batch.sigma0_times, t_tot).p_value,
            "n_legs": chi2_contingency(table).pvalue}


class TestRestartsMatchRounds:
    def test_same_law_as_the_leg_rounds(self):
        """Legs that restart in place against the round construction: each
        of the three p-values above 1e-3 / 3 (Bonferroni), a family-wise
        false-failure rate of 1e-3."""
        p = _restart_gate(50)
        assert min(p.values()) > 1e-3 / 3, p


class TestRecordingIsPassive:
    """record = k keeps rows 0..k-1 of chunk 0 and changes no output."""

    def test_legs(self):
        plain = sample_legs(math.pi / 5, 1.0, 1e-3, 300, RngStream(70), chunk=100)
        kept = sample_legs(math.pi / 5, 1.0, 1e-3, 300, RngStream(70), chunk=100, record=100)
        for f in ("ys", "local_times", "sup_abs", "inf_abs", "durations"):
            np.testing.assert_array_equal(getattr(plain, f), getattr(kept, f))
        assert plain.diagnostics() == kept.diagnostics() and plain.paths == []
        assert len(kept.paths) == 100
        for j, leg in enumerate(kept.paths):
            assert leg.Y[-1] == leg.Y_S == kept.ys[j]
            assert leg.L[-1] == leg.L_at_S == kept.local_times[j]
            assert (leg.sup_abs, leg.inf_abs) == (kept.sup_abs[j], kept.inf_abs[j])
            assert leg.times[-1] == kept.durations[j]

    def test_quadrant(self):
        src = FixedAngles(math.pi / 6, math.pi / 3)
        plain = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 60, RngStream(71), chunk=20)
        kept = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 60, RngStream(71), chunk=20,
                                         record=20)
        for f in ("l_totals", "n_legs", "terminated", "sigma0_times"):
            np.testing.assert_array_equal(getattr(plain, f), getattr(kept, f))
        assert plain.paths == [] and len(kept.paths) == 20
        assert plain.diagnostics() == kept.diagnostics()
        for j, proc in enumerate(kept.paths):
            assert sum(leg.L_at_S for leg in proc.legs) == kept.l_totals[j]
            assert len(proc.legs) == kept.n_legs[j]
            assert kept.terminated[j] == (proc.legs[-1].Y_S < 1e-2)

    @pytest.mark.parametrize("record, chunk", [(-1, 100), (301, 1000), (101, 100)])
    def test_out_of_range_record_rejected(self, record, chunk):
        with pytest.raises(ValueError):
            sample_legs(math.pi / 5, 1.0, 1e-3, 300, RngStream(72), chunk=chunk, record=record)
        with pytest.raises(ValueError):
            sample_quadrant_processes(FixedAngles(1.0, 1.0), 1.0, 1e-3, 1e-2, 10, 300,
                                      RngStream(72), chunk=chunk, record=record)
