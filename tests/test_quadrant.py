import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from starflow.halfline import RngStream
from starflow.quadrant import (
    FixedAngles, LegOverflowError, UniformAngles, expected_boundary_local_time,
    sample_legs, sample_quadrant_processes,
    tail_bound, ys_cdf, ys_log_mean, ys_log_square_moment, ys_moment,
)
from starflow.stats import ks_against_cdf, ks_two_sample, mc_estimate


def _hill(x, k):
    """Hill's tail-index estimate from the k largest values of x."""
    top = np.sort(x)[::-1][:k + 1]
    return 1.0 / np.mean(np.log(top[:k] / top[k]))


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

    def test_threads_do_not_change_results(self):
        a = sample_legs(math.pi / 4, 1.0, 1e-3, 5000, RngStream(9), chunk=1024, threads=1)
        b = sample_legs(math.pi / 4, 1.0, 1e-3, 5000, RngStream(9), chunk=1024, threads=3)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.local_times, b.local_times)

    def test_per_leg_angles(self):
        thetas = np.where(np.arange(4000) % 2 == 0, math.pi / 3, math.pi / 6)
        s = sample_legs(thetas, 1.0, 1e-3, 4000, RngStream(10))
        even = mc_estimate(s.ys[::2])
        odd = mc_estimate(s.ys[1::2])
        assert abs(even.mean - ys_moment(math.pi / 3, 1.0)) <= max(3 * even.stderr, 0.05)
        assert abs(odd.mean - ys_moment(math.pi / 6, 1.0)) <= max(3 * odd.stderr, 0.15)


def _leg_reference(theta, x, dt, n, gen, refine):
    """Plain loop over the whole batch with an active mask. Per step the
    active legs draw two normals each; then each active leg whose free
    endpoint w has Y w < 19 h draws the uniform of its bridge minimum, and
    (with refine) each active leg that neither crossed nor touched and has
    X X_new < 19 h draws its crossing uniform, all in leg order."""
    tan_t = np.tan(theta)
    X, Y, L = np.full(n, float(x)), np.zeros(n), np.zeros(n)
    sup, inf, t = X.copy(), X.copy(), np.zeros(n)
    active = np.ones(n, dtype=bool)
    ys, ls, sups, infs, durs = (np.zeros(n) for _ in range(5))
    path_steps = bridge = crossing = 0
    while active.any():
        a = np.flatnonzero(active)
        Xa, Ya = X[a], Y[a]
        h = np.maximum(np.minimum(dt, (Xa * Xa + Ya * Ya) / 144.0), Xa * Xa / 144.0)
        z1 = gen.standard_normal(a.size)
        z2 = gen.standard_normal(a.size)
        w = Ya + np.sqrt(h) * z2
        dL = np.zeros(a.size)
        for k in range(a.size):
            if Ya[k] * w[k] < 19.0 * h[k]:
                u = gen.random()
                m = 0.5 * (Ya[k] + w[k] - math.sqrt((Ya[k] - w[k]) ** 2 - 2.0 * h[k] * np.log(u)))
                dL[k] = max(-m, 0.0)
                bridge += 1
        Yn = w + dL
        Xn = Xa + np.sqrt(h) * z1 - tan_t * dL
        done = Xn <= 0.0
        if refine:
            for k in range(a.size):
                if not done[k] and dL[k] == 0.0 and Xa[k] * Xn[k] < 19.0 * h[k]:
                    done[k] = gen.random() < np.exp(-2.0 * Xa[k] * Xn[k] / h[k])
                    crossing += 1
        az = np.sqrt(np.maximum(Xn, 0.0) ** 2 + Yn * Yn)
        sup[a] = np.maximum(sup[a], az)
        inf[a] = np.minimum(inf[a], np.where(done, Yn, az))
        t[a] += h
        X[a], Y[a], L[a] = Xn, Yn, L[a] + dL
        fin = a[done]
        ys[fin], ls[fin], sups[fin], infs[fin], durs[fin] = Y[fin], L[fin], sup[fin], inf[fin], t[fin]
        active[fin] = False
        path_steps += a.size
    return ys, ls, sups, infs, durs, path_steps, bridge, crossing


class TestLegBatchMatchesReference:
    @pytest.mark.parametrize("seed, theta, refine", [
        (31, math.pi / 4, True), (32, math.pi / 6, True), (33, math.pi / 3, False)])
    def test_bit_identical(self, seed, theta, refine):
        out = sample_legs(theta, 1.0, 1e-2, 200, RngStream(seed), refine=refine)
        *ref, path_steps, bridge, crossing = _leg_reference(
            theta, 1.0, 1e-2, 200, RngStream(seed).child(0).generator(), refine)
        for got, want in zip((out.ys, out.local_times, out.sup_abs, out.inf_abs,
                              out.durations), ref):
            np.testing.assert_array_equal(got, want)
        assert (out.path_steps, out.bridge_uniforms, out.crossing_uniforms) == \
            (path_steps, bridge, crossing)
        assert bridge > 0 and (crossing > 0) == refine

    def test_draws_few_words_per_path_step(self, philox_words):
        # two normals per path-step, plus a uniform only near a boundary
        out = sample_legs(math.pi / 6, 1.0, 1e-3, 2000, RngStream(34))
        assert philox_words() / out.path_steps < 3.2
        assert out.batch_steps > 0 and out.path_steps >= out.batch_steps


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

    def test_angles_alternate(self):
        src = FixedAngles(math.pi / 3, math.pi / 4)
        proc = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 200, 5, RngStream(13),
                                         record=1).paths[0]
        assert len(proc.legs) > 1
        for n, leg in enumerate(proc.legs):
            assert leg.theta == (math.pi / 3 if n % 2 == 0 else math.pi / 4)

    def test_leg_cap_flagged(self):
        src = FixedAngles(math.pi / 6, math.pi / 6)
        batch = sample_quadrant_processes(src, 1.0, 1e-3, 1e-6, 2, 5, RngStream(14), record=1)
        assert not batch.terminated[0] and len(batch.paths[0].legs) == batch.n_legs[0] == 2

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
        src = FixedAngles(math.pi / 3, math.pi / 3)
        batch = sample_quadrant_processes(src, 1.0, 2.5e-4, 1e-3, 200, 30000,
                                          RngStream(17))
        e = mc_estimate(batch.l_totals)
        target = expected_boundary_local_time(math.pi / 3, math.pi / 3, 1.0)
        assert abs(e.mean - target) <= max(3 * e.stderr, 0.05 * target)
        assert np.mean(batch.terminated) > 0.999

    def test_batch_threads_identical(self):
        src = UniformAngles(math.pi / 6, math.pi / 3)
        a = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 3000,
                                      RngStream(18), chunk=1000, threads=1)
        b = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 3000,
                                      RngStream(18), chunk=1000, threads=4)
        assert np.array_equal(a.l_totals, b.l_totals)
        assert np.array_equal(a.n_legs, b.n_legs)

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
        src = UniformAngles(math.pi / 6, math.pi / 3)
        plain = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 60, RngStream(71), chunk=20)
        kept = sample_quadrant_processes(src, 1.0, 1e-3, 1e-2, 100, 60, RngStream(71), chunk=20,
                                         record=20)
        for f in ("l_totals", "n_legs", "terminated", "sigma0_times"):
            np.testing.assert_array_equal(getattr(plain, f), getattr(kept, f))
        assert plain.paths == [] and len(kept.paths) == 20
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
