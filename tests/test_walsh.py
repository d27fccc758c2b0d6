import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import norm

from starflow.graphs import canonical_test_functions, make_star, per_ray_quadratic
from starflow.graphs import DomainFunction
from starflow.halfline import RngStream
from starflow.isde import sample_isde_terminals
from starflow.stats import ks_against_cdf, ks_two_sample, mc_estimate
from starflow.walsh import (
    ROWS_PER_BLOCK, _coupled_step, _start_state,
    sample_exact_steps, sample_residual_summaries, semigroup_apply, exact_step_arrays,
)


def constant_one(g):
    funcs = [(lambda r: 1.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)
             for _ in range(g.n_rays)]
    return DomainFunction(g, funcs)


class TestExactStep:
    def test_from_origin_rays_follow_weights(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        rays, _ = sample_exact_steps(g, g.origin(), 1.0, 40000, RngStream(1))
        freq = np.bincount(rays, minlength=3) / 40000
        for i, p in enumerate(g.probs):
            assert abs(freq[i] - p) <= 3 * math.sqrt(p * (1 - p) / 40000)

    def test_single_ray_is_reflected_bm(self):
        g = make_star(1, [1.0])
        _, rads = sample_exact_steps(g, g.point(0, 0.4), 0.5, 40000, RngStream(2))
        s = math.sqrt(0.5)
        cdf = lambda y: norm.cdf((y - 0.4) / s) - norm.cdf((-y - 0.4) / s)
        r = ks_against_cdf(rads, cdf)
        assert r.statistic < 1.6 * 1.95 / math.sqrt(40000)

    def test_ray_switch_probability_analytic(self):
        # keep ray 1 with prob q_zero/q_plus; integrating over the radial
        # gives P(new ray = 1) = p1 + (1 - p1) erf(r / sqrt(2 t))
        g = make_star(3, [1 / 3, 1 / 3, 1 / 3])
        r0, t, n = 0.1, 1.0, 100000
        rays, _ = sample_exact_steps(g, g.point(0, r0), t, n, RngStream(3))
        p_emp = float(np.mean(rays == 0))
        p_true = 1 / 3 + 2 / 3 * erf(r0 / math.sqrt(2 * t))
        assert abs(p_emp - p_true) <= 3 * math.sqrt(p_true * (1 - p_true) / n)

    def test_two_half_steps_match_one_full(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        x0 = g.point(0, 0.25)
        n, t = 50000, 0.8
        r1, rad1 = sample_exact_steps(g, x0, t / 2, n, RngStream(5))
        r2, rad2 = exact_step_arrays(g, r1, rad1, t / 2, RngStream(6).generator())
        rf, radf = sample_exact_steps(g, x0, t, n, RngStream(7))
        ks = ks_two_sample(rad2, radf)
        assert ks.statistic < 0.01
        f2 = np.bincount(r2, minlength=3) / n
        ff = np.bincount(rf, minlength=3) / n
        sig = np.sqrt(ff * (1 - ff) / n) * math.sqrt(2)
        assert np.all(np.abs(f2 - ff) <= 3 * sig + 1e-9)


class TestSemigroup:
    def test_conservation(self):
        g = make_star(2, [0.3, 0.7])
        one = constant_one(g)
        for t, x in [(0.1, g.origin()), (1.0, g.point(1, 0.7))]:
            assert semigroup_apply(g, one, t, x) == pytest.approx(1.0, abs=1e-8)

    def test_identity_limit(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        _, g1 = canonical_test_functions(g, 1)
        x = g.point(1, 0.5)
        assert semigroup_apply(g, g1, 1e-6, x) == pytest.approx(
            g1.value_arrays([1], [0.5])[0], abs=1e-3)

    def test_canonical_f_is_invariant(self):
        # f_i composes to a martingale: P_t f_i = f_i
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, _ = canonical_test_functions(g, 0)
        for t, (ray, r) in [(0.1, (0, 0.5)), (1.0, (2, 0.4)), (0.5, (0, 0.0))]:
            assert semigroup_apply(g, f1, t, g.point(ray, r)) == pytest.approx(
                f1.value_arrays([ray], [r])[0], abs=1e-7)

    def test_quadratic_growth_from_origin(self):
        # mean of g_i grows linearly: P_t g_i(0) = 2 p_i q_i t / 2 * 2 = p_i q_i t
        g = make_star(3, [0.5, 0.3, 0.2])
        _, g1 = canonical_test_functions(g, 0)
        for t in (0.3, 1.0):
            assert semigroup_apply(g, g1, t, g.origin()) == pytest.approx(
                0.5 * 0.5 * t, abs=1e-7)

    def test_chapman_kolmogorov(self):
        g = make_star(2, [0.4, 0.6])
        f1, _ = canonical_test_functions(g, 1)
        sq = per_ray_quadratic(g, [0.3, 0.1], [0.2, -0.5], 1.0)
        s, t = 0.4, 0.6
        x = g.point(0, 0.8)
        direct = semigroup_apply(g, sq, s + t, x)

        def applied(rho):
            vals = np.empty(np.shape(rho) or (1,))
            flat = np.atleast_1d(rho)
            for k, r in enumerate(flat):
                vals[k] = semigroup_apply(g, sq, t, g.point(0, r) if r > 0 else g.origin())
            return vals if np.shape(rho) else float(vals[0])

        # compose by integrating the applied function against the kernel of x's ray
        from scipy import integrate
        from starflow.halfline import heat_kernels

        def fbar_applied(rho):
            tot = 0.0
            for j, p in enumerate(g.probs):
                pt = g.point(j, rho) if rho > 0 else g.origin()
                tot += p * semigroup_apply(g, sq, t, pt)
            return tot

        def integrand(rho):
            qp, qz = heat_kernels(s, 0.8, rho)
            fb = fbar_applied(rho)
            fi = semigroup_apply(g, sq, t, g.point(0, rho) if rho > 0 else g.origin())
            return qp * fb + qz * (fi - fb)

        width = 12.0 * math.sqrt(s)
        composed, _ = integrate.quad(integrand, max(0.0, 0.8 - width), 0.8 + width,
                                     epsabs=1e-8, epsrel=1e-8, limit=100)
        assert composed == pytest.approx(direct, abs=1e-6)

    def test_invalid_t(self):
        g = make_star(2, [0.5, 0.5])
        f1, _ = canonical_test_functions(g, 0)
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                semigroup_apply(g, f1, t, g.origin())
            with pytest.raises(ValueError):
                sample_exact_steps(g, g.origin(), t, 10, RngStream(1))
            with pytest.raises(ValueError):
                exact_step_arrays(g, np.zeros(3, dtype=np.int64), np.ones(3), t,
                                  RngStream(1).generator())


class _TopUniforms:
    """Generator stub: every uniform is 1 - 1e-13 and every normal -1."""

    def random(self, size=None):
        return 1.0 - 1e-13 if size is None else np.full(size, 1.0 - 1e-13)

    def standard_normal(self, size=None):
        return -1.0 if size is None else np.full(size, -1.0)


class TestPastTheLastRay:
    """The weights are validated only to 1e-12, so a uniform can lie above
    their last partial sum; it must still draw the last ray, not ray N."""

    def graph(self):
        # the weights sum to 1 - 5e-13, below the uniform 1 - 1e-13
        return make_star(2, [0.5, 0.5 - 5e-13])

    def test_start_state(self):
        g = self.graph()
        rays, rad = _start_state(g, g.origin(), 4, _TopUniforms())
        np.testing.assert_array_equal(rays, [1, 1, 1, 1])
        g.partition(rays, rad)

    def test_coupled_step(self):
        g = self.graph()
        rays = np.zeros(3, dtype=np.int64)
        rad, folded = _coupled_step(g, 0, rays, np.array([-0.1, 0.2, -0.3]), _TopUniforms())
        np.testing.assert_array_equal(folded, [0, 2])
        np.testing.assert_array_equal(rays, [1, 0, 1])
        g.partition(rays, rad)

    def test_exact_step(self):
        g = self.graph()
        rays, rad = exact_step_arrays(g, np.zeros(3, dtype=np.int64), np.zeros(3), 0.5,
                                      _TopUniforms())
        np.testing.assert_array_equal(rays, [1, 1, 1])
        g.partition(rays, rad)


def _recorded(g, x0, T, dt, seed, k=3, n=50):
    """Rows 0..k-1 of the coupled engine's batch, recorded."""
    return sample_residual_summaries(g, {}, T, dt, n, RngStream(seed), x0=x0, record=k).paths


class TestCoupledPath:
    def test_driver_identity_exact(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        for p in _recorded(g, g.origin(), 1.0, 1e-3, 8):
            assert np.allclose(p.radials - p.radials[0] - p.radial_localtime, p.driver,
                               rtol=0, atol=1e-10)

    def test_local_time_grows_only_at_crossings(self):
        g = make_star(2, [0.5, 0.5])
        for p in _recorded(g, g.point(0, 0.3), 2.0, 1e-3, 9):
            dL = np.diff(p.radial_localtime)
            assert np.all(dL >= 0)
            xi = p.increments
            crossing = p.radials[:-1] + xi < 0.0
            assert np.array_equal(dL > 0, crossing)
            # fold: dL = -2(rad + xi) and new radial = |rad + xi| at crossings
            y = (p.radials[:-1] + xi)[crossing]
            assert np.allclose(dL[crossing], -2.0 * y)
            assert np.allclose(p.radials[1:][crossing], -y)
            # ray changes only at crossing steps
            changes = np.diff(p.rays) != 0
            assert np.all(crossing[changes])

    def test_initial_ray_kept_until_first_crossing(self):
        g = make_star(3, [1 / 3, 1 / 3, 1 / 3])
        for p in _recorded(g, g.point(2, 0.5), 1.0, 1e-3, 10):
            dL = np.diff(p.radial_localtime)
            first = np.argmax(dL > 0) + 1 if (dL > 0).any() else len(p.radials)
            assert np.all(p.rays[:first] == 2)

    # the forward terminals' rays and radials are the coupled Walsh
    # terminals: sample_isde_terminals draws its off-ray sums after the path
    def test_occupation_fractions(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        rays, _, _ = sample_isde_terminals(g, 4.0, 1e-3, 20000, RngStream(11))
        freq = np.bincount(rays, minlength=3) / 20000
        for i, p in enumerate(g.probs):
            # grid-zero redraw bias is O(sqrt(dt)); allow it on top of MC noise
            assert abs(freq[i] - p) <= 3 * math.sqrt(p * (1 - p) / 20000) + 0.05

    def test_symmetric_two_ray_signed_radial_is_gaussian(self):
        g = make_star(2, [0.5, 0.5])
        rays, rads, _ = sample_isde_terminals(g, 1.0, 2.5e-4, 20000, RngStream(12))
        signed = np.where(rays == 0, rads, -rads)
        r = ks_against_cdf(signed, lambda v: norm.cdf(v, scale=1.0))
        assert r.statistic < 0.015

    def test_marginal_against_semigroup(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        x0 = g.origin()
        rays, rads, _ = sample_isde_terminals(g, 1.0, 2.5e-4, 30000, RngStream(13))
        for f in (f1, g1):
            vals = f.value_arrays(rays, rads)
            e = mc_estimate(vals)
            ref = semigroup_apply(g, f, 1.0, x0)
            assert abs(e.mean - ref) <= 3 * e.stderr + 0.05 * math.sqrt(2.5e-4) * 20


class TestFreidlinSheu:
    def test_constant_residual_zero(self):
        g = make_star(2, [0.4, 0.6])
        out = sample_residual_summaries(g, {"one": constant_one(g)}, 0.5, 1e-3, 200,
                                        RngStream(14)).summaries
        assert np.allclose(out["one"].residuals, 0.0)

    def test_canonical_residual_centered(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        fs = {"f1": f1, "g1": g1, "quad": quad}
        out = sample_residual_summaries(g, fs, 1.0, 1e-3, 20000, RngStream(16)).summaries
        for nm, summ in out.items():
            e = mc_estimate(summ.residuals)
            assert abs(e.mean) <= 3.5 * e.stderr, nm

    def test_local_time_term_needed_for_skew_function(self):
        # same function, local-time term dropped: residual becomes biased
        g = make_star(3, [0.5, 0.3, 0.2])
        quad = per_ray_quadratic(g, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert quad.vertex_derivative(0) == pytest.approx(1.0)
        out = sample_residual_summaries(g, {"q": quad}, 1.0, 1e-3, 20000, RngStream(17))
        summ = out.summaries["q"]
        e = mc_estimate(summ.residuals)
        assert abs(e.mean) <= 3.5 * e.stderr
        # martingale part without subtracting f'(0) L would be off by E[L] > 0
        broken = summ.residuals + 1.0 * _mean_localtime_proxy(g, 20000)
        assert abs(broken.mean()) > 5 * e.stderr

    def test_isometry_defects_are_centered(self):
        # E[(sum f' dB)^2] = E[dt sum f'^2] (discrete Ito isometry), so the
        # per-path defects have mean about 0; a 3.48-stderr band fails a
        # correct engine with probability about 5e-4 per function
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        out = sample_residual_summaries(g, {"f1": f1, "g1": g1, "quad": quad},
                                        1.0, 4e-3, 4000, RngStream(20))
        for nm, summ in out.summaries.items():
            e = mc_estimate(summ.isometry_defects)
            assert abs(e.mean) <= 3.48 * e.stderr, nm

    def test_isometry_ratio_tightens_with_dt(self):
        g = make_star(2, [0.5, 0.5])
        f1, _ = canonical_test_functions(g, 0)
        coarse = sample_residual_summaries(g, {"f": f1}, 1.0, 4e-3, 20000, RngStream(18)).summaries
        fine = sample_residual_summaries(g, {"f": f1}, 1.0, 1e-3, 20000, RngStream(19)).summaries
        assert abs(fine["f"].variance_ratio - 1.0) < 0.1
        # Var(f1(X_T)) = p q T for the canonical slope pair
        v = np.var(fine["f"].martingale_part, ddof=1)
        assert v == pytest.approx(0.25, rel=0.05)


def _eval_masks(f, which, rays, radials):
    """Array evaluation as one boolean mask per ray, rebuilt on every call."""
    g = f.graph
    out = np.empty(radials.shape)
    at0 = radials == 0.0
    for i in range(g.n_rays):
        m = (rays == i) & ~at0
        if m.any():
            out[m] = f.edge_funcs[i][which](radials[m])
    vertex = (f.vertex_value, f.vertex_derivative, f.vertex_second_derivative)[which]
    out[at0] = vertex(0)
    return out


def _start(g, x0, n, gen, cum):
    if x0.is_vertex:
        return np.searchsorted(cum, gen.random(n)), np.zeros(n)
    return np.full(n, x0.edge, dtype=np.int64), np.full(n, x0.coord)


def _residuals_reference(g, fs, T, dt, n, rng, x0):
    """Per-step loop with per-call masks and a coin drawn, after the step's
    driver increments, for each path that folds, in path order."""
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    rays, rad = _start(g, x0, n, gen, cum)
    L = np.zeros(n)
    f0 = {nm: _eval_masks(f, 0, rays, rad) for nm, f in fs.items()}
    s_dB = {nm: np.zeros(n) for nm in fs}
    s_fpp = {nm: np.zeros(n) for nm in fs}
    s_fp2 = {nm: np.zeros(n) for nm in fs}
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        for nm, f in fs.items():
            fp = _eval_masks(f, 1, rays, rad)
            s_dB[nm] += fp * xi
            s_fpp[nm] += _eval_masks(f, 2, rays, rad)
            s_fp2[nm] += fp * fp
        y = rad + xi
        neg = y < 0.0
        L = np.where(neg, L - 2.0 * y, L)
        rays = rays.copy()
        rays[neg] = np.searchsorted(cum, gen.random(np.count_nonzero(neg)))
        rad = np.abs(y)
    out = {}
    for nm, f in fs.items():
        mart = (_eval_masks(f, 0, rays, rad) - f0[nm] - 0.5 * dt * s_fpp[nm]
                - f.vertex_derivative(0) * L)
        out[nm] = (mart - s_dB[nm], mart, float(np.mean(s_fp2[nm] * dt)))
    return out


def _coupled_reference(g, x0, T, dt, n, rng):
    """Per-step loop: the driver increments, then a coin for each path that
    folds, in path order. Returns the (K+1, n) rays, radials and local
    times, and the (K, n) increments."""
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    rays, rad = _start(g, x0, n, gen, cum)
    hist, xis = [(rays, rad, np.zeros(n))], []
    for _ in range(K):
        xi = math.sqrt(dt) * gen.standard_normal(n)
        y = rad + xi
        rays = rays.copy()
        rays[y < 0.0] = np.searchsorted(cum, gen.random(np.count_nonzero(y < 0.0)))
        hist.append((rays, np.abs(y), np.where(y < 0.0, hist[-1][2] - 2.0 * y, hist[-1][2])))
        rad = np.abs(y)
        xis.append(xi)
    return (*(np.array(h) for h in zip(*hist)), np.array(xis))


class TestBatchEnginesMatchReference:
    """The batch engines share one partition per step and draw redraw
    coins only where a path folds; outputs must equal the plain loop's."""

    G = make_star(3, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("seed, x0", [(21, None), (22, (2, 0.3))])
    def test_residual_summaries_bit_identical(self, seed, x0):
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        f1, g1 = canonical_test_functions(g, 0)
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        fs = {"f1": f1, "g1": g1, "quad": quad}
        out = sample_residual_summaries(g, fs, 1.0, 0.01, 300, RngStream(seed), x0=x0).summaries
        ref = _residuals_reference(g, fs, 1.0, 0.01, 300, RngStream(seed), x0)
        for nm, (res, mart, iso) in ref.items():
            np.testing.assert_array_equal(out[nm].residuals, res)
            np.testing.assert_array_equal(out[nm].martingale_part, mart)
            assert out[nm].isometry_prediction == iso

    @pytest.mark.parametrize("seed, x0", [(23, None), (24, (1, 0.2))])
    def test_wbm_terminals_bit_identical(self, seed, x0):
        # the coupled Walsh terminals, as the forward terminals' rays and radials
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        rays, rads, _ = sample_isde_terminals(g, 1.0, 0.01, 300, RngStream(seed), x0=x0)
        ref_rays, ref_rads, _, _ = _coupled_reference(g, x0, 1.0, 0.01, 300, RngStream(seed))
        np.testing.assert_array_equal(rays, ref_rays[-1])
        np.testing.assert_array_equal(rads, ref_rads[-1])

    @pytest.mark.parametrize("seed, x0", [(26, None), (27, (2, 0.3)), (28, (0, 0.05))])
    def test_coupled_path_bit_identical(self, seed, x0):
        # the recorded rows of the residual engine are columns of the loop's batch
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        paths = sample_residual_summaries(g, {}, 2.0, 0.01, 40, RngStream(seed), x0=x0,
                                          record=4).paths
        rays, radials, L, xi = _coupled_reference(g, x0, 2.0, 0.01, 40, RngStream(seed))
        for j, path in enumerate(paths):
            np.testing.assert_array_equal(path.rays, rays[:, j])
            np.testing.assert_array_equal(path.radials, radials[:, j])
            np.testing.assert_array_equal(path.radial_localtime, L[:, j])
            np.testing.assert_array_equal(path.increments, xi[:, j])
        assert L[-1, :4].max() > 0.0 and np.any(rays[:, :4] != rays[0, :4])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_narrow_batches_bit_identical(self, n):
        # a block of a narrow batch holds many steps; at n = 1 it holds one,
        # because numpy sums a (B, 1) array along axis 0 pairwise
        g = self.G
        fs = {"g1": canonical_test_functions(g, 0)[1],
              "quad": per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])}
        out = sample_residual_summaries(g, fs, 1.0, 0.01, n, RngStream(30)).summaries
        ref = _residuals_reference(g, fs, 1.0, 0.01, n, RngStream(30), g.origin())
        for nm, (res, mart, _) in ref.items():
            np.testing.assert_array_equal(out[nm].residuals, res)
            np.testing.assert_array_equal(out[nm].martingale_part, mart)

    def test_diagnostics_count_the_work(self):
        g = self.G
        n, K = 300, 100
        f1 = canonical_test_functions(g, 0)[0]
        out = sample_residual_summaries(g, {"f1": f1}, 1.0, 1.0 / K, n, RngStream(31), record=n)
        folds = sum(int(np.count_nonzero(np.diff(p.radial_localtime))) for p in out.paths)
        steps_per_block = ROWS_PER_BLOCK // n
        assert out.diagnostics() == {"grid_steps": K, "path_steps": K * n,
                                     "eval_blocks": -(-K // steps_per_block),
                                     "redraw_coins": folds}
        assert 1 < out.diagnostics()["eval_blocks"] < K and folds > 0
        bare = sample_residual_summaries(g, {}, 1.0, 1.0 / K, n, RngStream(31))
        assert bare.diagnostics() == {**out.diagnostics(), "eval_blocks": 0}

    def test_residual_summaries_draw_a_coin_only_per_fold(self, philox_words):
        g = self.G
        n, K = 2000, 100
        sample_residual_summaries(g, {"f1": canonical_test_functions(g, 0)[0]},
                                  1.0, 1.0 / K, n, RngStream(29))
        assert philox_words() / (n * K) < 1.3

    def test_residual_along_path_uses_pointwise_values(self):
        # the residual of a recorded row, summed point by point in the
        # engine's order, is that row's terminal residual
        g = self.G
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        out = sample_residual_summaries(g, {"q": quad}, 0.5, 0.01, 30, RngStream(25), record=3)
        for j, path in enumerate(out.paths):
            f, fp, fpp = (_eval_masks(quad, which, path.rays, path.radials) for which in range(3))
            s_dB = s_fpp = 0.0
            for k, xi in enumerate(path.increments):
                s_dB += fp[k] * xi
                s_fpp += fpp[k]
            mart = (f[-1] - f[0] - 0.5 * path.dt * s_fpp
                    - quad.vertex_derivative(0) * path.radial_localtime[-1])
            assert mart - s_dB == out.summaries["q"].residuals[j]


class TestRecordingIsPassive:
    G = make_star(3, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("x0", [None, (1, 0.2)])
    def test_residual_summaries(self, x0):
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        fs = {"f1": canonical_test_functions(g, 0)[0],
              "quad": per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])}
        plain = sample_residual_summaries(g, fs, 1.0, 0.01, 200, RngStream(73), x0=x0)
        kept = sample_residual_summaries(g, fs, 1.0, 0.01, 200, RngStream(73), x0=x0, record=10)
        assert plain.paths == [] and len(kept.paths) == 10
        for nm in fs:
            for f in ("residuals", "martingale_part", "bracket"):
                np.testing.assert_array_equal(getattr(plain.summaries[nm], f),
                                              getattr(kept.summaries[nm], f))
        # the engine's terminal rays and radials are the forward terminals'
        rays, rads, _ = sample_isde_terminals(g, 1.0, 0.01, 200, RngStream(73), x0=x0)
        for j, path in enumerate(kept.paths):
            assert (path.rays[-1], path.radials[-1]) == (rays[j], rads[j])

    @pytest.mark.parametrize("record", [-1, 51])
    def test_out_of_range_record_rejected(self, record):
        with pytest.raises(ValueError):
            sample_residual_summaries(self.G, {}, 1.0, 0.1, 50, RngStream(74), record=record)


def _mean_localtime_proxy(g, n):
    # E[L_T(|X|)] for reflected BM at T=1 is sqrt(2/pi)
    return math.sqrt(2 / math.pi)
