import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import norm

from starflow.graphs import canonical_test_functions, make_star, per_ray_quadratic
from starflow.graphs import DomainFunction
from starflow.halfline import RngStream
from starflow.stats import ks_against_cdf, ks_two_sample, mc_estimate
from starflow.walsh import (
    freidlin_sheu_residual, sample_exact_steps, sample_residual_summaries,
    sample_wbm_terminals, semigroup_apply, wbm_coupled_path, exact_step_arrays,
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
        assert semigroup_apply(g, g1, 1e-6, x) == pytest.approx(g1.value(x), abs=1e-3)

    def test_canonical_f_is_invariant(self):
        # f_i composes to a martingale: P_t f_i = f_i
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, _ = canonical_test_functions(g, 0)
        for t, x in [(0.1, g.point(0, 0.5)), (1.0, g.point(2, 0.4)), (0.5, g.origin())]:
            assert semigroup_apply(g, f1, t, x) == pytest.approx(f1.value(x), abs=1e-7)

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
        with pytest.raises(ValueError):
            semigroup_apply(g, f1, 0.0, g.origin())


class TestCoupledPath:
    def test_driver_identity_exact(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        p = wbm_coupled_path(g, g.origin(), 1.0, 1e-3, RngStream(8))
        assert np.allclose(p.radials - p.radials[0] - p.radial_localtime, p.driver,
                           rtol=0, atol=1e-10)

    def test_local_time_grows_only_at_crossings(self):
        g = make_star(2, [0.5, 0.5])
        p = wbm_coupled_path(g, g.point(0, 0.3), 2.0, 1e-3, RngStream(9))
        dL = np.diff(p.radial_localtime)
        assert np.all(dL >= 0)
        xi = np.diff(p.driver)
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
        p = wbm_coupled_path(g, g.point(2, 0.5), 1.0, 1e-3, RngStream(10))
        dL = np.diff(p.radial_localtime)
        first = np.argmax(dL > 0) + 1 if (dL > 0).any() else len(p.radials)
        assert np.all(p.rays[:first] == 2)

    def test_occupation_fractions(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        rays, _ = sample_wbm_terminals(g, g.origin(), 4.0, 1e-3, 20000, RngStream(11))
        freq = np.bincount(rays, minlength=3) / 20000
        for i, p in enumerate(g.probs):
            # grid-zero redraw bias is O(sqrt(dt)); allow it on top of MC noise
            assert abs(freq[i] - p) <= 3 * math.sqrt(p * (1 - p) / 20000) + 0.05

    def test_symmetric_two_ray_signed_radial_is_gaussian(self):
        g = make_star(2, [0.5, 0.5])
        rays, rads = sample_wbm_terminals(g, g.origin(), 1.0, 2.5e-4, 20000, RngStream(12))
        signed = np.where(rays == 0, rads, -rads)
        r = ks_against_cdf(signed, lambda v: norm.cdf(v, scale=1.0))
        assert r.statistic < 0.015

    def test_marginal_against_semigroup(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        x0 = g.origin()
        rays, rads = sample_wbm_terminals(g, g.origin(), 1.0, 2.5e-4, 30000, RngStream(13))
        for f in (f1, g1):
            vals = f.value_arrays(rays, rads)
            e = mc_estimate(vals)
            ref = semigroup_apply(g, f, 1.0, x0)
            assert abs(e.mean - ref) <= 3 * e.stderr + 0.05 * math.sqrt(2.5e-4) * 20


class TestFreidlinSheu:
    def test_constant_residual_zero(self):
        g = make_star(2, [0.4, 0.6])
        p = wbm_coupled_path(g, g.origin(), 0.5, 1e-3, RngStream(14))
        res = freidlin_sheu_residual(p, constant_one(g))
        assert np.allclose(res, 0.0)

    def test_missing_driver_rejected(self):
        g = make_star(2, [0.4, 0.6])
        p = wbm_coupled_path(g, g.origin(), 0.5, 1e-3, RngStream(15))
        p.driver = None
        with pytest.raises(ValueError):
            freidlin_sheu_residual(p, constant_one(g))

    def test_canonical_residual_centered(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        fs = {"f1": f1, "g1": g1, "quad": quad}
        out = sample_residual_summaries(g, fs, 1.0, 1e-3, 20000, RngStream(16))
        for nm, summ in out.items():
            e = mc_estimate(summ.residuals)
            assert abs(e.mean) <= 3.5 * e.stderr, nm

    def test_local_time_term_needed_for_skew_function(self):
        # same function, local-time term dropped: residual becomes biased
        g = make_star(3, [0.5, 0.3, 0.2])
        quad = per_ray_quadratic(g, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert quad.vertex_derivative(0) == pytest.approx(1.0)
        out = sample_residual_summaries(g, {"q": quad}, 1.0, 1e-3, 20000, RngStream(17))
        summ = out["q"]
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
        for nm, summ in out.items():
            e = mc_estimate(summ.isometry_defects)
            assert abs(e.mean) <= 3.48 * e.stderr, nm

    def test_isometry_ratio_tightens_with_dt(self):
        g = make_star(2, [0.5, 0.5])
        f1, _ = canonical_test_functions(g, 0)
        coarse = sample_residual_summaries(g, {"f": f1}, 1.0, 4e-3, 20000, RngStream(18))
        fine = sample_residual_summaries(g, {"f": f1}, 1.0, 1e-3, 20000, RngStream(19))
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
    """Per-step loop with per-call masks and coins looked up at full width."""
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
        coins = np.searchsorted(cum, gen.random(n))
        for nm, f in fs.items():
            fp = _eval_masks(f, 1, rays, rad)
            s_dB[nm] += fp * xi
            s_fpp[nm] += _eval_masks(f, 2, rays, rad)
            s_fp2[nm] += fp * fp
        y = rad + xi
        neg = y < 0.0
        L = np.where(neg, L - 2.0 * y, L)
        rays = np.where(neg, coins, rays)
        rad = np.abs(y)
    out = {}
    for nm, f in fs.items():
        mart = (_eval_masks(f, 0, rays, rad) - f0[nm] - 0.5 * dt * s_fpp[nm]
                - f.vertex_derivative(0) * L)
        out[nm] = (mart - s_dB[nm], mart, float(np.mean(s_fp2[nm] * dt)))
    return out


def _terminals_reference(g, x0, T, dt, n, rng):
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    rays, rad = _start(g, x0, n, gen, cum)
    for _ in range(K):
        y = rad + math.sqrt(dt) * gen.standard_normal(n)
        coins = np.searchsorted(cum, gen.random(n))
        rays = np.where(y < 0.0, coins, rays)
        rad = np.abs(y)
    return rays, rad


def _coupled_path_reference(g, x0, T, dt, rng):
    """Scalar loop: all driver increments, then all redraw coins, then the
    starting ray from the origin; fold and redraw at each crossing."""
    K = round(T / dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    xi = gen.standard_normal(K) * math.sqrt(dt)
    coins = np.searchsorted(cum, gen.random(K))
    ray = int(np.searchsorted(cum, gen.random())) if x0.is_vertex else x0.edge
    rad = 0.0 if x0.is_vertex else x0.coord
    rays, radials, L = [ray], [rad], [0.0]
    lt = 0.0
    for k in range(K):
        y = rad + xi[k]
        if y < 0.0:
            lt -= 2.0 * y
            rad = -y
            ray = coins[k]
        else:
            rad = y
        rays.append(ray)
        radials.append(rad)
        L.append(lt)
    return np.array(rays), np.array(radials), np.array(L), np.concatenate([[0.0], np.cumsum(xi)])


class TestBatchEnginesMatchReference:
    """The batch engines share one partition per step and look up redraw
    coins only where a path folds; outputs must equal the plain loop's."""

    G = make_star(3, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("seed, x0", [(21, None), (22, (2, 0.3))])
    def test_residual_summaries_bit_identical(self, seed, x0):
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        f1, g1 = canonical_test_functions(g, 0)
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        fs = {"f1": f1, "g1": g1, "quad": quad}
        out = sample_residual_summaries(g, fs, 1.0, 0.01, 300, RngStream(seed), x0=x0)
        ref = _residuals_reference(g, fs, 1.0, 0.01, 300, RngStream(seed), x0)
        for nm, (res, mart, iso) in ref.items():
            np.testing.assert_array_equal(out[nm].residuals, res)
            np.testing.assert_array_equal(out[nm].martingale_part, mart)
            assert out[nm].isometry_prediction == iso

    @pytest.mark.parametrize("seed, x0", [(23, None), (24, (1, 0.2))])
    def test_wbm_terminals_bit_identical(self, seed, x0):
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        rays, rads = sample_wbm_terminals(g, x0, 1.0, 0.01, 300, RngStream(seed))
        ref_rays, ref_rads = _terminals_reference(g, x0, 1.0, 0.01, 300, RngStream(seed))
        np.testing.assert_array_equal(rays, ref_rays)
        np.testing.assert_array_equal(rads, ref_rads)

    @pytest.mark.parametrize("seed, x0", [(26, None), (27, (2, 0.3)), (28, (0, 0.05))])
    def test_coupled_path_bit_identical(self, seed, x0):
        g = self.G
        x0 = g.origin() if x0 is None else g.point(*x0)
        path = wbm_coupled_path(g, x0, 2.0, 0.01, RngStream(seed))
        rays, radials, L, driver = _coupled_path_reference(g, x0, 2.0, 0.01, RngStream(seed))
        np.testing.assert_array_equal(path.rays, rays)
        np.testing.assert_array_equal(path.radials, radials)
        np.testing.assert_array_equal(path.radial_localtime, L)
        np.testing.assert_array_equal(path.driver, driver)
        assert L[-1] > 0.0 and len(set(rays)) > 1

    def test_residual_along_path_uses_pointwise_values(self):
        g = self.G
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        path = wbm_coupled_path(g, g.origin(), 0.5, 0.01, RngStream(25))
        M = freidlin_sheu_residual(path, quad)
        pts = path.points()
        fp = np.array([quad.derivative(x) for x in pts[:-1]])
        fpp = np.array([quad.second_derivative(x) for x in pts[:-1]])
        vals = np.array([quad.value(x) for x in pts])
        expected = (vals[1:] - vals[0] - np.cumsum(fp * np.diff(path.driver))
                    - 0.5 * path.dt * np.cumsum(fpp)
                    - quad.vertex_derivative(0) * path.radial_localtime[1:])
        assert M[0] == 0.0
        np.testing.assert_array_equal(M[1:], expected)


def _mean_localtime_proxy(g, n):
    # E[L_T(|X|)] for reflected BM at T=1 is sqrt(2/pi)
    return math.sqrt(2 / math.pi)
