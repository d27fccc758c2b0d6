import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import norm

from starflow.graphs import (
    DomainFunction, GraphPoint, canonical_test_functions, make_star, per_ray_quadratic,
)
from starflow.halfline import RngStream
from starflow.stats import ks_against_cdf, ks_two_sample, mc_estimate
from starflow.walsh import (
    _coupled_step, _start_state,
    sample_exact_steps, sample_residual_summaries, semigroup_apply, walsh_step,
)


def constant_one(g):
    return DomainFunction(g, [(0.0, 0.0, 1.0)] * g.n_rays)


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
        r2, rad1 = sample_exact_steps(g, x0, t / 2, n, RngStream(5))
        gen = RngStream(6).generator()
        rad2, _ = walsh_step(g, 0, r2, rad1, rad1 + math.sqrt(t / 2) * gen.standard_normal(n),
                             np.full(n, t / 2), gen)
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

        # compose by integrating the applied function against the kernel of
        # x's ray: the reflecting and absorbing half-line kernels
        # phi(rho - r) +- phi(rho + r), phi the N(0, s) density
        from scipy import integrate

        def kernels(r, rho):
            near, far = (math.exp(-d * d / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)
                         for d in (rho - r, rho + r))
            return near + far, near - far

        def fbar_applied(rho):
            tot = 0.0
            for j, p in enumerate(g.probs):
                pt = g.point(j, rho) if rho > 0 else g.origin()
                tot += p * semigroup_apply(g, sq, t, pt)
            return tot

        def integrand(rho):
            qp, qz = kernels(0.8, rho)
            fb = fbar_applied(rho)
            fi = semigroup_apply(g, sq, t, g.point(0, rho) if rho > 0 else g.origin())
            return qp * fb + qz * (fi - fb)

        width = 12.0 * math.sqrt(s)
        composed, _ = integrate.quad(integrand, max(0.0, 0.8 - width), 0.8 + width,
                                     epsabs=1e-8, epsrel=1e-8, limit=100)
        assert composed == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("quad, lin, const", [
        ([0.5, 0.75, 1.0], [0.5, -0.5, 0.25], 0.3),
        ([-1.0, 0.0, 2.0], [0.0, 1.0, -3.0], 0.0),
    ])
    def test_quadratic_from_origin_exact(self, quad, lin, const):
        # from the origin X_t sits on ray i with probability p_i at a radial
        # distributed as |N(0, t)|, with mean sqrt(2t/pi) and second moment
        # t: P_t f(0) = c + sum_i p_i (a_i t + b_i sqrt(2t/pi))
        g = make_star(3, [0.5, 0.3, 0.2])
        f = per_ray_quadratic(g, quad, lin, const)
        for t in (0.05, 0.7, 2.0):
            exact = const + sum(p * (a * t + b * math.sqrt(2.0 * t / math.pi))
                                for p, a, b in zip(g.probs, quad, lin))
            assert semigroup_apply(g, f, t, g.origin()) == pytest.approx(exact, rel=0, abs=1e-9)

    def test_invalid_t(self):
        g = make_star(2, [0.5, 0.5])
        f1, _ = canonical_test_functions(g, 0)
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                semigroup_apply(g, f1, t, g.origin())
            with pytest.raises(ValueError):
                sample_exact_steps(g, g.origin(), t, 10, RngStream(1))


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
        constant_one(g).value_arrays(rays, rad)

    def test_coupled_step(self):
        g = self.graph()
        rays = np.zeros(3, dtype=np.int64)
        rad, folded = _coupled_step(g, 0, rays, np.array([-0.1, 0.2, -0.3]), _TopUniforms())
        np.testing.assert_array_equal(folded, [0, 2])
        np.testing.assert_array_equal(rays, [1, 0, 1])
        constant_one(g).value_arrays(rays, rad)

    def test_exact_step(self):
        g = self.graph()
        # from the vertex every bridge touches it, so every row takes a coin
        rays, gen = np.zeros(3, dtype=np.int64), _TopUniforms()
        rad, _ = walsh_step(g, 0, rays, np.zeros(3), gen.standard_normal(3) * math.sqrt(0.5),
                            np.full(3, 0.5), gen)
        np.testing.assert_array_equal(rays, [1, 1, 1])
        constant_one(g).value_arrays(rays, rad)


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
    # terminals: the grid engine draws its off-ray sums after the path
    def test_occupation_fractions(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        rays = sample_residual_summaries(g, {}, 4.0, 1e-3, 20000, RngStream(11)).rays
        freq = np.bincount(rays, minlength=3) / 20000
        for i, p in enumerate(g.probs):
            # grid-zero redraw bias is O(sqrt(dt)); allow it on top of MC noise
            assert abs(freq[i] - p) <= 3 * math.sqrt(p * (1 - p) / 20000) + 0.05

    def test_symmetric_two_ray_signed_radial_is_gaussian(self):
        g = make_star(2, [0.5, 0.5])
        out = sample_residual_summaries(g, {}, 1.0, 2.5e-4, 20000, RngStream(12))
        rays, rads = out.rays, out.radials
        signed = np.where(rays == 0, rads, -rads)
        r = ks_against_cdf(signed, lambda v: norm.cdf(v, scale=1.0))
        assert r.statistic < 0.015

    def test_marginal_against_semigroup(self):
        g = make_star(3, [0.5, 0.3, 0.2])
        f1, g1 = canonical_test_functions(g, 0)
        x0 = g.origin()
        out = sample_residual_summaries(g, {}, 1.0, 2.5e-4, 30000, RngStream(13))
        rays, rads = out.rays, out.radials
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
            out[m] = f.edge_eval(which, i, radials[m])
    vertex = (f.vertex_value, f.vertex_derivative, f.vertex_second_derivative)[which]
    out[at0] = vertex(0)
    return out


def _start(g, x0, n, gen, cum):
    if x0.is_vertex:
        return np.searchsorted(cum, gen.random(n)), np.zeros(n)
    return np.full(n, x0.edge, dtype=np.int64), np.full(n, x0.coord)


def _moment_reference(f, rays, radials, xi, dt):
    """(residual, martingale part, sum f'^2) of one path from its K + 1
    states and K driver increments, by the engine's arithmetic as a scalar
    loop. Over each stint (the steps in one cell: a ray, or the vertex while
    the radial is 0) it sums xi, r xi, r, r^2 and 1; a fold, a move onto
    or off the vertex, or the last step ends the stint and adds the sums
    into the path's row for the cell. The coefficients then give the sums
    of f' xi, f'' and f'^2, vertex first and edge by edge."""
    N = len(f.coeffs)
    tab = np.zeros((N + 1, 5))
    stint = np.zeros(5)
    L = 0.0
    K = len(xi)
    for k in range(K):
        r, y = radials[k], radials[k] + xi[k]
        stint += (xi[k], r * xi[k], r, r * r, 1.0)
        if y < 0.0:
            L += 2.0 * -y
        cell = N if r == 0.0 else rays[k]
        if k == K - 1 or y < 0.0 or (r == 0.0) != (radials[k + 1] == 0.0):
            tab[cell] += stint
            stint[:] = 0.0
    d1, d2 = f.vertex_derivative(0), f.vertex_second_derivative(0)
    s_dB, s_fpp, s_fp2 = d1 * tab[N, 0], d2 * tab[N, 4], d1 * d1 * tab[N, 4]
    for (a, b, _), (sx, srx, sr, sr2, steps) in zip(f.coeffs, tab):
        s_dB = s_dB + srx * (2.0 * a)
        s_dB = s_dB + sx * b
        s_fpp = s_fpp + steps * (2.0 * a)
        s_fp2 = s_fp2 + sr2 * ((2.0 * a) * (2.0 * a))
        s_fp2 = s_fp2 + sr * (2.0 * (2.0 * a) * b)
        s_fp2 = s_fp2 + steps * (b * b)
    value = [f.vertex_value(0) if radials[k] == 0.0 else f.edge_eval(0, rays[k], radials[k])
             for k in (0, K)]
    mart = value[1] - value[0] - 0.5 * dt * s_fpp - d1 * L
    return mart - s_dB, mart, s_fp2


def _residuals_reference(g, fs, T, dt, n, rng, x0):
    """The plain per-step loop's paths (``_coupled_reference``), each
    summed by ``_moment_reference``."""
    rays, radials, _, xi = _coupled_reference(g, x0, T, dt, n, rng)
    out = {}
    for nm, f in fs.items():
        res, mart, s_fp2 = (np.array(c) for c in zip(*(
            _moment_reference(f, rays[:, j], radials[:, j], xi[:, j], dt) for j in range(n))))
        out[nm] = (res, mart, float(np.mean(s_fp2 * dt)))
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
    """The batch engines draw redraw coins only where a path folds, and the
    residual engine sums per stint; outputs must equal those of the plain
    loop summed by the same arithmetic."""

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
        out = sample_residual_summaries(g, {}, 1.0, 0.01, 300, RngStream(seed), x0=x0)
        rays, rads = out.rays, out.radials
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
        folds = changes = vertex_steps = 0
        for p in out.paths:
            fold = np.diff(p.radial_localtime) != 0
            at_v = p.radials == 0.0
            folds += int(np.count_nonzero(fold))
            changes += int(np.count_nonzero(fold | (at_v[:-1] != at_v[1:])))
            vertex_steps += int(np.count_nonzero(at_v[:-1]))
        assert out.diagnostics() == {"grid_steps": K, "path_steps": K * n,
                                     "cell_changes": changes, "vertex_steps": vertex_steps,
                                     "redraw_coins": folds}
        # every path starts at the vertex and leaves it at once
        assert vertex_steps == n and changes > folds > 0
        # the stints are the books of W_T too, so they are kept without a test function
        bare = sample_residual_summaries(g, {}, 1.0, 1.0 / K, n, RngStream(31))
        assert bare.diagnostics() == out.diagnostics()

    def test_residual_summaries_draw_a_coin_only_per_fold(self, philox_words):
        g = self.G
        n, K = 2000, 100
        sample_residual_summaries(g, {"f1": canonical_test_functions(g, 0)[0]},
                                  1.0, 1.0 / K, n, RngStream(29))
        assert philox_words() / (n * K) < 1.3

    def test_residual_along_path_uses_pointwise_values(self):
        # the residual of a recorded row, summed along its states by stints
        # in the engine's arithmetic, is that row's terminal residual
        g = self.G
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        out = sample_residual_summaries(g, {"q": quad}, 0.5, 0.01, 30, RngStream(25), record=3)
        for j, path in enumerate(out.paths):
            res, _, _ = _moment_reference(quad, path.rays, path.radials, path.increments, path.dt)
            assert res == out.summaries["q"].residuals[j]

    def test_moment_sums_match_pointwise_sums(self):
        # summed point by point, f' xi, f'' and f'^2 give the engine's sums
        # up to rounding: K-term recursive summation errs by at most about
        # K eps sum|terms|, where the terms are every product either way
        # of summing forms; the test allows 8 K eps sum|terms|
        g = self.G
        fs = {"quad": per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25]),
              "g1": canonical_test_functions(g, 0)[1]}
        dt, n = 0.01, 40
        out = sample_residual_summaries(g, fs, 1.0, dt, n, RngStream(32), record=n)
        eps = np.finfo(float).eps
        for nm, f in fs.items():
            summ, d1 = out.summaries[nm], f.vertex_derivative(0)
            for j, path in enumerate(out.paths):
                rays, r, xi = path.rays[:-1], path.radials[:-1], path.increments
                K = xi.size
                val = _eval_masks(f, 0, path.rays, path.radials)
                fp, fpp = (_eval_masks(f, which, rays, r) for which in (1, 2))
                a, b = f.coeffs[rays, 0], f.coeffs[rays, 1]
                L = path.radial_localtime[-1]
                mart = val[-1] - val[0] - 0.5 * dt * fpp.sum() - d1 * L
                mart_terms = (abs(val[-1]) + abs(val[0]) + 0.5 * dt * np.abs(fpp).sum()
                              + abs(d1 * L))
                dB_terms = np.sum(np.abs(fp * xi) + np.abs(2 * a * r * xi) + np.abs(b * xi))
                fp2_terms = np.sum(fp * fp + 4 * a * a * r * r + np.abs(4 * a * b * r) + b * b)
                bound = 8 * K * eps
                assert abs(summ.martingale_part[j] - mart) <= bound * mart_terms
                assert abs(summ.residuals[j] - (mart - np.sum(fp * xi))) <= \
                    bound * (mart_terms + dB_terms)
                assert abs(summ.bracket[j] - dt * np.sum(fp * fp)) <= bound * dt * fp2_terms

    def test_a_row_at_the_vertex_takes_the_vertex_derivatives(self):
        # from ray 1 at 0.5 with dt 0.25, the scripted increments -0.5,
        # 0.25, 0.5 and -1 send the radial to exactly 0, off the vertex
        # along ray 1, out to 0.75, and across the vertex onto ray 0 (the
        # coin 0.5 draws ray 0); the step taken at the vertex counts with
        # f'(0) and f''(0), not with ray 1's h' and h''
        g = self.G
        quad = per_ray_quadratic(g, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])
        out = sample_residual_summaries(g, {"q": quad}, 1.0, 0.25, 1,
                                        _ScriptedDriver([-1.0, 0.5, 1.0, -2.0]),
                                        x0=g.point(1, 0.5), record=1)
        path = out.paths[0]
        np.testing.assert_array_equal(path.radials, [0.5, 0.0, 0.25, 0.75, 0.25])
        np.testing.assert_array_equal(path.rays, [1, 1, 1, 1, 0])
        a, b, _ = quad.coeffs[1]
        d1, d2 = quad.vertex_derivative(0), quad.vertex_second_derivative(0)
        assert (d1, d2) == pytest.approx((0.15, 1.35)) and (b, 2 * a) == (-0.5, 1.5)
        fp = [2 * a * 0.5 + b, d1, 2 * a * 0.25 + b, 2 * a * 0.75 + b]
        xi = [-0.5, 0.25, 0.5, -1.0]
        mart = (quad.edge_eval(0, 0, 0.25) - quad.edge_eval(0, 1, 0.5)
                - 0.5 * 0.25 * (3 * 2 * a + d2) - d1 * 0.5)
        summ = out.summaries["q"]
        assert summ.martingale_part[0] == pytest.approx(mart, rel=0, abs=1e-14)
        assert summ.residuals[0] == pytest.approx(
            mart - sum(p * x for p, x in zip(fp, xi)), rel=0, abs=1e-14)
        assert summ.bracket[0] == pytest.approx(0.25 * sum(p * p for p in fp), rel=0, abs=1e-14)
        assert out.diagnostics() == {"grid_steps": 4, "path_steps": 4, "cell_changes": 3,
                                     "vertex_steps": 1, "redraw_coins": 1}


class _ScriptedDriver:
    """RngStream stub for one path: its generator returns the scripted
    driver normals one step at a time, every uniform as 0.5 and the
    off-ray normals as 0."""

    def __init__(self, normals):
        self.normals = iter(normals)

    def generator(self):
        return self

    def standard_normal(self, size=None):
        if isinstance(size, tuple):
            return np.zeros(size)
        return np.array([next(self.normals)])

    def random(self, size=None):
        return np.full(size, 0.5)


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
        out = sample_residual_summaries(g, {}, 1.0, 0.01, 200, RngStream(73), x0=x0)
        rays, rads = out.rays, out.radials
        for j, path in enumerate(kept.paths):
            assert (path.rays[-1], path.radials[-1]) == (rays[j], rads[j])

    def test_empty_batch(self):
        fs = {"quad": per_ray_quadratic(self.G, [0.5, 0.75, 1.0], [0.5, -0.5, 0.25])}
        out = sample_residual_summaries(self.G, fs, 1.0, 0.1, 0, RngStream(75))
        assert out.summaries["quad"].residuals.shape == (0,) and out.noises.shape == (0, 3)
        assert out.diagnostics() == {"grid_steps": 10, "path_steps": 0, "cell_changes": 0,
                                     "vertex_steps": 0, "redraw_coins": 0}

    @pytest.mark.parametrize("record", [-1, 51])
    def test_out_of_range_record_rejected(self, record):
        with pytest.raises(ValueError):
            sample_residual_summaries(self.G, {}, 1.0, 0.1, 50, RngStream(74), record=record)


class TestTestFunctionGraph:
    """A test function must live on the engine's graph, or on one with the
    same edges and weight table."""

    G = make_star(3, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("other", [make_star(2, [0.5, 0.5]),      # fewer rays
                                       make_star(3, [0.2, 0.3, 0.5])])  # other weights
    def test_function_of_another_graph_rejected(self, other):
        quad = per_ray_quadratic(other, [0.5] * other.n_rays, [0.25] * other.n_rays)
        with pytest.raises(ValueError, match="another graph"):
            sample_residual_summaries(self.G, {"q": quad}, 1.0, 0.1, 10, RngStream(76))
        with pytest.raises(ValueError, match="another graph"):
            semigroup_apply(self.G, quad, 1.0, self.G.origin())

    def test_function_of_an_equal_graph_accepted(self):
        coeffs = [(0.5, 0.5, 0.0), (0.75, -0.5, 0.0), (1.0, 0.25, 0.0)]
        same, twin = (DomainFunction(g, coeffs) for g in (self.G, make_star(3, self.G.probs)))
        a, b = (sample_residual_summaries(self.G, {"q": f}, 1.0, 0.1, 10, RngStream(77))
                for f in (same, twin))
        np.testing.assert_array_equal(a.summaries["q"].residuals, b.summaries["q"].residuals)


class TestStartOffTheGraph:
    G = make_star(3, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("x0", [GraphPoint(edge=7, coord=0.5), GraphPoint(edge=-1, coord=0.5),
                                    GraphPoint(edge=1, coord=math.inf),
                                    GraphPoint(edge=None, coord=0.0, vertex=1)])
    def test_grid_engine_raises_before_any_draw(self, x0, philox_words):
        with pytest.raises(ValueError):
            sample_residual_summaries(self.G, {}, 1.0, 0.1, 10, RngStream(78), x0=x0)
        assert philox_words() == 0


def _mean_localtime_proxy(g, n):
    # E[L_T(|X|)] for reflected BM at T=1 is sqrt(2/pi)
    return math.sqrt(2 / math.pi)
