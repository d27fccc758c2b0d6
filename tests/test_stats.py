import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy import stats as scipy_stats

from starflow.halfline import RngStream
from starflow.stats import (
    ks_against_cdf, ks_two_sample, mc_estimate, reg_incomplete_beta,
)


class TestMcEstimate:
    def test_constant(self):
        e = mc_estimate([1, 1, 1, 1])
        assert e.mean == 1.0 and e.stderr == 0.0 and e.n == 4

    def test_two_values(self):
        e = mc_estimate([0.0, 2.0])
        assert e.mean == 1.0 and e.stderr == pytest.approx(1.0)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mc_estimate([1.0])

    def test_clt_coverage(self):
        hits = 0
        for seed in range(40):
            x = RngStream(seed).generator().standard_normal(10000)
            e = mc_estimate(x)
            hits += abs(e.mean) <= 3 * e.stderr
        assert hits >= 39


class TestKs:
    def test_uniform_samples(self):
        ok = 0
        for seed in range(20):
            u = RngStream(seed, 1).generator().random(10000)
            r = ks_against_cdf(u, lambda x: np.clip(x, 0, 1))
            ok += r.statistic < 1.95 / math.sqrt(10000)
        assert ok >= 19

    def test_all_equal(self):
        r = ks_against_cdf(np.full(100, 0.5), lambda x: np.clip(x, 0, 1))
        assert r.statistic >= 0.5

    def test_single_sample_at_median(self):
        r = ks_against_cdf(np.array([0.5]), lambda x: np.clip(x, 0, 1))
        assert r.statistic == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_against_cdf(np.array([]), lambda x: x)

    def test_decreasing_cdf_rejected(self):
        with pytest.raises(ValueError):
            ks_against_cdf(np.array([0.1, 0.9]), lambda x: 1 - x)

    def test_p_value_matches_scipy(self):
        # one-sample statistic and asymptotic p-value agree with scipy's kstest
        x = RngStream(2).generator().random(2000)
        for n in (40, 500, 2000):
            r = ks_against_cdf(x[:n], lambda v: np.clip(v, 0, 1))
            ref = scipy_stats.kstest(x[:n], "uniform", method="asymp")
            assert r.statistic == pytest.approx(ref.statistic, abs=1e-15)
            assert r.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_monotone_invariance(self):
        gen = RngStream(3).generator()
        x = gen.random(5000)
        r1 = ks_against_cdf(x, lambda v: np.clip(v, 0, 1))
        r2 = ks_against_cdf(np.exp(x), lambda v: np.clip(np.log(np.maximum(v, 1e-300)), 0, 1))
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)

    def test_two_sample_basics(self):
        gen = RngStream(4).generator()
        a, b = gen.random(4000), gen.random(4000)
        r = ks_two_sample(a, b)
        assert r.statistic < 0.05 and r.p_value > 1e-4
        shifted = ks_two_sample(a, b + 0.2)
        assert shifted.statistic > 0.15


class TestIncompleteBeta:
    def test_uniform_case(self):
        for x in (0.0, 0.2, 0.7, 1.0):
            assert reg_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry_point(self):
        for a in (0.3, 1.7, 4.2):
            assert reg_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        a, b, x = 0.25, 0.75, 0.2
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        num, _ = integrate.quad(dens, 0, x, epsabs=1e-13, epsrel=1e-13)
        den, _ = integrate.quad(dens, 0, 1, epsabs=1e-13, epsrel=1e-13)
        oracle = num / den
        val = reg_incomplete_beta(a, b, x)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(0.6085663817129537, rel=1e-9)  # frozen oracle value

    def test_against_scipy(self):
        # against the beta distribution's CDF, and elementwise on an array
        cases = [(0.25, 0.75, 0.2), (2.5, 0.5, 0.9), (5, 3, 0.4),
                 (1 / 6, 5 / 6, 0.01), (0.1, 0.9, 0.999)]
        for (a, b, x) in cases:
            assert reg_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy_stats.beta.cdf(x, a, b)), rel=1e-10, abs=1e-13)
        xs = np.array([0.0, 0.01, 0.2, 0.999, 1.0])
        vals = reg_incomplete_beta(1 / 6, 5 / 6, xs)
        assert vals.shape == xs.shape
        assert np.allclose(vals, [reg_incomplete_beta(1 / 6, 5 / 6, x) for x in xs],
                           rtol=0, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.05, 8.0), st.floats(0.05, 8.0), st.floats(0.0, 1.0))
    @example(0.25, 1.0, 1e-12)
    def test_reflection_identity(self, a, b, x):
        # The identity needs the exact complement, but fl(1 - x) != 1 - x for
        # tiny x, and the slope of I_{1-x}(b,a) there grows like x^(a-1).
        # Snap x so that 1 - x is exact (Sterbenz).
        y = 1.0 - x
        x = 1.0 - y
        lhs = reg_incomplete_beta(a, b, x) + reg_incomplete_beta(b, a, y)
        assert lhs == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_incomplete_beta(-1, 1, 0.5)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1, 1, 1.5)
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, 0.5, np.array([0.2, -0.1]))

    @pytest.mark.parametrize("a, b, x", [
        (math.nan, 0.7, 0.5), (0.3, math.nan, 0.5), (0.3, 0.7, math.nan),
        (0.3, 0.7, np.array([0.2, math.nan]))])
    def test_nan_rejected(self, a, b, x):
        # each of these gave nan
        with pytest.raises(ValueError):
            reg_incomplete_beta(a, b, x)
