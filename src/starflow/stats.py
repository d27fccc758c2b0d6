"""Monte Carlo estimators, Kolmogorov-Smirnov tests, and the regularized
incomplete beta function."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MCEstimate", "KSResult",
    "mc_estimate", "ks_against_cdf", "ks_two_sample", "reg_incomplete_beta",
    "kolmogorov_sf",
]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n: int


def mc_estimate(samples) -> MCEstimate:
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    return MCEstimate(mean=float(x.mean()),
                      stderr=float(x.std(ddof=1) / math.sqrt(x.size)),
                      n=int(x.size))


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lam) = P(sup |B^0| > lam).

    Two complementary series, switched near lam = 1.18 for accuracy.
    """
    if lam <= 0:
        return 1.0
    if lam < 1.18:
        # Jacobi theta form, accurate for small lam
        t = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        s = t * (1.0 + t ** 8 * (1.0 + t ** 16))
        return max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * s)
    s = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        s += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, s))


def ks_against_cdf(samples, cdf) -> KSResult:
    """One-sample KS test of samples against a reference CDF.

    The statistic is the exact sup distance between the empirical CDF and
    cdf evaluated at the sorted sample; the p-value is the asymptotic
    Kolmogorov tail at sqrt(n) * statistic.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf must be nondecreasing on the sample range")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = max(d_plus, d_minus)
    return KSResult(statistic=float(d), p_value=kolmogorov_sf(math.sqrt(n) * d), n=n)


def ks_two_sample(a, b) -> KSResult:
    """Two-sample KS statistic with the asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    both = np.concatenate([a, b])
    both.sort(kind="mergesort")
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    ne = a.size * b.size / (a.size + b.size)
    return KSResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(ne) * d),
                    n=min(a.size, b.size))


def _betacf(a: float, b: float, x: float, max_iter: int = 500, eps: float = 1e-14) -> float:
    """Lentz continued fraction for the incomplete beta function."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by Lentz continued fraction,
    with the symmetry switch at x = (a+1)/(a+b+2)."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be > 0")
    if x < 0 or x > 1:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b
