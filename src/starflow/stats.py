"""Monte Carlo estimators, Kolmogorov-Smirnov tests (asymptotic p-values
from scipy.special.kolmogorov) and the regularized incomplete beta function
(scipy.special.betainc behind a domain check)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, kolmogorov

__all__ = [
    "MCEstimate", "KSResult",
    "mc_estimate", "ks_against_cdf", "ks_two_sample", "reg_incomplete_beta",
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
    return KSResult(statistic=float(d), p_value=float(kolmogorov(math.sqrt(n) * d)), n=n)


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
    return KSResult(statistic=d, p_value=float(kolmogorov(math.sqrt(ne) * d)),
                    n=min(a.size, b.size))


def reg_incomplete_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and scalar or
    array x in [0, 1]; out-of-domain or nan arguments raise instead of giving nan."""
    # written so that nan fails each check
    if not (a > 0 and b > 0):
        raise ValueError(f"a and b must be > 0, got {a}, {b}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0) & (x_arr <= 1)):
        raise ValueError("x must lie in [0, 1]")
    out = betainc(a, b, x_arr)
    return float(out) if out.ndim == 0 else out
