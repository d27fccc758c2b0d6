"""One-dimensional building blocks and the batch driver.

Random streams, the reflected and killed half-line heat kernels, the
Brownian-bridge zero-crossing probability and exact minimum, and the exact
reflected step with its local time that every quadrant and pair engine
takes.

Random numbers come from counter-based Philox streams: a stream is a
(master seed, index path) pair, distinct paths are statistically
independent, and the same pair always reproduces the same bytes. Every
batch engine runs through ``map_chunks``: the paths split into fixed
chunks, chunk ci draws from the child stream ci, and the chunk results are
merged in chunk order, so a result depends only on the seed, n and the
chunk size.

Engines draw only the words a step reads. ``Generator.random`` returns
multiples of 2**-53, and a Brownian bridge from a to b over h dips below 0
with probability exp(-2 a b / h). Where a b >= BRIDGE_CUT h (19 h) that is
below exp(-38) < 2**-53, so the dip would need the uniform 0: a bridge
minimum, or a crossing test of the same form, needs its uniform only below
the cut-off. Skipping it above the cut-off changes the step only on the
event u = 0, of probability 2**-53 per path-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream", "map_chunks", "heat_kernels", "bridge_crossing_prob",
    "bridge_min", "reflected_increment", "check_horizon", "grid_steps", "BRIDGE_CUT",
]

GRID_TOL = 1e-9  # relative slack allowed between T/dt and a whole step count

# a b >= BRIDGE_CUT h puts exp(-2 a b / h), the probability that a bridge
# from a to b over h dips below 0, under 2**-53 (see the module docstring)
BRIDGE_CUT = math.ceil(53 * math.log(2.0) / 2.0)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: master seed plus a spawn-index path."""

    seed: int
    index: tuple[int, ...] = ()

    def __post_init__(self):
        if isinstance(self.index, int):
            object.__setattr__(self, "index", (self.index,))
        else:
            object.__setattr__(self, "index", tuple(int(i) for i in self.index))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.index)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.index + (int(k),))


def map_chunks(fn, n: int, rng: RngStream, chunk: int) -> tuple:
    """Run ``fn(lo, hi, stream)`` on the chunks [lo, hi) of range(n), in order.

    Chunk ci gets the stream rng.child(ci). fn returns a tuple of arrays
    whose first axis runs over the chunk's paths, and each tuple entry is
    concatenated in chunk order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    results = [fn(lo, min(lo + chunk, n), rng.child(ci))
               for ci, lo in enumerate(range(0, n, chunk))]
    return tuple(np.concatenate(parts) for parts in zip(*results))


def check_horizon(T: float, dt: float) -> None:
    """Raise ValueError unless the horizon T and the step dt are finite and > 0.

    The adaptive engines pass their start radius or time budget as T: a NaN
    or infinite one would keep them stepping forever.
    """
    for name, val in (("the horizon T (or start radius)", T), ("the step dt", dt)):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be finite and > 0, got {val}")


def grid_steps(T: float, dt: float) -> int:
    """Number of dt steps that cover [0, T] exactly.

    Raises ValueError unless check_horizon passes and T/dt lies within
    GRID_TOL (relative) of a whole number: rounding it would silently move
    the horizon (T = 1, dt = 0.3 would stop at 0.9).
    """
    check_horizon(T, dt)
    ratio = T / dt
    K = round(ratio)
    if abs(ratio - K) > GRID_TOL * ratio:
        raise ValueError(f"T = {T} is not a whole number of steps dt = {dt}")
    return K


def heat_kernels(t: float, r, rho):
    """Half-line heat kernels at time t from r, evaluated at rho.

    Returns (q_plus, q_zero): the reflecting kernel phi_t(rho-r)+phi_t(rho+r)
    and the absorbing kernel phi_t(rho-r)-phi_t(rho+r), phi_t the centered
    Gaussian density of variance t. Satisfies 0 <= q_zero <= q_plus.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(r < 0) or np.any(rho < 0):
        raise ValueError("r and rho must be >= 0")
    c = 1.0 / math.sqrt(2.0 * math.pi * t)
    a = c * np.exp(-((rho - r) ** 2) / (2.0 * t))
    b = c * np.exp(-((rho + r) ** 2) / (2.0 * t))
    q_plus = a + b
    q_zero = a - b
    if q_plus.ndim == 0:
        return float(q_plus), float(q_zero)
    return q_plus, q_zero


def bridge_crossing_prob(a, b, dt):
    """Probability a Brownian bridge from a to b over dt hits 0 (a, b > 0,
    dt finite and > 0)."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    dt_arr = np.asarray(dt, dtype=float)
    if not (np.all(a_arr > 0) and np.all(b_arr > 0)
            and np.all(np.isfinite(dt_arr) & (dt_arr > 0))):
        raise ValueError("bridge_crossing_prob needs a, b > 0 and dt finite and > 0")
    out = np.exp(-2.0 * a_arr * b_arr / dt)
    return float(out) if out.ndim == 0 else out


def bridge_min(a, b, dt, u):
    """Exact minimum of a Brownian bridge from a to b over dt.

    u is a uniform(0,1) variate; the inverse-CDF form is
    ((a+b) - sqrt((a-b)^2 - 2 dt log u)) / 2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lu = np.log(np.maximum(u, 1e-320))
    out = 0.5 * (a + b - np.sqrt((a - b) ** 2 - 2.0 * dt * lu))
    return float(out) if out.ndim == 0 else out


def reflected_increment(y, h, z, u):
    """One exact step of reflected Brownian motion with its local time.

    From y >= 0, over time h, with driver increment sqrt(h) z: the free
    endpoint is w = y + sqrt(h) z, the bridge minimum m is sampled exactly
    from u, and the step returns (y_new, dL) = (w - min(m, 0), max(-m, 0)).
    Exact in continuous law jointly; the grid identity y_new = y + sqrt(h) z
    + dL holds by construction.
    """
    w = y + np.sqrt(h) * z
    m = bridge_min(y, w, h, u)
    dL = np.maximum(-m, 0.0) if np.ndim(m) else max(-m, 0.0)
    return w + dL, dL
