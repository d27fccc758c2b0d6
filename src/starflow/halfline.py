"""One-dimensional building blocks and the batch driver.

Random streams, the batch driver, and the two exact Brownian-bridge
primitives that every quadrant, pair and Walsh engine takes: the reflected
step with its local time (``reflected_step``) and the zero-crossing test
(``bridge_crossings``).

Random numbers come from counter-based Philox streams: a stream is a
(master seed, index path) pair, distinct paths are statistically
independent, and the same pair always reproduces the same bytes. Every
batch engine runs through ``map_chunks``: the paths split into fixed
chunks, chunk ci draws from the child stream ci, and the chunk results are
merged in chunk order, so a result depends only on the seed, n and the
chunk size.

The cut-off. ``Generator.random`` returns multiples of 2**-53, and a
Brownian bridge from a to b over h dips below 0 with probability
exp(-2 a b / h). Where a b >= BRIDGE_CUT h (19 h) that is below
exp(-38) < 2**-53, so the dip would need the uniform 0. So both
primitives draw a uniform only for the rows below the cut-off, one per
such row in row order, and take the others not to dip. That changes a
step only on the event u = 0, of probability 2**-53 per path-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream", "map_chunks", "reflected_step", "bridge_crossings",
    "check_horizon", "grid_steps", "BRIDGE_CUT",
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

    The adaptive engines pass their start radius as T: a NaN or infinite
    one would keep them stepping forever.
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


def reflected_step(y, w, h, gen: np.random.Generator):
    """One exact step of reflected Brownian motion with its local time, for
    rows from y >= 0 over times h with free endpoints w (y plus the driver
    increment). A row below the cut-off draws a uniform u, and its bridge
    minimum m = (y + w - sqrt((y - w)^2 - 2 h log u)) / 2 gives the local
    time dL = max(-m, 0); the step ends at w + dL, written into w. Returns
    (w, dL, the rows that drew). Exact in law jointly.
    """
    dL = np.zeros(w.size)
    near = np.flatnonzero(y * w < BRIDGE_CUT * h)
    # m in place, three buffers of the near rows, each operation as in the
    # formula (x * x is numpy's square), so no row moves by an ulp
    lu = np.maximum(gen.random(near.size), 1e-320)
    np.log(lu, out=lu)
    lu *= 2.0 * h[near]
    d = w[near]
    m = y[near] - d
    d += y[near]
    m *= m
    m -= lu
    del lu
    np.sqrt(m, out=m)
    d -= m
    d *= -0.5
    np.maximum(d, 0.0, out=d)
    dL[near] = d
    w[near] += d
    return w, dL, near


def bridge_crossings(a, b, h, tested, gen: np.random.Generator):
    """Which rows' Brownian bridges, from a > 0 to b over times h, reach 0:
    those with b <= 0, and each tested row (tested a mask, or True for
    all) below the cut-off with probability exp(-2 a b / h), by a uniform
    of its own. Returns (crossed, the rows that drew)."""
    hit = b <= 0.0
    near = np.flatnonzero(~hit & tested & (a * b < BRIDGE_CUT * h))
    hit[near] = gen.random(near.size) < np.exp(-2.0 * a[near] * b[near] / h[near])
    return hit, near
