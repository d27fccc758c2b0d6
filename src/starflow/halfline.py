"""One-dimensional building blocks.

Random streams, the two exact Brownian-bridge primitives that every
quadrant, pair and Walsh engine takes: the reflected step with its local
time (``reflected_step``) and the zero-crossing test
(``bridge_crossings``), and ``restart_in_place``, the one driver of the
engines whose legs restart in place at unit scale.

Random numbers come from counter-based Philox streams: a stream is a
(master seed, index path) pair, distinct paths are statistically
independent, and the same pair always reproduces the same bytes. Every
batch engine runs its n paths as one batch on one generator of its stream,
so a result depends only on the seed and n.

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
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream", "reflected_step", "bridge_crossings", "restart_in_place",
    "LegOverflowError", "check_horizon", "grid_steps", "BRIDGE_CUT",
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


class LegOverflowError(RuntimeError):
    """Raised when a run exceeds its step cap (plumbing; every leg ends a.s.)."""


def restart_in_place(n, state, step, restart=None, max_legs=None, eps_unit=0.0,
                     columns=0, max_steps=10 ** 8):
    """Run n paths whose legs restart in place at unit scale, exact in law
    by the x-scaling of the leg law and the strong Markov property at a
    leg's end, as one batch. The books, per path: the scale U (the product
    of its leg ratios), sum U^2 d over its legs (d the leg's duration, U
    its entry scale), its legs and its first ``columns`` ratios (nan past
    its last leg). A path retires after max_legs legs (None: no cap) or
    once U < eps_unit; its other ended legs restart.

    ``state`` is the list of the engine's row arrays, row j for the path
    ids[j]; the driver restarts and compacts them in that list between
    steps. ``restart(rows, ids, legs, *state)`` starts the next leg of
    those rows (paths ``ids``, ``legs`` legs run) in place: on every row
    first, then after each step on the restarting rows. ``step(ids, U,
    state)`` is a generator that takes a batch step per yield of (h, ended,
    r): the step sizes, the ascending rows whose leg ended and those legs'
    ratios (U is still each leg's entry scale). It reads its arrays from
    state at each step, puts back the ones it replaced before it yields,
    and then receives the active ids. A step that takes its arrays out,
    leaving state empty, frees each replaced buffer after its last use; and
    a generator's buffers live from one step to the next, as in one loop,
    so numpy frees them one by one while the next step allocates. Freed at
    once at a return, they let the heap shrink and grow back each step (for
    50 000 legs, 8 times the page faults and 5-10 % more time).

    The live rows of the tail [m - retired, m) move into the retired rows
    below it, in order, so retiring costs the rows that retire. Past
    max_steps batch steps it raises LegOverflowError. Returns U, the sums,
    the legs, the ratios and the counts: batch steps, path-steps and tail
    steps (fewer than 1 % of the n paths active).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_legs is not None and not (isinstance(max_legs, numbers.Integral) and max_legs >= 1):
        raise ValueError(f"need a whole number of legs >= 1, got {max_legs}")
    ids, d = np.arange(n), np.zeros(n)
    scale, times = np.ones(n), np.zeros(n)
    # a leg takes at least one step, so no path runs more than max_steps legs
    cap = min(max_legs or max_steps, max_steps)
    legs = np.zeros(n, dtype=np.min_scalar_type(cap))
    ratios = np.full((n, columns), np.nan)
    if restart:
        restart(ids, ids, legs, *state)
    kernel = step(ids, scale, state)
    steps = path_steps = tail = 0
    while ids.size:
        steps += 1
        if steps > max_steps:
            raise LegOverflowError(f"a run exceeded {max_steps} batch steps")
        tail += 100 * ids.size < n
        path_steps += ids.size
        h, ended, r = kernel.send(None if steps == 1 else ids)
        d += h
        del h   # hold none of the step's buffers while it runs
        if not ended.size:
            continue
        i = ids[ended]
        u, k = scale[i], legs[i]
        times[i] += u * u * d[ended]
        scale[i] = u = u * r
        if columns:
            kept = k < columns
            ratios[i[kept], k[kept]] = r[kept]
        legs[i] = k = k + 1
        again = (k < cap) & (u >= eps_unit)
        if again.any():
            on = ended[again]
            d[on] = 0.0
            if restart:
                restart(on, i[again], k[again], *state)
        gone = ended[~again]
        if gone.size:
            m = ids.size - gone.size
            holes = gone[:np.searchsorted(gone, m)]
            stays = np.ones(gone.size, dtype=bool)
            stays[gone[holes.size:] - m] = False
            live = m + np.flatnonzero(stays)
            for a in (ids, d, *state):
                a[holes] = a[live]
            ids, d = ids[:m], d[:m]
            state[:] = (a[:m] for a in state)
    return scale, times, legs.astype(np.int64), ratios, np.array([steps, path_steps, tail])
