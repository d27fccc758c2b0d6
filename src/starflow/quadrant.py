"""Obliquely reflected Brownian motion in the half-plane and the quadrant.

A leg of law P^theta_x starts at (x, 0), runs
    dX = dB1 - tan(theta) dL(Y),      dY = dB2 + dL(Y),
and stops at S, the first time X hits 0. Closed forms verified by the
Monte Carlo experiments here: Y_S^2/x^2 is Beta of the second kind with
parameters (1/2 - theta/pi, 1/2 + theta/pi); E[Y_S^b] =
x^b cos(theta)/cos(theta - b pi/2); E[log Y_S] = log x - (pi/2) tan(theta);
E[(log(Y_S/x))^2] = (pi^2/4)(1 + 2 tan^2 theta); and the sup/inf tail
bounds c_b (x/a)^b and c_b (a/x)^b.

Simulation scheme. Every leg is simulated from (1, 0) and rescaled to its
start x by the x-scaling of the law (lengths times x, times times x^2), so
no start radius, however small or large, reaches the stepping loop, and dt
is a step relative to x. Per step of size h the reflected coordinate and
its local-time increment are sampled exactly (Brownian-bridge minimum), so
the grid identities Y_k = B2_k + L_k and X_k = x + B1_k - tan(theta) L_k hold
exactly and the local time carries no grid bias. The step size adapts:
h = max(min(dt, (|Z|/12)^2), (X/12)^2) -- coarse far from the boundaries
(12 standard deviations of safety; boundary contact within a coarse step
has probability ~1e-9), refined below dt near the corner so that small
Y_S values are resolved (the x-scaling of the law makes the refined steps
exact replicas of coarser ones). dt remains the crossing resolution on
the X boundary. Leg durations have infinite mean for every theta, which is
why the far-field coarsening is not optional for batch work.

Per step each active leg draws two normals, z1 for X and z2 for Y. With
w = Y + sqrt(h) z2, the legs with Y w < BRIDGE_CUT h then draw the uniform
of their bridge minimum, and (with refine) the legs that neither crossed
nor touched (dL = 0) and have X X_new < BRIDGE_CUT h draw the uniform of
the within-step crossing test, each in leg order. Above the cut-off either
event has probability below 2**-53, the resolution of the uniforms (see
``halfline``), so the scheme is the one that draws both uniforms for every
leg except on the event u = 0, of probability 2**-53 per path-step. At
theta = pi/6 and dt = 1e-3 it draws about 2.3 words per path-step, not 4.

No leg or quadrant path is simulated on its own: ``record`` keeps whole
paths of the first rows of a batch (``OrbmLeg``, ``QuadrantPath``), and
keeping them changes no number the batch returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .halfline import BRIDGE_CUT, RngStream, check_horizon, map_chunks, reflected_increment
from .stats import reg_incomplete_beta

__all__ = [
    "LegOverflowError", "OrbmLeg", "LegSamples", "AngleSource", "FixedAngles",
    "UniformAngles", "QuadrantPath", "sample_legs", "ys_cdf", "ys_moment", "ys_log_mean",
    "ys_log_square_moment", "tail_bound", "expected_boundary_local_time",
    "sample_quadrant_processes", "QuadrantBatch",
]

SAFETY = 12.0  # step stays this many standard deviations away from boundaries


class LegOverflowError(RuntimeError):
    """Raised when a leg exceeds its step cap (plumbing; S is a.s. finite)."""


@dataclass
class OrbmLeg:
    """A recorded leg: its grid path, driver and step sizes, and the batch's
    terminal values for it."""

    theta: float
    x: float
    X: np.ndarray
    Y: np.ndarray
    L: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    step_sizes: np.ndarray
    Y_S: float
    L_at_S: float
    sup_abs: float
    inf_abs: float

    @property
    def times(self) -> np.ndarray:
        t = np.empty(len(self.X))
        t[0] = 0.0
        np.cumsum(self.step_sizes, out=t[1:])
        return t

    def to_csv(self, path) -> None:
        t = self.times
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "X", "Y", "L"])
            for k in range(len(self.X)):
                w.writerow([repr(float(t[k])), repr(float(self.X[k])),
                            repr(float(self.Y[k])), repr(float(self.L[k]))])


@dataclass
class LegSamples:
    """Terminal summaries of a batch of legs (one entry per leg). The
    durations are x^2 times those of the unit legs, inf where that passes
    the float range (x above about 1e154)."""

    theta: float
    x: float
    dt: float
    ys: np.ndarray
    local_times: np.ndarray
    sup_abs: np.ndarray
    inf_abs: np.ndarray
    durations: np.ndarray
    batch_steps: int         # steps of the leg batches, summed over chunks
    path_steps: int          # active legs summed over those steps
    bridge_uniforms: int     # bridge-minimum uniforms drawn
    crossing_uniforms: int   # within-step crossing uniforms drawn
    paths: list[OrbmLeg]     # the recorded legs

    @property
    def n(self) -> int:
        return len(self.ys)

    def diagnostics(self) -> dict:
        """The engine's work counts."""
        return {"batch_steps": self.batch_steps, "path_steps": self.path_steps,
                "bridge_uniforms": self.bridge_uniforms,
                "crossing_uniforms": self.crossing_uniforms}


def _leg_batch(theta, dt, n, gen, refine=True, max_steps=10 ** 8, record=0):
    """Vectorized simulation of n unit legs (start (1, 0)); theta may be a
    scalar or an (n,) array. Callers rescale a leg to its start x.

    With record = k it keeps, per step, (ids, X, Y, L, dB1, dB2, h) of the
    rows among 0..k-1 still active. Compaction keeps the row order, so they
    are the prefix of idx below k.
    """
    tan_t = np.broadcast_to(np.tan(np.asarray(theta, dtype=float)), (n,)).copy()
    X = np.ones(n)
    Y = np.zeros(n)
    L = np.zeros(n)
    sup = X.copy()
    inf = X.copy()
    elapsed = np.zeros(n)
    idx = np.arange(n)
    ys = np.zeros(n)
    ls = np.zeros(n)
    sups = np.zeros(n)
    infs = np.zeros(n)
    durs = np.zeros(n)
    rec = [[a[:record].copy() for a in (idx, X, Y, L)] + [np.zeros(record)] * 3]
    s2 = SAFETY * SAFETY
    steps = path_steps = n_bridge = n_cross = 0
    while idx.size:
        steps += 1
        if steps > max_steps:
            raise LegOverflowError(f"leg exceeded {max_steps} steps")
        m = idx.size
        h = np.maximum(np.minimum(dt, (X * X + Y * Y) / s2), X * X / s2)
        sq = np.sqrt(h)
        z1 = gen.standard_normal(m)
        z2 = gen.standard_normal(m)
        Ynew = Y + sq * z2
        dL = np.zeros(m)
        near = np.flatnonzero(Y * Ynew < BRIDGE_CUT * h)
        Ynew[near], dL[near] = reflected_increment(Y[near], h[near], z2[near],
                                                   gen.random(near.size))
        Xnew = X + sq * z1 - tan_t * dL
        cross = Xnew <= 0.0
        done = cross.copy()
        if refine:
            cand = np.flatnonzero(~cross & (dL == 0.0) & (X * Xnew < BRIDGE_CUT * h))
            done[cand] = gen.random(cand.size) < np.exp(-2.0 * X[cand] * Xnew[cand] / h[cand])
            n_cross += cand.size
        path_steps += m
        n_bridge += near.size
        az = np.sqrt(np.maximum(Xnew, 0.0) ** 2 + Ynew * Ynew)
        sup = np.maximum(sup, az)
        inf = np.minimum(inf, np.where(done, Ynew, az))
        elapsed = elapsed + h
        if record:
            r = np.searchsorted(idx, record)
            rec.append([a.copy() for a in (idx[:r], Xnew[:r], Ynew[:r], L[:r] + dL[:r],
                                           sq[:r] * z1[:r], sq[:r] * z2[:r], h[:r])])
        if done.any():
            d_ids = idx[done]
            ys[d_ids] = Ynew[done]
            ls[d_ids] = (L + dL)[done]
            sups[d_ids] = sup[done]
            infs[d_ids] = inf[done]
            durs[d_ids] = elapsed[done]
            keep = ~done
            idx = idx[keep]
            X = Xnew[keep]
            Y = Ynew[keep]
            L = (L + dL)[keep]
            sup = sup[keep]
            inf = inf[keep]
            elapsed = elapsed[keep]
            tan_t = tan_t[keep]
        else:
            X = Xnew
            Y = Ynew
            L = L + dL
    return ys, ls, sups, infs, durs, rec, np.array([steps, path_steps, n_bridge, n_cross])


def _recorded_legs(rec, theta, out, scale):
    """The OrbmLeg of each recorded row j of a unit leg batch, from its
    record ``rec`` and its terminal (ys, local times, sups, infs) ``out``,
    with lengths multiplied by scale[j] and times by scale[j]^2 (inf past
    the float range, as in ``LegSamples``)."""
    ids, *cols = (np.concatenate(c) for c in zip(*rec))
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids, minlength=len(scale)))[:-1]
    legs = []
    for j, (X, Y, L, dB1, dB2, h) in enumerate(zip(*(np.split(c[order], ends) for c in cols))):
        u = float(scale[j])
        legs.append(OrbmLeg(theta=float(theta[j]), x=u, X=u * X, Y=u * Y, L=u * L,
                            B1=u * np.cumsum(dB1), B2=u * np.cumsum(dB2),
                            step_sizes=u * u * h[1:], Y_S=u * out[0][j], L_at_S=u * out[1][j],
                            sup_abs=u * out[2][j], inf_abs=u * out[3][j]))
    return legs


def sample_legs(theta, x: float, dt: float, n: int, rng: RngStream,
                refine: bool = True, max_steps: int = 10 ** 8, chunk: int = 65536,
                threads: int = 1, record: int = 0) -> LegSamples:
    """Terminal summaries of n independent legs from (x, 0), and the paths
    of legs 0..record-1 (taken from chunk 0).

    The legs run at unit scale (see the module docstring), so dt is the
    step relative to x, and the outputs at x are x times those at 1 from
    the same stream (durations x^2 times).

    Chunks run through ``map_chunks``: results are identical for any
    thread count.
    ``theta`` may be a scalar or an (n,) array of per-leg angles.
    """
    _check_theta(np.min(theta))
    _check_theta(np.max(theta))
    check_horizon(x, dt)
    if not 0 <= record <= min(n, chunk):
        raise ValueError(f"need 0 <= record <= min(n, chunk), got {record}")
    theta_arr = np.broadcast_to(np.asarray(theta, dtype=float), (n,))
    paths = []

    def run(lo, hi, stream):
        k = record if lo == 0 else 0
        *out, durs, rec, counts = _leg_batch(theta_arr[lo:hi], dt, hi - lo, stream.generator(),
                                             refine=refine, max_steps=max_steps, record=k)
        if k:
            paths.extend(_recorded_legs(rec, theta_arr, out, np.full(k, float(x))))
        for a in out:
            a *= x
        durs *= x * x   # inf for x above about 1e154, and so are those durations
        return (*out, durs, counts[None, :])

    ys, ls, sups, infs, durs, counts = map_chunks(run, n, rng, chunk, threads)
    steps, path_steps, n_bridge, n_cross = (int(c) for c in counts.sum(axis=0))
    return LegSamples(theta=float(np.min(theta_arr)), x=x, dt=dt, ys=ys,
                      local_times=ls, sup_abs=sups, inf_abs=infs, durations=durs,
                      batch_steps=steps, path_steps=path_steps,
                      bridge_uniforms=n_bridge, crossing_uniforms=n_cross, paths=paths)


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < math.pi / 2):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")


# -- closed-form laws ---------------------------------------------------------

def ys_cdf(theta: float, x: float, y) -> float | np.ndarray:
    """P(Y_S <= y) for a leg of law P^theta_x: the regularized incomplete
    beta I_w(1/2 - theta/pi, 1/2 + theta/pi) at w = (y/x)^2/(1+(y/x)^2)."""
    _check_theta(theta)
    if x <= 0:
        raise ValueError("x must be > 0")
    a = 0.5 - theta / math.pi
    b = 0.5 + theta / math.pi
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0):
        raise ValueError("y must be >= 0")
    z = (y_arr / x) ** 2
    with np.errstate(invalid="ignore"):
        w = np.where(np.isinf(z), 1.0, z / (1.0 + z))
    return reg_incomplete_beta(a, b, w)


def ys_moment(theta: float, b: float, x: float = 1.0) -> float:
    """E[Y_S^b] = x^b cos(theta)/cos(theta - b pi/2), for
    b in (-1 + 2 theta/pi, 1 + 2 theta/pi)."""
    _check_theta(theta)
    if not (-1.0 + 2.0 * theta / math.pi < b < 1.0 + 2.0 * theta / math.pi):
        raise ValueError(f"moment order {b} outside validity interval")
    return x ** b * math.cos(theta) / math.cos(theta - b * math.pi / 2.0)


def ys_log_mean(theta: float, x: float = 1.0) -> float:
    """E[log Y_S] = log x - (pi/2) tan(theta)."""
    _check_theta(theta)
    return math.log(x) - math.pi / 2.0 * math.tan(theta)


def ys_log_square_moment(theta: float) -> float:
    """E[(log(Y_S/x))^2] = (pi^2/4)(1 + 2 tan^2 theta)."""
    _check_theta(theta)
    return math.pi ** 2 / 4.0 * (1.0 + 2.0 * math.tan(theta) ** 2)


def tail_bound(theta: float, x: float, a: float, b: float, side: str) -> float:
    """Closed-form tail bound for sup or inf of |Z| over a leg.

    side "up": P(sup |Z| > a) <= c_b (x/a)^b for a > x, 0 < b < 1+2theta/pi,
    with c_b = 1 when b <= 4 theta/pi and cos(theta)/cos(b pi/2 - theta)
    otherwise. side "down": P(inf |Z| < a) <= c_b (a/x)^b for a < x,
    0 < b < 1-2theta/pi, with c_b = cos(theta)/cos(b pi/2 + theta).
    """
    _check_theta(theta)
    if x <= 0:
        raise ValueError("x must be > 0")
    if side == "up":
        if not a > x:
            raise ValueError("up-side needs a > x")
        if not (0.0 < b < 1.0 + 2.0 * theta / math.pi):
            raise ValueError("b outside (0, 1 + 2 theta/pi)")
        c_b = 1.0 if b <= 4.0 * theta / math.pi else \
            math.cos(theta) / math.cos(b * math.pi / 2.0 - theta)
        return c_b * (x / a) ** b
    if side == "down":
        if not 0 < a < x:
            raise ValueError("down-side needs 0 < a < x")
        if not (0.0 < b < 1.0 - 2.0 * theta / math.pi):
            raise ValueError("b outside (0, 1 - 2 theta/pi)")
        c_b = math.cos(theta) / math.cos(b * math.pi / 2.0 + theta)
        return c_b * (a / x) ** b
    raise ValueError("side must be 'up' or 'down'")


def expected_boundary_local_time(theta1: float, theta2: float, x: float = 1.0) -> float:
    """E[L at the corner time] for alternating angles theta1, theta2 from
    (x, 0): x (tan theta2 + 1)/(tan theta1 tan theta2 - 1) when the tan
    product exceeds 1, else infinity.

    The infinite case is not a small-eps_stop limit. When
    tan theta1 tan theta2 <= 1, L has a power tail with index
    2 (theta1 + theta2)/pi <= 1, so its mean is infinite at every eps_stop
    and sample means of L do not converge."""
    _check_theta(theta1)
    _check_theta(theta2)
    if x <= 0:
        raise ValueError("x must be > 0")
    t1, t2 = math.tan(theta1), math.tan(theta2)
    if t1 * t2 <= 1.0:
        return math.inf
    return x * (t2 + 1.0) / (t1 * t2 - 1.0)


# -- quadrant process with per-leg angles ------------------------------------

class AngleSource:
    """Supplies the reflection angle for each leg, within declared bounds."""

    lo: float
    hi: float

    def angles_batch(self, n: int, m: int, gen: np.random.Generator) -> np.ndarray:
        """Vector of leg-n angles for m paths (for batch experiments)."""
        raise NotImplementedError


@dataclass
class FixedAngles(AngleSource):
    """theta1 on even legs, theta2 on odd legs."""

    theta1: float
    theta2: float

    def __post_init__(self):
        _check_theta(self.theta1)
        _check_theta(self.theta2)
        self.lo = min(self.theta1, self.theta2)
        self.hi = max(self.theta1, self.theta2)

    def angles_batch(self, n, m, gen):
        return np.full(m, self.theta1 if n % 2 == 0 else self.theta2)


@dataclass
class UniformAngles(AngleSource):
    """Independent uniform draws from [lo, hi] for every leg."""

    lo: float
    hi: float

    def __post_init__(self):
        _check_theta(self.lo)
        _check_theta(self.hi)
        if self.lo > self.hi:
            raise ValueError("lo > hi")

    def angles_batch(self, n, m, gen):
        return gen.uniform(self.lo, self.hi, size=m)


@dataclass
class QuadrantPath:
    """A recorded quadrant process: its legs, each rescaled by its entry
    radius U_n (the x-scaling of the leg law), so that leg n runs on the
    time scale U_n^2 and carries its angle."""

    legs: list[OrbmLeg]

    def to_csv(self, path) -> None:
        """Assembled quadrant path (coordinates swapped on odd legs)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "X", "Y", "L"])
            t0, l0 = 0.0, 0.0
            for n, leg in enumerate(self.legs):
                t = leg.times
                for k in range(1 if n else 0, len(leg.X)):
                    xk, yk = float(leg.X[k]), float(leg.Y[k])
                    if n % 2 == 1:
                        xk, yk = yk, xk
                    w.writerow([repr(t0 + float(t[k])), repr(max(xk, 0.0)),
                                repr(yk), repr(l0 + float(leg.L[k]))])
                t0 += float(t[-1])
                l0 += float(leg.L[-1])


@dataclass
class QuadrantBatch:
    """Summaries of a batch of quadrant processes."""

    l_totals: np.ndarray
    n_legs: np.ndarray
    terminated: np.ndarray
    sigma0_times: np.ndarray
    paths: list[QuadrantPath]   # the recorded processes

    @property
    def n(self) -> int:
        return len(self.l_totals)


def sample_quadrant_processes(source: AngleSource, x: float, dt: float,
                              eps_stop: float, max_legs: int, n: int,
                              rng: RngStream, chunk: int = 65536,
                              threads: int = 1, record: int = 0) -> QuadrantBatch:
    """Batch quadrant processes (unit legs per round, vectorized over paths),
    and the legs of processes 0..record-1 (taken from chunk 0).

    Each process runs until its leg endpoint drops below eps_stop (corner
    proxy) or max_legs is exhausted.
    """
    check_horizon(x, dt)
    if not (0.0 < eps_stop < x):
        raise ValueError("need 0 < eps_stop < x")
    if max_legs < 1:
        raise ValueError("need max_legs >= 1")
    if not 0 <= record <= min(n, chunk):
        raise ValueError(f"need 0 <= record <= min(n, chunk), got {record}")
    paths = [QuadrantPath([]) for _ in range(record)]

    def run(lo, hi, stream):
        m = hi - lo
        k = record if lo == 0 else 0
        gen = stream.generator()
        u = np.full(m, float(x))
        l_tot = np.zeros(m)
        t_tot = np.zeros(m)
        n_legs = np.zeros(m, dtype=np.int64)
        active = np.arange(m)
        for leg_i in range(max_legs):
            ma = active.size
            if ma == 0:
                break
            th = source.angles_batch(leg_i, ma, gen)
            r = np.searchsorted(active, k)  # the recorded processes still active
            *out, durs, rec, _ = _leg_batch(th, dt, ma, stream.child(leg_i).generator(),
                                            record=r)
            ys, lleg = out[:2]
            if r:
                for j, leg in zip(active[:r], _recorded_legs(rec, th, out, u[active[:r]])):
                    paths[j].legs.append(leg)
            l_tot[active] += u[active] * lleg
            t_tot[active] += u[active] ** 2 * durs
            u[active] = u[active] * ys
            n_legs[active] += 1
            active = active[u[active] >= eps_stop]
        return l_tot, n_legs, u < eps_stop, t_tot

    return QuadrantBatch(*map_chunks(run, n, rng, chunk, threads), paths=paths)
