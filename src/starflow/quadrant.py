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

Far from both boundaries a leg jumps instead (walk on spheres, Muller
1956). Its free disk has radius rho = min(X, Y, |Z| - inf, sup - |Z|), with
inf and sup the running extremes of |Z|: the disk misses both boundaries
and stays inside the annulus between them. Inside it the leg is a planar
Brownian motion, with no local time and no crossing, and it cannot move
the running extremes. From the centre, the exit point is uniform on the
circle and independent of the exit time rho^2 tau_1, where tau_1 is the
exit time of the unit disk (the hitting time of 1 by a 2-dimensional
Bessel process; Borodin & Salminen). A jump is exact for any rho > 0 and
covers E tau = rho^2 / 2 of time (E tau_1 = 1/2), a step h, so a leg
jumps wherever rho^2 >= 2 h (rho >= JUMP sqrt(h), JUMP = sqrt 2), where a
jump outruns a step. A jump is the Brownian increment over tau, so
recorded rows carry (dB1, dB2, h) = (jump, tau) and the grid identities
above still hold. The law of tau_1 comes from a table whose CDF error is
below 3e-7 (``_exit_time_table``); it moves only the durations, never the
exit point. A level finds its interval of the table in O(1), through a
guide of 512 cells per octave of the level (a guided table lookup, Chen &
Asau 1974) and a fixed number of corrections (one for this table), not a
binary search of the 2000 nodes, and the exit time is np.interp's value
on that table bit for bit (``_unit_exit_times``). At theta = pi/6 and
dt = 1e-3 jumps cut the path-steps of a leg from about 600 to about 200,
29 % of them jumps.

Per path-step each active leg draws two normals, z1 and z2. A stepping leg
takes them as the increments of X and Y; a jumping leg takes z / |z| as
its exit direction and |z|^2 / 2, which is Exp(1) and independent of it,
as the level of its exit time, and draws nothing more. Y takes
``halfline.reflected_step`` and the end test is ``halfline.bridge_crossings``
on X; a jumping leg passes h = 0 to both, so they give it dL = 0, and
each draws a uniform only for the stepping legs within the cut-off stated
in ``halfline``. At theta = pi/6 and dt = 1e-3 a leg draws about 2.45 words
per path-step, not 4.

A quadrant process is a row of the same batch (``_leg_batch``); a leg is
a process of one leg. Its legs take theta1 and theta2 in turn, and leg
n + 1 starts where leg n ended, at U_n, the product of the Y_S before it:
by the x-scaling it is U_n times a unit leg, independent of the legs
before it given U_n by the strong Markov property at S. So a row whose leg
ends restarts in place at (1, 0) with the next angle, and retires after
max_legs legs or once U_n < eps_stop / x. Every batch step serves every
active process, whatever leg it is on.

No leg or quadrant path is simulated on its own: ``record`` keeps whole
paths of the processes with the lowest ids of a batch (``OrbmLeg``,
``QuadrantPath``), and keeping them changes no number the batch returns.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .halfline import RngStream, bridge_crossings, check_horizon, map_chunks, reflected_step
from .stats import reg_incomplete_beta

__all__ = [
    "LegOverflowError", "OrbmLeg", "LegSamples", "FixedAngles",
    "QuadrantPath", "sample_legs", "ys_cdf", "ys_moment", "ys_log_mean",
    "ys_log_square_moment", "tail_bound", "expected_boundary_local_time",
    "sample_quadrant_processes", "QuadrantBatch",
]

SAFETY = 12.0  # step stays this many standard deviations away from boundaries
# a leg jumps where its free disk has radius rho >= JUMP sqrt(h): a jump
# covers E tau = rho^2 / 2 of time (E tau_1 = 1/2 for the unit disk) and a
# step h, so from rho^2 >= 2 h one jump outruns one step
JUMP = math.sqrt(2.0)


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
    path_steps: int          # active legs summed over those steps: steps plus jumps
    jumps: int               # of those, jumps across a free disk
    bridge_uniforms: int     # bridge-minimum uniforms drawn
    crossing_uniforms: int   # within-step crossing uniforms drawn
    tail_steps: int          # batch steps with fewer than 1 % of the batch's legs active
    longest_leg_steps: int   # steps of the longest batch, its longest leg's (cap: max_steps)
    paths: list[OrbmLeg]     # the recorded legs

    @property
    def n(self) -> int:
        return len(self.ys)

    def diagnostics(self) -> dict:
        """The engine's work counts, and the longest leg's steps against the
        max_steps cap."""
        return {"batch_steps": self.batch_steps, "path_steps": self.path_steps,
                "jumps": self.jumps, "bridge_uniforms": self.bridge_uniforms,
                "crossing_uniforms": self.crossing_uniforms, "tail_steps": self.tail_steps,
                "longest_leg_steps": self.longest_leg_steps}


@functools.lru_cache(maxsize=None)
def _exit_time_table():
    """Nodes (H(t_i), t_i) of H = -log P(tau_1 > t), for tau_1 the exit time
    of planar Brownian motion from the unit disk, and the slope 2 / j_1^2
    of its inverse beyond the last node.

    P(tau_1 > t) = sum_k 2 / (j_k J_1(j_k)) exp(-j_k^2 t / 2) over the zeros
    j_k of J_0, summed one zero at a time on 2000 nodes geometric in
    [0.015, 3]; 30 zeros leave terms below 1e-20 at t = 0.015. Past t = 3
    the first term alone is exact to e^-37 relative, so the inverse is
    linear there. Linear interpolation between the nodes gives quantiles
    whose CDF error is below 3e-7 (sup over u); below the first node the
    quantile is 0.015, where the CDF is 6e-15. H is strictly increasing,
    which ``_exit_time_guide`` needs to index it for ``_unit_exit_times``;
    that lookup gives np.interp's values on these nodes bit for bit.
    """
    from scipy.special import j1, jn_zeros

    t = np.exp(np.linspace(math.log(0.015), math.log(3.0), 2000))
    zeros = jn_zeros(0, 30)
    surv = np.zeros_like(t)
    for j, c in zip(zeros, 2.0 / (zeros * j1(zeros))):
        surv += c * np.exp(-0.5 * j * j * t)
    return -np.log(surv), t, 2.0 / zeros[0] ** 2


# a level's guide cell is its float64 bit pattern shifted right by
# 52 - GUIDE_BITS: its exponent and top GUIDE_BITS mantissa bits, a
# piecewise-linear log2 of it, so 2^GUIDE_BITS cells per octave
GUIDE_BITS = 9


@functools.lru_cache(maxsize=None)
def _exit_time_guide():
    """A guided table lookup (Chen & Asau 1974) on ``_exit_time_table``:
    (base, start, k, nxt, H, t, slopes), with a sentinel node (0, t_0) of
    slope 0 in front of the table's nodes.

    For levels >= 0 the bits of a float64, read as an int64, increase with
    the level, and so does its cell, bits >> (52 - GUIDE_BITS). The cells
    run from that of H_0 (``base``) to that of H_-1, and start[c] is the
    interval j (H[j] <= zeta < H[j + 1]) of the least level of cell c, a
    lower bound on the interval of every level in it. The cell is exact
    integer arithmetic, so no rounding margin is needed. k, the largest
    step from one cell's start to the next, is derived from the table: k
    steps of j += nxt[j] <= zeta reach the level's interval and never pass
    it. nxt[j] is H[j + 1], and nan after the last node, which no level
    passes; slopes are np.diff(t) / np.diff(H), then the tail slope."""
    H, t, tail = _exit_time_table()
    shift = 52 - GUIDE_BITS
    base, top = (int(np.float64(h).view(np.int64)) >> shift for h in (H[0], H[-1]))
    slopes = np.concatenate([[0.0], np.diff(t) / np.diff(H), [tail]])
    H, t = np.concatenate([[0.0], H]), np.concatenate([t[:1], t])
    lows = (np.arange(base, top + 1) << shift).view(np.float64)
    start = np.searchsorted(H, lows, side="right") - 1
    # a level of cell c lies below the least level of cell c + 1, and one
    # past the last cell below nan, so its interval is at most the next start
    k = int(np.max(np.diff(start, append=H.size - 1)))
    return base, start, k, np.append(H[1:], np.nan), H, t, slopes


def _unit_exit_times(zeta):
    """Exit times of the unit disk at the levels zeta >= 0: the quantile
    F^-1(1 - e^-zeta) of tau_1, so an Exp(1) zeta gives tau_1 in law.

    This is np.interp(zeta, H, t) + tail max(zeta - H[-1], 0) on the table,
    bit for bit: a level finds its interval j through the guide and takes
    np.interp's own line, slopes[j] (zeta - H[j]) + t[j]. A level below the
    guide's first cell takes the sentinel's t_0, as np.interp does below
    H_0, and one past its last cell the tail. zeta may be a scalar."""
    base, start, k, nxt, H, t, slopes = _exit_time_guide()
    z = np.asarray(zeta, dtype=float)
    j = start.take((z.view(np.int64) >> (52 - GUIDE_BITS)) - base, mode="clip")
    for _ in range(k):
        j += nxt[j] <= z
    return slopes[j] * (z - H[j]) + t[j]


def _disk_exits(rho, z1, z2):
    """(s, tau): planar Brownian motion started at the centre of a disk of
    radius rho leaves it at s z after the time tau, from two standard
    normals z = (z1, z2) per row. z / |z| is uniform on the circle and
    independent of zeta = |z|^2 / 2, which is Exp(1), so s = rho / |z| and
    tau = rho^2 tau_1(zeta). The radius shrinks by 1e-9 relative, so that
    rounding cannot put an exit point on the disk's rim."""
    zeta = 0.5 * (z1 * z1 + z2 * z2)
    r = rho * (1.0 - 1e-9)
    return r / np.sqrt(2.0 * zeta), r * r * _unit_exit_times(zeta)


def _leg_batch(theta, dt, n, gen, max_steps=10 ** 8, record=0, max_legs=1, eps_unit=0.0):
    """Vectorized simulation of n quadrant processes of unit legs, each
    from (1, 0), as the module docstring describes; theta is (2, n), and
    row j's legs take theta[0, j] and theta[1, j] in turn.

    When a row's leg ends, its sums of U L_S and U^2 S (from 0) take the
    leg at the scale U it entered with (from 1), and U becomes U Y_S, so
    one leg (max_legs = 1) gives its own Y_S, L_S and S bit for bit. The
    row retires after max_legs legs or once U < eps_unit, else restarts in
    place. The active rows are 0..m-1: the live rows of the tail
    [m - retired, m) move into the retired rows below it, in order, and
    the state shrinks to that head, so retirement costs the rows that
    retired, not the width.

    With record = k it keeps, per step, (ids, X, Y, L, dB1, dB2, h) of the
    active rows with ids below k, (dB1, dB2, h) = (jump, tau) on a jump,
    and the restart point of such a row with (0, 0, 0), so h = 0 marks the
    first row of each leg. Returns per process U, sum U L_S, the sup and
    inf of |Z| over its last leg, sum U^2 S and its legs; the record; and
    the counts: steps, path-steps, jumps, bridge and crossing uniforms, and
    the tail steps, those with fewer than 1 % of the n processes active.
    """
    tan_t = np.tan(theta[0])
    X, sup, inf, scale = (np.ones(n) for _ in range(4))
    Y, L, elapsed, l_tot, sups, infs, t_tot = (np.zeros(n) for _ in range(7))
    idx = np.arange(n)
    # a leg takes at least one step, so no row runs more than max_steps legs
    legs = np.zeros(n, dtype=np.min_scalar_type(min(max_legs, max_steps)))
    rec = [[a[:record].copy() for a in (idx, X, Y, L)] + [np.zeros(record)] * 3]
    s2 = SAFETY * SAFETY
    steps = path_steps = n_jump = n_bridge = n_cross = n_tail = 0
    m = n
    while m:
        steps += 1
        if steps > max_steps:
            raise LegOverflowError(f"leg exceeded {max_steps} steps")
        n_tail += 100 * m < n
        r2 = X * X + Y * Y
        h = np.maximum(np.minimum(dt, r2 / s2), X * X / s2)
        sq = np.sqrt(h)
        # the free disk misses both boundaries and stays inside the annulus
        # inf <= |Z| <= sup, so a jump across it changes no running extreme;
        # r2 turns into |Z| and then sup - |Z| in place, and r2 and sq go
        # before the primitives run, so the step's peak memory does not grow
        rho = np.minimum(X, Y)
        np.sqrt(r2, out=r2)
        np.minimum(rho, r2 - inf, out=rho)
        np.minimum(rho, np.subtract(sup, r2, out=r2), out=rho)
        jump = np.flatnonzero(rho >= JUMP * sq)
        dB1 = gen.standard_normal(m)
        dB2 = gen.standard_normal(m)
        if jump.size:
            # a jumping row scales its normals to the exit point, and at
            # h = 0 the two primitives draw nothing for it and give dL = 0
            sq[jump], tau = _disk_exits(rho[jump], dB1[jump], dB2[jump])
            h[jump] = 0.0
        dB1 *= sq
        dB2 *= sq
        del r2, sq, rho
        Y, dL, near = reflected_step(Y, Y + dB2, h, gen)
        Xnew = X + dB1 - tan_t * dL
        # a leg whose Y touched 0 moved X by -tan(theta) dL within the step,
        # so its X path is no Brownian bridge: it ends only if Xnew <= 0
        done, cand = bridge_crossings(X, Xnew, h, dL == 0.0, gen)
        X = Xnew
        if jump.size:
            h[jump] = tau
        path_steps += m
        n_jump += jump.size
        n_bridge += near.size
        n_cross += cand.size
        L += dL
        elapsed += h
        dd = np.flatnonzero(done)
        d_ids = idx[dd]
        # an ended leg's inf runs up to its crossing of X = 0, where |Z| = Y
        infs[d_ids] = np.minimum(inf[dd], Y[dd])
        az = np.sqrt(np.maximum(X, 0.0) ** 2 + Y * Y)
        np.maximum(sup, az, out=sup)
        np.minimum(inf, az, out=inf)
        if record:
            r = np.flatnonzero(idx < record)
            rec.append([a[r] for a in (idx, X, Y, L, dB1, dB2, h)])
        if dd.size:
            u = scale[d_ids]
            l_tot[d_ids] += u * L[dd]
            t_tot[d_ids] += u * u * elapsed[dd]
            scale[d_ids] = u = u * Y[dd]
            sups[d_ids] = sup[dd]
            legs[d_ids] += 1
            again = (legs[d_ids] < max_legs) & (u >= eps_unit)
            if again.any():
                on, i = dd[again], d_ids[again]
                X[on] = sup[on] = inf[on] = 1.0
                Y[on] = L[on] = elapsed[on] = 0.0
                tan_t[on] = np.tan(theta[legs[i] % 2, i])
                done[on] = False
                dd = dd[~again]
                if record:
                    r = on[i < record]
                    rec.append([idx[r], X[r], Y[r], L[r]] + [np.zeros(r.size)] * 3)
        if dd.size:
            m -= dd.size
            holes = dd[:np.searchsorted(dd, m)]
            live = m + np.flatnonzero(~done[m:])
            for a in (idx, X, Y, L, sup, inf, elapsed, tan_t):
                a[holes] = a[live]
            idx, X, Y, L, sup, inf, elapsed, tan_t = (
                a[:m] for a in (idx, X, Y, L, sup, inf, elapsed, tan_t))
    counts = [steps, path_steps, n_jump, n_bridge, n_cross, n_tail]
    return scale, l_tot, sups, infs, t_tot, legs, rec, np.array(counts)


def _recorded_legs(rec, theta, x):
    """The legs of each recorded process j of a ``_leg_batch`` run on the
    angles theta, its record ``rec`` split where h = 0. Leg k enters at
    U_k, the product of the Y_S before it, and takes theta[k % 2, j],
    lengths times x U_k and times times (x U_k)^2 (inf past the float
    range, as in ``LegSamples``). Its sup and inf of |Z| come from its own
    rows as ``_leg_batch`` takes them: the sup over every row, the inf over
    every row but the last, and the last Y."""
    ids, *cols = (np.concatenate(c) for c in zip(*rec))
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids))[:-1]
    for j, rows in enumerate(zip(*(np.split(c[order], ends) for c in cols))):
        firsts = np.flatnonzero(rows[-1] == 0.0)[1:]
        unit, legs = 1.0, []
        for k, (X, Y, L, dB1, dB2, h) in enumerate(zip(*(np.split(c, firsts) for c in rows))):
            u = float(x) * unit
            az = np.sqrt(np.maximum(X, 0.0) ** 2 + Y * Y)
            legs.append(OrbmLeg(theta=float(theta[k % 2, j]), x=u, X=u * X, Y=u * Y, L=u * L,
                                B1=u * np.cumsum(dB1), B2=u * np.cumsum(dB2),
                                step_sizes=u * u * h[1:], Y_S=u * Y[-1], L_at_S=u * L[-1],
                                sup_abs=u * az.max(), inf_abs=u * min(az[:-1].min(), Y[-1])))
            unit *= float(Y[-1])
        yield legs


def _unit_runs(theta, x, dt, n, rng, chunk, record, max_steps=10 ** 8, max_legs=1,
               eps_unit=0.0):
    """``_leg_batch`` on chunk ci of ``chunk`` processes through
    ``map_chunks``, on the stream rng.child(ci), with theta broadcast to
    (2, n). Returns its outputs, concatenated, U at unit scale and the sums
    and extremes x times (sums of S x^2 times, inf for x above about 1e154);
    its counts, one row per chunk; and the legs of processes 0..record-1
    (from chunk 0) at x."""
    check_horizon(x, dt)
    if not 0 <= record <= min(n, chunk):
        raise ValueError(f"need 0 <= record <= min(n, chunk), got {record}")
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (2, n))
    recorded = []

    def run(lo, hi, stream):
        k = record if lo == 0 else 0
        *out, rec, counts = _leg_batch(theta[:, lo:hi], dt, hi - lo, stream.generator(),
                                       max_steps, k, max_legs, eps_unit)
        if k:
            recorded.extend(_recorded_legs(rec, theta, x))
        return (*out, counts[None, :])

    *out, counts = map_chunks(run, n, rng, chunk)
    for a in out[1:4]:
        a *= x
    out[4] *= x * x
    return out, counts, recorded


def sample_legs(theta, x: float, dt: float, n: int, rng: RngStream,
                max_steps: int = 10 ** 8, chunk: int = 65536,
                record: int = 0) -> LegSamples:
    """Terminal summaries of n independent legs from (x, 0), and the paths
    of legs 0..record-1: ``_unit_runs`` with one leg per process.

    The legs run at unit scale (see the module docstring), so dt is the
    step relative to x, and the outputs at x are x times those at 1 from
    the same stream (durations x^2 times). ``theta`` may be a scalar or an
    (n,) array of per-leg angles.
    """
    _check_theta(np.min(theta))
    _check_theta(np.max(theta))
    (ys, *out, _), counts, recorded = _unit_runs(theta, x, dt, n, rng, chunk, record, max_steps)
    ys *= x
    # the counts are LegSamples' from batch_steps to tail_steps, in order
    return LegSamples(float(np.min(theta)), x, dt, ys, *out,
                      *(int(c) for c in counts.sum(axis=0)), int(counts[:, 0].max()),
                      [legs[0] for legs in recorded])


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < math.pi / 2):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")


def _check_x(x: float) -> None:
    # written so that nan fails too
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x}")


# -- closed-form laws ---------------------------------------------------------

def ys_cdf(theta: float, x: float, y) -> float | np.ndarray:
    """P(Y_S <= y) for a leg of law P^theta_x: the regularized incomplete
    beta I_w(1/2 - theta/pi, 1/2 + theta/pi) at w = (y/x)^2/(1+(y/x)^2)."""
    _check_theta(theta)
    _check_x(x)
    a = 0.5 - theta / math.pi
    b = 0.5 + theta / math.pi
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr >= 0):
        raise ValueError("y must be >= 0 and not nan")
    z = (y_arr / x) ** 2
    with np.errstate(invalid="ignore"):
        w = np.where(np.isinf(z), 1.0, z / (1.0 + z))
    return reg_incomplete_beta(a, b, w)


def ys_moment(theta: float, b: float, x: float = 1.0) -> float:
    """E[Y_S^b] = x^b cos(theta)/cos(theta - b pi/2), for
    b in (-1 + 2 theta/pi, 1 + 2 theta/pi)."""
    _check_theta(theta)
    _check_x(x)
    if not (-1.0 + 2.0 * theta / math.pi < b < 1.0 + 2.0 * theta / math.pi):
        raise ValueError(f"moment order {b} outside validity interval")
    return x ** b * math.cos(theta) / math.cos(theta - b * math.pi / 2.0)


def ys_log_mean(theta: float, x: float = 1.0) -> float:
    """E[log Y_S] = log x - (pi/2) tan(theta)."""
    _check_theta(theta)
    _check_x(x)
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
    _check_x(x)
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
    _check_x(x)
    t1, t2 = math.tan(theta1), math.tan(theta2)
    if t1 * t2 <= 1.0:
        return math.inf
    return x * (t2 + 1.0) / (t1 * t2 - 1.0)


# -- quadrant process with per-leg angles ------------------------------------

@dataclass
class FixedAngles:
    """theta1 on even legs, theta2 on odd legs."""

    theta1: float
    theta2: float

    def __post_init__(self):
        _check_theta(self.theta1)
        _check_theta(self.theta2)


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
    """Summaries of a batch of quadrant processes, each one row of
    ``_leg_batch`` whose legs restart in place at unit scale, exact in law
    by the x-scaling and the strong Markov property at S. The local times
    are x times those at unit scale, and the corner times x^2 times, inf
    where that passes the float range (x above about 1e154)."""

    l_totals: np.ndarray
    n_legs: np.ndarray
    terminated: np.ndarray
    sigma0_times: np.ndarray
    batch_steps: int            # steps of the process batches, summed over chunks
    path_steps: int             # active processes summed over those steps: steps plus jumps
    jumps: int                  # of those, jumps across a free disk
    tail_steps: int             # steps with fewer than 1 % of their batch's processes active
    longest_leg_steps: int      # steps of the longest batch, its longest process's
    paths: list[QuadrantPath]   # the recorded processes

    @property
    def n(self) -> int:
        return len(self.l_totals)

    def diagnostics(self) -> dict:
        """The engine's work counts, the longest process's steps (against
        the default max_steps), and the processes that max_legs stopped
        before they reached eps_stop."""
        return {"batch_steps": self.batch_steps, "path_steps": self.path_steps, "jumps": self.jumps,
                "tail_steps": self.tail_steps, "longest_leg_steps": self.longest_leg_steps,
                "unterminated": int(self.n - np.count_nonzero(self.terminated))}


def sample_quadrant_processes(source: FixedAngles, x: float, dt: float,
                              eps_stop: float, max_legs: int, n: int,
                              rng: RngStream, chunk: int = 65536,
                              record: int = 0) -> QuadrantBatch:
    """Batch quadrant processes, and the legs of processes 0..record-1:
    ``_unit_runs`` with max_legs legs per process.

    Each process runs until its leg endpoint drops below eps_stop (corner
    proxy) or max_legs is exhausted, at unit scale from 1 down to
    eps_stop / x, so no start radius overflows the squared scales of the
    corner time. Its legs restart in place: leg n + 1 starts at (1, 0)
    with the other angle and is rescaled by U_n, the product of the Y_S
    before it, which is exact in law by the x-scaling of P^theta and the
    strong Markov property at S (see the module docstring).
    """
    if not (0.0 < eps_stop < x):
        raise ValueError("need 0 < eps_stop < x")
    if max_legs < 1:
        raise ValueError("need max_legs >= 1")
    eps_unit = eps_stop / x
    (u, l_tot, _, _, t_tot, n_legs), counts, recorded = _unit_runs(
        [[source.theta1], [source.theta2]], x, dt, n, rng, chunk, record,
        max_legs=max_legs, eps_unit=eps_unit)
    # steps, path-steps, jumps and tail steps, in QuadrantBatch's order
    return QuadrantBatch(l_tot, n_legs.astype(np.int64), u < eps_unit, t_tot,
                         *(int(c) for c in counts.sum(axis=0)[[0, 1, 2, 5]]),
                         int(counts[:, 0].max()), [QuadrantPath(legs) for legs in recorded])
