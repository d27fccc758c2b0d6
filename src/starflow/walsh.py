"""Walsh Brownian motion on a star graph.

Two simulation modes:

* exact kernel stepping: one draw from the transition kernel, radial first
  (reflected Gaussian), then the ray, kept with probability
  q_zero/q_plus = tanh(r rho / t) and otherwise redrawn from the ray
  weights. Exact in distribution for any step size.
* coupled path: the radial part is the driver reflected by the discrete
  Tanaka rule (a step crossing zero is folded back, radial = |radial + dB|,
  and contributes -2 (radial + dB) to the running local time), and the ray
  is redrawn from the weights at every crossing step. The identity
  |X_k| - |X_0| - L_k = B_k holds exactly, and L increases only on steps
  that pass through the origin. The ray-redraw rule is exact only in the
  dt -> 0 limit; over one macroscopic excursion the last redraw before
  leaving zero dominates, which recovers the correct excursion weights.
  This is the documented bias source of coupled mode. (Folding, rather
  than clipping to the running minimum, keeps the pathwise expansion
  residuals centered: clipping destroys the overshoot value at every zero
  touch and biases them at order sqrt(dt).)

The coupled step exists once, as ``_coupled_step``, and every grid engine
on a graph starts from ``_start_state`` and takes that step: here
``sample_residual_summaries``, which also records whole paths (rows of its
batch) as ``WalshPath``; in ``isde`` the forward terminals
``sample_isde_terminals``, the pivot of ``npoint_motion`` and the replicas
of the filtered kernel; and in ``metric`` the walker, at the vertex each
path is anchored to. They, and the exact kernel step, draw edges from the
graph's weight table, ``MetricGraph.draw_edges``. The engine
draws the driver increments; the step draws the redraw coins itself, one
uniform per folding row after the fold test, in row order, and none for
the rows that keep their edge. That is exact: whichever rows fold, their
coins are iid U(0,1) and independent of the increments and of the past,
as coins drawn for every row would be.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .graphs import ORIGIN_VERTEX, DomainFunction, GraphPoint, MetricGraph, StarGraph
from .halfline import RngStream, grid_steps, heat_kernels

__all__ = [
    "WalshPath", "exact_step_arrays", "sample_exact_steps", "semigroup_apply",
    "ResidualSummary", "ResidualSamples", "sample_residual_summaries",
]


@dataclass
class WalshPath:
    """A recorded coupled-mode path: rays/radials per grid index, the
    running local time of the radial part (discrete Tanaka corrections,
    increasing only on origin-crossing steps), and the driver increments."""

    graph: StarGraph
    dt: float
    rays: np.ndarray
    radials: np.ndarray
    radial_localtime: np.ndarray
    increments: np.ndarray

    @property
    def driver(self) -> np.ndarray:
        """The driving Brownian motion at the grid indices."""
        return np.concatenate([[0.0], np.cumsum(self.increments)])

    def point(self, k: int) -> GraphPoint:
        return self.graph.point(int(self.rays[k]), float(self.radials[k]))

    def points(self) -> list[GraphPoint]:
        return [self.point(k) for k in range(len(self.radials))]

    def to_csv(self, path) -> None:
        driver = self.driver
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "edge", "coord", "localtime", "driver"])
            for k in range(len(self.radials)):
                w.writerow([repr(k * self.dt), int(self.rays[k]),
                            repr(float(self.radials[k])),
                            repr(float(self.radial_localtime[k])), repr(float(driver[k]))])


def _point_state(g: StarGraph, x: GraphPoint) -> tuple[int, float]:
    if x.is_vertex:
        return 0, 0.0
    return x.edge, x.coord


def exact_step_arrays(g: StarGraph, rays: np.ndarray, radials: np.ndarray,
                      t: float, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact kernel step from (rays, radials) over time t."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    n = radials.size
    rho = np.abs(radials + math.sqrt(t) * gen.standard_normal(n))
    keep = gen.random(n) < np.tanh(radials * rho / t)
    fresh = g.draw_edges(ORIGIN_VERTEX, gen.random(n))
    return np.where(keep, rays, fresh), rho


def sample_exact_steps(g: StarGraph, x: GraphPoint, t: float, n: int,
                       rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """n independent exact kernel draws from x; returns (rays, radials)."""
    ray, r = _point_state(g, x)
    return exact_step_arrays(g, np.full(n, ray), np.full(n, r), t, rng.generator())


def _start_state(g: MetricGraph, x0: GraphPoint, n: int,
                 gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(edges, coords) of n paths at x0. From a vertex each path draws its
    starting edge from the vertex's weights with one uniform and sits at
    that edge's end at the vertex (coord 0 on a star's rays)."""
    if x0.is_vertex:
        v0 = g.vertices.index(x0.vertex)
        edges = g.draw_edges(v0, gen.random(n))
        return edges, np.where(g.edge_src[edges] == v0, 0.0, g.edge_length[edges])
    return np.full(n, x0.edge, dtype=np.int64), np.full(n, float(x0.coord))


def _coupled_step(g: MetricGraph, v, edges: np.ndarray, y: np.ndarray,
                  gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The coupled Walsh step of a batch at the vertices of positions v (a
    scalar, or one per row): y is each row's distance to its vertex plus
    its signed driver increment, the new distance is |y|, and the rows with
    y < 0 fold and take an edge drawn from their vertex's weights with one
    uniform each, drawn from gen in row order after the fold test; rows
    that do not fold draw nothing. Updates edges in place and returns
    (|y|, folded rows); a folded row's local time grows by 2 |y|."""
    folded = np.flatnonzero(y < 0.0)
    if folded.size:
        edges[folded] = g.draw_edges(v[folded] if isinstance(v, np.ndarray) else v,
                                     gen.random(folded.size))
    return np.abs(y), folded


def semigroup_apply(g: StarGraph, f: DomainFunction, t: float, x: GraphPoint) -> float:
    """Quadrature evaluation of the Walsh semigroup applied to f at (t, x).

    The integrand is q_plus(t, r, .) fbar + q_zero(t, r, .) (f_i - fbar),
    fbar the weight-average of the ray restrictions and f_i the restriction
    on x's ray.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    ray, r = _point_state(g, x)
    probs = g.probs_array

    def fbar(rho):
        return sum(p * fun[0](rho) for p, fun in zip(probs, f.edge_funcs))

    fi = f.edge_funcs[ray][0]

    def integrand(rho):
        qp, qz = heat_kernels(t, r, rho)
        fb = fbar(rho)
        return qp * fb + qz * (fi(rho) - fb)

    width = 12.0 * math.sqrt(t)
    lo, hi = max(0.0, r - width), r + width
    pieces = sorted({lo, hi, max(lo, min(hi, r))})
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        if b > a:
            val, _ = integrate.quad(integrand, a, b, epsabs=1e-10, epsrel=1e-10, limit=200)
            total += val
    return total


@dataclass
class ResidualSummary:
    """Terminal residual statistics for one test function over a batch."""

    name: str
    residuals: np.ndarray          # M_T per path
    martingale_part: np.ndarray    # f(X_T)-f(X_0)-(dt/2) sum f'' - f'(0) L_T per path
    bracket: np.ndarray            # dt * sum_k f'(X_k)^2 per path

    @property
    def isometry_prediction(self) -> float:
        """E[(sum f' dB)^2] by the discrete Ito isometry: the mean bracket."""
        return float(self.bracket.mean())

    @property
    def variance_ratio(self) -> float:
        return float(np.var(self.martingale_part, ddof=1) / self.isometry_prediction)

    @property
    def isometry_defects(self) -> np.ndarray:
        """Per path, d = (mart - mean mart)^2 - bracket. The discrete Ito
        isometry E(sum f' dB)^2 = E bracket gives E d = 0, up to the
        residual's share of the variance and a -Var(mart)/n term."""
        return (self.martingale_part - self.martingale_part.mean()) ** 2 - self.bracket


@dataclass
class ResidualSamples:
    """The residual engine's output: a summary per test function, and the
    recorded paths."""

    summaries: dict[str, ResidualSummary]
    paths: list[WalshPath]


def sample_residual_summaries(g: StarGraph, fs: dict[str, DomainFunction],
                              T: float, dt: float, n: int, rng: RngStream,
                              x0: GraphPoint | None = None, record: int = 0) -> ResidualSamples:
    """Batch terminal residuals for several test functions on shared paths,
    and the paths of rows 0..record-1.

    The residual of f along a path is
    M_K = f(X_K) - f(X_0) - sum_k f'(X_k) dB_k - (dt/2) sum_k f''(X_k) - f'(0) L_K,
    a discrete martingale up to the coupled-mode discretization bias.
    Each step partitions the batch by ray once and shares that partition
    across every test function; it draws the n driver increments, and a
    redraw coin only for the paths that fold.
    """
    if x0 is None:
        x0 = g.origin()
    if not 0 <= record <= n:
        raise ValueError(f"need 0 <= record <= n, got {record}")
    K = grid_steps(T, dt)
    gen = rng.generator()
    sq = math.sqrt(dt)
    rays, rad = _start_state(g, x0, n, gen)
    L = np.zeros(n)
    names = list(fs)
    sum_fp_dB = {nm: np.zeros(n) for nm in names}
    sum_fpp = {nm: np.zeros(n) for nm in names}
    bracket = {nm: np.zeros(n) for nm in names}  # sum_k f'^2 per path, times dt at the end
    part = g.partition(rays, rad)
    f0 = {nm: fs[nm].value_arrays(rays, rad, part=part) for nm in names}
    rec = [(rays[:record].copy(), rad[:record].copy(), np.zeros(record), np.zeros(record))]
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        part = g.partition(rays, rad)
        for nm in names:
            fp = fs[nm].derivative_arrays(rays, rad, part=part)
            sum_fp_dB[nm] += fp * xi
            sum_fpp[nm] += fs[nm].second_derivative_arrays(rays, rad, part=part)
            bracket[nm] += fp * fp
        rad, folded = _coupled_step(g, ORIGIN_VERTEX, rays, rad + xi, gen)
        L[folded] += 2.0 * rad[folded]
        if record:
            rec.append([a[:record].copy() for a in (rays, rad, L, xi)])
    part = g.partition(rays, rad)
    out = {}
    for nm in names:
        fT = fs[nm].value_arrays(rays, rad, part=part)
        mart = fT - f0[nm] - 0.5 * dt * sum_fpp[nm] - fs[nm].vertex_derivative(0) * L
        out[nm] = ResidualSummary(
            name=nm,
            residuals=mart - sum_fp_dB[nm],
            martingale_part=mart,
            bracket=np.multiply(bracket[nm], dt, out=bracket[nm]),
        )
    rays_k, rad_k, l_k, xi_k = (np.stack(c) for c in zip(*rec))
    return ResidualSamples(out, [WalshPath(g, dt, rays_k[:, j], rad_k[:, j], l_k[:, j],
                                           xi_k[1:, j]) for j in range(record)])
