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
  that pass through the origin. The driver is exposed so edge noises can
  be assembled around the path. The ray-redraw rule is exact only in the
  dt -> 0 limit; over one macroscopic excursion the last redraw before
  leaving zero dominates, which recovers the correct excursion weights.
  This is the documented bias source of coupled mode. (Folding, rather
  than clipping to the running minimum, keeps the pathwise expansion
  residuals centered: clipping destroys the overshoot value at every zero
  touch and biases them at order sqrt(dt).)

The coupled step exists once, as ``_coupled_step``, and every star-graph
grid engine starts from ``_start_state`` and takes that step: here
``wbm_coupled_path`` (one path), ``sample_wbm_terminals`` and
``sample_residual_summaries``; in ``isde`` the forward terminals
``sample_isde_terminals``, the pivot of ``npoint_motion`` and the replicas
of the filtered kernel. Each engine keeps its own draw order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .graphs import DomainFunction, GraphPoint, StarGraph
from .halfline import RngStream, grid_steps, heat_kernels

__all__ = [
    "WalshPath", "exact_step_arrays", "sample_exact_steps",
    "wbm_coupled_path", "sample_wbm_terminals", "semigroup_apply",
    "freidlin_sheu_residual", "ResidualSummary", "sample_residual_summaries",
]


@dataclass
class WalshPath:
    """Coupled-mode path: rays/radials per grid index, the running local
    time of the radial part (discrete Tanaka corrections, increasing only
    on origin-crossing steps), and the driving Brownian motion."""

    graph: StarGraph
    dt: float
    rays: np.ndarray
    radials: np.ndarray
    radial_localtime: np.ndarray
    driver: np.ndarray | None

    @property
    def n_steps(self) -> int:
        return len(self.radials) - 1

    def point(self, k: int) -> GraphPoint:
        return self.graph.point(int(self.rays[k]), float(self.radials[k]))

    def points(self) -> list[GraphPoint]:
        return [self.point(k) for k in range(len(self.radials))]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t", "edge", "coord", "localtime", "driver"])
            for k in range(len(self.radials)):
                w.writerow([repr(k * self.dt), int(self.rays[k]),
                            repr(float(self.radials[k])),
                            repr(float(self.radial_localtime[k])),
                            repr(float(self.driver[k])) if self.driver is not None else ""])


def _point_state(g: StarGraph, x: GraphPoint) -> tuple[int, float]:
    if x.is_vertex:
        return 0, 0.0
    return x.edge, x.coord


def exact_step_arrays(g: StarGraph, rays: np.ndarray, radials: np.ndarray,
                      t: float, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exact kernel step from (rays, radials) over time t."""
    if t <= 0:
        raise ValueError("t must be > 0")
    n = radials.size
    rho = np.abs(radials + math.sqrt(t) * gen.standard_normal(n))
    keep = gen.random(n) < np.tanh(radials * rho / t)
    fresh = np.searchsorted(np.cumsum(g.probs_array), gen.random(n))
    return np.where(keep, rays, fresh), rho


def sample_exact_steps(g: StarGraph, x: GraphPoint, t: float, n: int,
                       rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """n independent exact kernel draws from x; returns (rays, radials)."""
    ray, r = _point_state(g, x)
    return exact_step_arrays(g, np.full(n, ray), np.full(n, r), t, rng.generator())


def _start_state(cum: np.ndarray, x0: GraphPoint, n: int,
                 gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(rays, radials) of n paths at x0. From the origin each path draws its
    starting ray from the weights (``cum`` cumulative) with one uniform of
    its own, apart from the redraw uniforms of its steps."""
    if x0.is_vertex:
        return np.searchsorted(cum, gen.random(n)), np.zeros(n)
    return np.full(n, x0.edge, dtype=np.int64), np.full(n, x0.coord)


def _coupled_step(cum: np.ndarray, rays: np.ndarray, radials: np.ndarray,
                  xi: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coupled Walsh step of a batch: y = radials + xi, radial |y|, and
    the rows with y < 0 fold and take a ray drawn from the weights (``cum``
    cumulative) with their uniform u. Updates rays in place and returns
    (|y|, folded rows); a folded row's local time grows by 2 |y|."""
    y = radials + xi
    folded = np.flatnonzero(y < 0.0)
    rays[folded] = np.searchsorted(cum, u[folded])
    return np.abs(y), folded


def wbm_coupled_path(g: StarGraph, x0: GraphPoint, T: float, dt: float,
                     rng: RngStream) -> WalshPath:
    """Coupled-mode path on [0, T]: folded radial over a stored driver, ray
    redrawn from the weights at every origin crossing. Draws the K driver
    increments, then the K redraw uniforms, then the starting ray."""
    K = grid_steps(T, dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    xi = gen.standard_normal(K) * math.sqrt(dt)
    u = gen.random(K)
    ray, rad = _start_state(cum, x0, 1, gen)
    rays, radials, dL = [ray[0]], [rad[0]], [0.0]
    for k in range(K):
        rad, folded = _coupled_step(cum, ray, rad, xi[k:k + 1], u[k:k + 1])
        rays.append(ray[0])
        radials.append(rad[0])
        dL.append(2.0 * rad[0] if folded.size else 0.0)
    return WalshPath(graph=g, dt=dt, rays=np.array(rays), radials=np.array(radials),
                     radial_localtime=np.cumsum(dL),
                     driver=np.concatenate([[0.0], np.cumsum(xi)]))


def sample_wbm_terminals(g: StarGraph, x0: GraphPoint, T: float, dt: float,
                         n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Terminal (rays, radials) of n coupled paths at time T."""
    K = grid_steps(T, dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    rays, rad = _start_state(cum, x0, n, gen)
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        rad, _ = _coupled_step(cum, rays, rad, xi, gen.random(n))
    return rays, rad


def semigroup_apply(g: StarGraph, f: DomainFunction, t: float, x: GraphPoint) -> float:
    """Quadrature evaluation of the Walsh semigroup applied to f at (t, x).

    The integrand is q_plus(t, r, .) fbar + q_zero(t, r, .) (f_i - fbar),
    fbar the weight-average of the ray restrictions and f_i the restriction
    on x's ray.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
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


def freidlin_sheu_residual(path: WalshPath, f: DomainFunction) -> np.ndarray:
    """Per-index residual of the pathwise expansion of f along the path.

    M_k = f(X_k) - f(X_0) - sum_{j<k} f'(X_j) dB_j - (dt/2) sum_{j<k} f''(X_j)
          - f'(0) L_k.
    A discrete martingale up to the coupled-mode discretization bias.
    """
    if path.driver is None:
        raise ValueError("residuals need a coupled-mode path with its driver")
    vals = f.value_arrays(path.rays, path.radials)
    rays, radials = path.rays[:-1], path.radials[:-1]
    part = path.graph.partition(rays, radials)
    fp = f.derivative_arrays(rays, radials, part=part)
    fpp = f.second_derivative_arrays(rays, radials, part=part)
    dB = np.diff(path.driver)
    M = np.empty(len(vals))
    M[0] = 0.0
    M[1:] = (vals[1:] - vals[0]
             - np.cumsum(fp * dB)
             - 0.5 * path.dt * np.cumsum(fpp)
             - f.vertex_derivative(0) * path.radial_localtime[1:])
    return M


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


def sample_residual_summaries(g: StarGraph, fs: dict[str, DomainFunction],
                              T: float, dt: float, n: int, rng: RngStream,
                              x0: GraphPoint | None = None) -> dict[str, ResidualSummary]:
    """Batch terminal residuals for several test functions on shared paths.

    Each step partitions the batch by ray once and shares that partition
    across every test function; the redraw coins are drawn at full width,
    but only the paths that fold at that step look theirs up.
    """
    if x0 is None:
        x0 = g.origin()
    K = grid_steps(T, dt)
    gen = rng.generator()
    cum = np.cumsum(g.probs_array)
    sq = math.sqrt(dt)
    rays, rad = _start_state(cum, x0, n, gen)
    L = np.zeros(n)
    names = list(fs)
    sum_fp_dB = {nm: np.zeros(n) for nm in names}
    sum_fpp = {nm: np.zeros(n) for nm in names}
    bracket = {nm: np.zeros(n) for nm in names}  # sum_k f'^2 per path, times dt at the end
    part = g.partition(rays, rad)
    f0 = {nm: fs[nm].value_arrays(rays, rad, part=part) for nm in names}
    for _ in range(K):
        xi = sq * gen.standard_normal(n)
        u = gen.random(n)
        part = g.partition(rays, rad)
        for nm in names:
            fp = fs[nm].derivative_arrays(rays, rad, part=part)
            sum_fp_dB[nm] += fp * xi
            sum_fpp[nm] += fs[nm].second_derivative_arrays(rays, rad, part=part)
            bracket[nm] += fp * fp
        rad, folded = _coupled_step(cum, rays, rad, xi, u)
        L[folded] += 2.0 * rad[folded]
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
    return out
