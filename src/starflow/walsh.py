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
on a graph starts from ``_start_state`` and takes that step. Here it is
``sample_residual_summaries``, the one grid engine of the coupled path on
a star: one pass gives the test functions' residual sums, assembles the
forward construction's edge noises W_T from the same driver increments,
and records whole paths (rows of its batch) as ``WalshPath``;
``isde.sample_isde_terminals`` is that engine with no test function. It
evaluates no test function along the path: each is a quadratic on each
ray, so its residual sums follow from moment sums per path and cell (a
ray, or the vertex) that the engine keeps per stint. In
``isde`` the step also moves the pivot of ``npoint_motion`` and the
replicas of the filtered kernel, and in ``metric`` the walker, at the
vertex each path is anchored to. They, and the exact kernel step, draw
edges from the graph's weight table, ``MetricGraph.draw_edges``. An engine
draws the driver increments; the step draws the redraw coins itself, one
uniform per folding row after the fold test, in row order, and none for
the rows that keep their edge. That is exact: whichever rows fold, their
coins are iid U(0,1) and independent of the increments and of the past,
as coins drawn for every row would be.

``semigroup_apply``, the quadrature reference of ``walsh-kernel``, loads
``scipy.integrate`` on its first call rather than at import: that module
pulls in ``scipy.optimize`` and ``scipy.linalg``, about a third of the
CLI's start-up time and 25 MB of its memory, which every experiment but
``walsh-kernel`` would pay for nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

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
    on x's ray. ``scipy.integrate`` is imported here, on first use, so that
    importing this module (and the CLI) does not load it.
    """
    from scipy import integrate

    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    ray, r = _point_state(g, x)
    probs = g.probs_array

    def fbar(rho):
        return sum(p * f.edge_eval(0, e, rho) for e, p in enumerate(probs))

    def integrand(rho):
        qp, qz = heat_kernels(t, r, rho)
        fb = fbar(rho)
        return qp * fb + qz * (f.edge_eval(0, ray, rho) - fb)

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
    """The grid engine's output: a summary per test function, the recorded
    paths, the terminal rays and radials, the forward construction's edge
    noises W_T, (n, N), and the engine's work counts."""

    summaries: dict[str, ResidualSummary]
    paths: list[WalshPath]
    rays: np.ndarray
    radials: np.ndarray
    noises: np.ndarray
    steps: int
    counts: dict[str, int]

    def diagnostics(self) -> dict:
        """The engine's work counts: grid steps, path-steps, stint ends
        before the last step (cell changes), path-steps at the vertex and
        redraw coins. The stint counts are 0 without a test function."""
        return {"grid_steps": self.steps, "path_steps": self.steps * self.rays.size,
                **self.counts}


def _values(g: StarGraph, fs: dict[str, DomainFunction], rays, rad) -> dict[str, np.ndarray]:
    """Each test function's values on a batch, with one shared partition."""
    part = g.partition(rays, rad)
    return {nm: f.value_arrays(rays, rad, part=part) for nm, f in fs.items()}


def _end_stints(tab, stint, rows, cols, steps) -> None:
    """Add the stint sums and step counts of rows into the tables' cells
    (cols, rows), one table at a time, and start new stints."""
    cells = cols * stint.shape[1] + rows
    for j in range(4):
        tab[j].reshape(-1)[cells] += stint[j, rows]
    tab[4].reshape(-1)[cells] += steps
    stint[:, rows] = 0.0


def _residual_sums(f: DomainFunction, tab: np.ndarray, tmp: np.ndarray):
    """Per path, the sums of f' xi, f'' and f'^2 from the cell tables,
    vertex (row N) first, then ray by ray: on a ray h' xi = 2a r xi + b xi,
    h'' = 2a and h'^2 = 4a^2 r^2 + 4ab r + b^2."""
    s_xi, s_rxi, s_r, s_r2, cnt = tab
    v, d1 = len(f.coeffs), f.vertex_derivative(ORIGIN_VERTEX)
    s_dB = d1 * s_xi[v]
    s_fpp = f.vertex_second_derivative(ORIGIN_VERTEX) * cnt[v]
    s_fp2 = (d1 * d1) * cnt[v]
    for e, (a, b, _) in enumerate(f.coeffs):
        a2 = 2.0 * a
        for acc, coef, col in ((s_dB, a2, s_rxi), (s_dB, b, s_xi), (s_fpp, a2, cnt),
                               (s_fp2, a2 * a2, s_r2), (s_fp2, 2.0 * a2 * b, s_r),
                               (s_fp2, b * b, cnt)):
            acc += np.multiply(col[e], coef, out=tmp)
    return s_dB, s_fpp, s_fp2


def sample_residual_summaries(g: StarGraph, fs: dict[str, DomainFunction],
                              T: float, dt: float, n: int, rng: RngStream,
                              x0: GraphPoint | None = None, record: int = 0) -> ResidualSamples:
    """The coupled-Walsh grid engine: batch terminal residuals for several
    test functions on shared paths, the paths of rows 0..record-1, the
    terminal states and the edge noises W_T of the forward construction.

    The residual of f along a path is
    M_K = f(X_K) - f(X_0) - sum_k f'(X_k) dB_k - (dt/2) sum_k f''(X_k) - f'(0) L_K,
    a discrete martingale up to the coupled-mode discretization bias.
    Each step draws the n driver increments xi, credits xi to the ray each
    path is on, and takes the coupled step, which draws a redraw coin only
    for the paths that fold.

    A stint is the run of steps a path spends in one cell: its ray, or the
    vertex while its radial is exactly 0. A fold, a move onto or off the
    vertex, and the last step end it. A path sums xi, r xi, r and r^2 (r
    the radial before the step) over its stint, and the stint's end adds
    them and its step count into (cell, path) tables. A test function is a
    quadratic on each ray, so its sums of f' xi, f'' and f'^2 are fixed
    combinations of these (``_residual_sums``), with f'(0) and f''(0) in
    the vertex cell. Without a test function none of this runs.

    The off-ray increments dV^i of W are never drawn one by one: given the
    path, the C_i steps a path spends on ray i carry xi and its other
    K - C_i steps carry iid N(0, dt) increments independent of the path,
    so their sum is drawn after the last step as sqrt(dt (K - C_i)) Z_i
    from one (n, N) normal block, with the law of the forward construction.
    """
    if x0 is None:
        x0 = g.origin()
    if not 0 <= record <= n:
        raise ValueError(f"need 0 <= record <= n, got {record}")
    K = grid_steps(T, dt)
    gen = rng.generator()
    sq = math.sqrt(dt)
    N = g.n_rays
    rays, rad = _start_state(g, x0, n, gen)
    L = np.zeros(n)
    # flat (path, ray) cells: each path adds to one cell per step; its steps
    # on a ray are counted per stint
    on_sum, on_steps = np.zeros((n, N)), np.zeros((n, N))
    row_cell = np.arange(n) * N
    since = np.zeros(n, dtype=np.int64)   # the step that began each path's stint
    if fs:   # stint sums, and (N + 1, n) cell tables with the vertex in row N
        stint, tab, tmp = np.zeros((4, n)), np.zeros((5, N + 1, n)), np.empty(n)
        at_v = np.flatnonzero(rad == 0.0)
    f0 = _values(g, fs, rays, rad)
    rec = [(rays[:record].copy(), rad[:record].copy(), np.zeros(record), np.zeros(record))]
    counts = dict.fromkeys(("cell_changes", "vertex_steps", "redraw_coins"), 0)
    for k in range(K):
        xi = gen.standard_normal(n)
        xi *= sq
        cell = row_cell + rays
        np.add.at(on_sum.reshape(-1), cell, xi)
        if fs:
            stint[0] += xi
            stint[1] += np.multiply(rad, xi, out=tmp)
            stint[2] += rad
            stint[3] += np.multiply(rad, rad, out=tmp)
        new, ends = _coupled_step(g, ORIGIN_VERTEX, rays, rad + xi, gen)
        L[ends] += 2.0 * new[ends]
        counts["redraw_coins"] += ends.size
        if fs:
            counts["vertex_steps"] += at_v.size
            if at_v.size or (n and new.min() == 0.0):   # a move onto or off the vertex
                on_v = np.flatnonzero(new == 0.0)
                ends, at_v = np.union1d(ends, np.setxor1d(at_v, on_v)), on_v
            counts["cell_changes"] += ends.size
            cols = np.where(rad[ends] == 0.0, N, cell[ends] - row_cell[ends])
            _end_stints(tab, stint, ends, cols, k + 1 - since[ends])
        on_steps.reshape(-1)[cell[ends]] += k + 1 - since[ends]
        since[ends] = k + 1
        rad = new
        if record:
            rec.append([a[:record].copy() for a in (rays, rad, L, xi)])
    on_steps.reshape(-1)[row_cell + rays] += K - since
    # W_T = on_sum + sqrt(dt (K - on_steps)) Z and M are built in place and the
    # tables dropped once summed, or the last phase would set the peak memory
    noises = np.subtract(K, on_steps, out=on_steps)
    noises *= dt
    np.sqrt(noises, out=noises)
    noises *= gen.standard_normal((n, N))
    noises += on_sum
    if fs:
        _end_stints(tab, stint, np.arange(n), np.where(rad == 0.0, N, rays), K - since)
        sums = {nm: _residual_sums(f, tab, tmp) for nm, f in fs.items()}
        del tab, stint, on_sum
    out = {}
    for nm, mart in _values(g, fs, rays, rad).items():   # f(X_T), then M
        s_dB, s_fpp, s_fp2 = sums.pop(nm)
        mart -= f0.pop(nm)
        mart -= 0.5 * dt * s_fpp
        mart -= fs[nm].vertex_derivative(ORIGIN_VERTEX) * L
        out[nm] = ResidualSummary(name=nm, residuals=np.subtract(mart, s_dB, out=s_dB),
                                  martingale_part=mart, bracket=np.multiply(s_fp2, dt, out=s_fp2))
    rays_k, rad_k, l_k, xi_k = (np.stack(c) for c in zip(*rec))
    paths = [WalshPath(g, dt, rays_k[:, j], rad_k[:, j], l_k[:, j], xi_k[1:, j])
             for j in range(record)]
    return ResidualSamples(out, paths, rays, rad, noises, K, counts)
