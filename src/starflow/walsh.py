"""Walsh Brownian motion on a star graph.

Two simulation modes:

* exact step (``walsh_step``): the radial takes the reflected step of
  ``halfline.reflected_step``, which by Skorokhod is reflected Brownian
  motion at the step's end, and a row whose bridge reached the vertex takes
  a new ray from the weights with one coin. Given a touch, the ray of the
  last excursion is independent of the radial path and drawn from the
  weights, so the step is exact in law for any step size.
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
a star; with no test function it gives the forward terminals alone. It
keeps one set of books: per path, the sums of each stint (a run of steps
on one ray, or at the vertex, under one ray label) go into cells per ray
label, the vertex stints credited to the label they were taken under. The
books give the forward construction's edge noises W_T, and, as each test
function is a quadratic on each ray, its residual sums, with no test
function evaluated along the path. It records whole paths (rows of its
batch) as ``WalshPath``. In ``isde`` the step also moves the points of
the n-point engine of both flows, and in ``metric`` the walker, at the
vertex each path is anchored to. They draw
edges from the graph's weight table, ``MetricGraph.draw_edges``. An engine
draws the driver increments; the step draws the redraw coins itself, one
uniform per folding row after the fold test, in row order, and none for
the rows that keep their edge. That is exact: whichever rows fold, their
coins are iid U(0,1) and independent of the increments and of the past,
as coins drawn for every row would be. ``walsh_step`` draws its coins by
the same rule; ``sample_exact_steps`` and the pivots of the pair engines
in ``isde`` take it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .graphs import ORIGIN_VERTEX, DomainFunction, GraphPoint, MetricGraph, StarGraph
from .halfline import RngStream, grid_steps, reflected_step

__all__ = [
    "WalshPath", "walsh_step", "sample_exact_steps", "semigroup_apply",
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


def _check_point(g: MetricGraph, x: GraphPoint) -> None:
    """ValueError unless x is a vertex of g or lies short of the end of one
    of its edges."""
    if not (x.vertex in g.vertices if x.is_vertex else
            x.edge in range(len(g.edges)) and x.coord < g.edge_length[x.edge]):
        raise ValueError(f"{x} is not a point of the graph")


def _point_state(g: StarGraph, x: GraphPoint) -> tuple[int, float]:
    _check_point(g, x)
    if x.is_vertex:
        return 0, 0.0
    return x.edge, x.coord


def walsh_step(g: MetricGraph, v, edges: np.ndarray, r: np.ndarray, y: np.ndarray,
               h: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The exact Walsh step of a batch at the vertices of positions v (a
    scalar, or one per row): r is each row's distance to its vertex and y
    is r plus its driver increment over time h. The distance takes
    ``halfline.reflected_step`` (y becomes the new distance), and the rows
    whose bridge reached the vertex (dL > 0) take an edge drawn from their
    vertex's weights with one uniform each, in row order after the bridge
    uniforms. Updates edges in place and returns (y, dL)."""
    y, dL, near = reflected_step(r, y, h, gen)
    touched = near[dL[near] > 0.0]
    edges[touched] = g.draw_edges(v[touched] if isinstance(v, np.ndarray) else v,
                                  gen.random(touched.size))
    return y, dL


def sample_exact_steps(g: StarGraph, x: GraphPoint, t: float, n: int,
                       rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """n independent exact draws of the Walsh kernel from x over time t,
    each one ``walsh_step``; returns (rays, radials)."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    ray, r = _point_state(g, x)
    gen = rng.generator()
    rays, rad = np.full(n, ray), np.full(n, r)
    rad, _ = walsh_step(g, ORIGIN_VERTEX, rays, rad, rad + math.sqrt(t) * gen.standard_normal(n),
                        np.full(n, t), gen)
    return rays, rad


def _start_state(g: MetricGraph, x0: GraphPoint, n: int,
                 gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(edges, coords) of n paths at x0. From a vertex each path draws its
    starting edge from the vertex's weights with one uniform and sits at
    that edge's end at the vertex (coord 0 on a star's rays)."""
    _check_point(g, x0)
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
    """The Walsh semigroup applied to f at (t, x), in closed form.

    From x = (i, r), P_t f(x) is the integral over rho > 0 of
    phi(rho - r) f_i(rho) + phi(rho + r) (2 fbar(rho) - f_i(rho)), phi the
    N(0, t) density, f_i the restriction of f to ray i and fbar the weighted
    mean of the restrictions. These are quadratics, so the integrals are
    moments of N(mu, t) over (0, inf), mu = r and -r: with s = sqrt(t),
    P = Phi(mu / s) and d the standard normal density at r / s, the moments
    of order 0, 1 and 2 are P, mu P + s d and (mu^2 + t) P + mu s d.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    _check_graph(g, f, "f")
    ray, r = _point_state(g, x)
    s = math.sqrt(t)
    d = math.exp(-r * r / (2.0 * t)) / math.sqrt(2.0 * math.pi)
    f_i = f.coeffs[ray]
    total = 0.0
    for mu, coef in ((r, f_i), (-r, 2.0 * g.probs_array @ f.coeffs - f_i)):
        P = ndtr(mu / s)
        total += coef @ np.array([(mu * mu + t) * P + mu * s * d, mu * P + s * d, P])
    return float(total)


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
        redraw coins."""
        return {"grid_steps": self.steps, "path_steps": self.steps * self.rays.size,
                **self.counts}


def _check_graph(g: StarGraph, f: DomainFunction, name: str) -> None:
    """ValueError unless the test function f lives on g: on g itself, or on
    a graph with g's edges and weight table."""
    h = f.graph
    if h is not g and not all(np.array_equal(getattr(h, a), getattr(g, a)) for a in (
            "edge_src", "edge_dst", "edge_length", "vertex_cum", "vertex_edges")):
        raise ValueError(f"test function {name!r} is defined on another graph")


def _end_stints(books, stint, rows, labels, at_v, steps) -> None:
    """End the stints of rows and start new ones. A stint's xi sum and step
    count go into cell (at_v, label, path) of the (2, N, n) books, its
    r xi, r and r^2 sums into cell (label, path) of the (3, N, n) book; a
    vertex stint adds exact zeros there."""
    xi_book, step_book, mom_book = books
    cells = labels * stint.shape[1] + rows
    for j in range(3):
        mom_book[j].reshape(-1)[cells] += stint[j + 1, rows]
    cells += at_v * mom_book[0].size
    xi_book.reshape(-1)[cells] += stint[0, rows]
    step_book.reshape(-1)[cells] += steps
    stint[:, rows] = 0.0


def _edge_noises(books, K: int, dt: float, gen: np.random.Generator) -> np.ndarray:
    """W_T, (n, N), from the books: per ray label, the xi summed over a
    path's stints under it and sqrt(dt (K - steps)) Z for its other steps."""
    xi_book, step_book, _ = books
    w = np.sqrt((K - step_book.sum(axis=0)) * dt)
    w *= gen.standard_normal(w.shape[::-1]).T
    w += xi_book.sum(axis=0)
    return w.T.copy()


def _residual_sums(f: DomainFunction, books, tmp: np.ndarray):
    """Per path, the sums of f' xi, f'' and f'^2 from the books: the vertex
    stints' sums over all labels with f'(0) and f''(0) first, then ray by
    ray the ray stints' sums, as on a ray h' xi = 2a r xi + b xi, h'' = 2a
    and h'^2 = 4a^2 r^2 + 4ab r + b^2."""
    (xi_on, xi_v), (steps_on, steps_v), (s_rxi, s_r, s_r2) = books
    xi_v, steps_v = xi_v.sum(axis=0), steps_v.sum(axis=0)
    d1 = f.vertex_derivative(ORIGIN_VERTEX)
    s_dB = d1 * xi_v
    s_fpp = f.vertex_second_derivative(ORIGIN_VERTEX) * steps_v
    s_fp2 = (d1 * d1) * steps_v
    for e, (a, b, _) in enumerate(f.coeffs):
        a2 = 2.0 * a
        for acc, coef, col in ((s_dB, a2, s_rxi), (s_dB, b, xi_on), (s_fpp, a2, steps_on),
                               (s_fp2, a2 * a2, s_r2), (s_fp2, 2.0 * a2 * b, s_r),
                               (s_fp2, b * b, steps_on)):
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
    Each step draws the n driver increments xi and takes the coupled step,
    which draws a redraw coin only for the paths that fold.

    One set of books gives both W_T and the residual sums. A stint is the
    run of steps a path spends in one cell: on its ray, or at the vertex
    while its radial is exactly 0. A fold, a move onto or off the vertex
    and the last step end it, so its ray label is fixed; a vertex stint
    credits the label the path was last given. Over its stint a path sums
    xi, r xi, r and r^2 (r the radial before the step), and the stint's end
    adds them and its step count into the books (``_end_stints``).

    The off-ray increments dV^i of W are never drawn one by one: given the
    path, the steps[i] steps a path spends labelled i carry xi, summed in
    xi[i], and its other K - steps[i] steps carry iid N(0, dt) increments
    independent of the path, so W^i_T = xi[i] + sqrt(dt (K - steps[i])) Z_i,
    with Z one (n, N) normal block drawn after the last step, has the law
    of the forward construction. A test function is a quadratic on each
    ray, so its sums of f' xi, f'' and f'^2 are fixed combinations of the
    ray stints' sums per label, with f'(0) and f''(0) on the vertex
    stints' (``_residual_sums``).
    """
    if x0 is None:
        x0 = g.origin()
    if not 0 <= record <= n:
        raise ValueError(f"need 0 <= record <= n, got {record}")
    for nm, f in fs.items():
        _check_graph(g, f, nm)
    K = grid_steps(T, dt)
    gen = rng.generator()
    sq = math.sqrt(dt)
    N = g.n_rays
    rays, rad = _start_state(g, x0, n, gen)
    L = np.zeros(n)
    stint, tmp = np.zeros((4, n)), np.empty(n)   # each path's current stint
    books = (np.zeros((2, N, n)), np.zeros((2, N, n), dtype=np.int64), np.zeros((3, N, n)))
    since = np.zeros(n, dtype=np.int64)   # the step that began each path's stint
    at_v = np.flatnonzero(rad == 0.0)
    f0 = {nm: f.value_arrays(rays, rad) for nm, f in fs.items()}
    rec = [(rays[:record].copy(), rad[:record].copy(), np.zeros(record), np.zeros(record))]
    counts = dict.fromkeys(("cell_changes", "vertex_steps", "redraw_coins"), 0)
    for k in range(K):
        xi = gen.standard_normal(n)
        xi *= sq
        stint[0] += xi
        stint[1] += np.multiply(rad, xi, out=tmp)
        stint[2] += rad
        stint[3] += np.multiply(rad, rad, out=tmp)
        labels = rays.copy()   # the step redraws the rays of the rows that fold
        new, ends = _coupled_step(g, ORIGIN_VERTEX, rays, rad + xi, gen)
        L[ends] += 2.0 * new[ends]
        counts["redraw_coins"] += ends.size
        counts["vertex_steps"] += at_v.size
        if at_v.size or (n and new.min() == 0.0):   # a move onto or off the vertex
            on_v = np.flatnonzero(new == 0.0)
            ends, at_v = np.union1d(ends, np.setxor1d(at_v, on_v)), on_v
        counts["cell_changes"] += ends.size
        _end_stints(books, stint, ends, labels[ends], rad[ends] == 0.0, k + 1 - since[ends])
        since[ends] = k + 1
        rad = new
        if record:
            rec.append([a[:record].copy() for a in (rays, rad, L, xi)])
    _end_stints(books, stint, np.arange(n), rays, rad == 0.0, K - since)
    noises = _edge_noises(books, K, dt, gen)
    sums = {nm: _residual_sums(f, books, tmp) for nm, f in fs.items()}
    del books, stint   # once summed, or they would set the peak memory with the outputs
    out = {}
    for nm, f in fs.items():
        s_dB, s_fpp, s_fp2 = sums.pop(nm)
        mart = f.value_arrays(rays, rad)   # f(X_T), then M
        mart -= f0.pop(nm)
        mart -= 0.5 * dt * s_fpp
        mart -= f.vertex_derivative(ORIGIN_VERTEX) * L
        out[nm] = ResidualSummary(name=nm, residuals=np.subtract(mart, s_dB, out=s_dB),
                                  martingale_part=mart, bracket=np.multiply(s_fp2, dt, out=s_fp2))
    rays_k, rad_k, l_k, xi_k = (np.stack(c) for c in zip(*rec))
    paths = [WalshPath(g, dt, rays_k[:, j], rad_k[:, j], l_k[:, j], xi_k[1:, j])
             for j in range(record)]
    return ResidualSamples(out, paths, rays, rad, noises, K, counts)
