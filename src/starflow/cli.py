"""Experiment runner: ``starflow <experiment> [options]``.

One experiment per invocation; every experiment writes a JSON report
(schema 2) with its estimates, test results, the verbatim config echo, the
seed, and a ``diagnostics`` block of engine work counts (empty for
experiments whose engines report none).

The options are the fields of ``ExperimentConfig``, declared there once.
Every experiment takes the run options ``--seed`` (default
``$STARFLOW_SEED``, else 0), ``--threads`` and ``--out``, plus exactly the
fields it reads, as listed in ``EXPERIMENTS``; ``starflow <experiment>
--help`` lists them. The engines run on one thread, and ``--threads``
accepts only 1.

Exit codes: 0 when all checks passed their declared tolerances; 1 when
some check failed (the report is still written); 2 for usage errors,
among them an option the experiment does not read; 3 for invalid
configuration values and for a file (graph, report or dump) that cannot
be read or written; no report is written then. The directories of the
report and of a dump, and a dump's grid, are checked before any engine runs.

Reproducibility: the same config and seed produce byte-identical numeric
output (each engine call runs one batch on one stream of the seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import graphs, isde, metric, quadrant, stats, walsh
from .halfline import RngStream, grid_steps

SCHEMA = 2
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 3


@dataclass
class ExperimentConfig:
    """One experiment's settings, and the declaration of the CLI.

    Each field but ``experiment`` is the option ``--<name>`` (dashes for
    underscores) or the ``flag`` in its metadata, typed by its annotation
    and defaulting to its default.
    """

    experiment: str
    seed: int = field(default_factory=lambda: int(os.environ.get("STARFLOW_SEED", "0")),
                      metadata={"help": "default $STARFLOW_SEED, else 0"})
    paths: int = 10000
    dt: float = 1e-3
    threads: int = field(default=1, metadata={"help": "only 1: the engines run on one thread"})
    out: str | None = None
    csv: str | None = field(default=None, metadata={
        "help": "path prefix for a dump of path 0 of the checked batch "
                "(walsh-kernel, two-point: one fresh path; coalesce: the "
                "survival curve; filtered-kernel: the kernel histogram)"})
    theta: float | None = field(default=None, metadata={"help": "radians", "required": True})
    theta1: float | None = field(default=None, metadata={"help": "radians", "required": True})
    theta2: float | None = field(default=None, metadata={"help": "radians", "required": True})
    x: float = 1.0
    x0_ray: int = 0
    x0_r: float = 0.0
    T: float = 1.0
    eps_stop: float = field(default=1e-3, metadata={
        "flag": "--eps", "help": "the scale at which a quadrant process or a pair stops"})
    max_legs: int = 400
    n_rays: int = 3
    probs: tuple = field(default=(), metadata={"help": "comma-separated ray weights"})
    m_replicas: int = field(default=8, metadata={"flag": "--m"})
    runs: int = 200
    legs: int = 4
    graph_file: str | None = field(default=None, metadata={"required": True})

    def __post_init__(self):
        if self.n_rays < 1:
            raise ValueError(f"need n_rays >= 1, got {self.n_rays}")
        if self.threads != 1:
            raise ValueError(f"the engines run on one thread, got threads = {self.threads}")
        self.probs = tuple(float(p) for p in self.probs) or (1.0 / self.n_rays,) * self.n_rays
        if len(self.probs) != self.n_rays:
            raise ValueError(f"{len(self.probs)} ray weights for n_rays = {self.n_rays}")

    def star(self) -> graphs.StarGraph:
        return graphs.make_star(self.n_rays, list(self.probs))


def _est(samples, scale: float = 1.0) -> dict:
    """Mean and stderr of scale * samples, estimated on samples."""
    e = stats.mc_estimate(samples)
    return {"mean": scale * e.mean, "stderr": scale * e.stderr, "n": e.n}


def _ks(res: stats.KSResult) -> dict:
    return {"statistic": res.statistic, "p_value": res.p_value, "n": res.n}


def _exp_orbm_leg(cfg: ExperimentConfig, rng: RngStream):
    theta, x = cfg.theta, cfg.x
    if theta is None:
        raise ValueError("orbm-leg needs --theta")
    legs = quadrant.sample_legs(theta, x, cfg.dt, cfg.paths, rng, record=int(bool(cfg.csv)))
    # the means of Y_S and L are estimated at unit scale, where their
    # squares stay finite for any start x
    estimates = {
        "ys_mean": _est(legs.ys / x, x),
        "ys_half_moment": _est(np.sqrt(legs.ys)),
        "log_ys_mean": _est(np.log(legs.ys)),
        "log_ys_square_mean": _est(np.log(legs.ys / x) ** 2),
        "local_time_mean": _est(legs.local_times / x, x),
    }
    ks = stats.ks_against_cdf((legs.ys / x) ** 2,
                              lambda w: quadrant.ys_cdf(theta, 1.0, np.sqrt(w)))
    ks_results = {"ys_squared_vs_beta_prime": _ks(ks)}
    bound_checks = {}
    n = legs.n
    # P(sup > a x) for a = 2, 4, 8 and P(inf < a x) for a = 1/2, 1/4, 1/8,
    # against c_b a^-b and c_b a^b at two exponents b below 1 +- 2 theta/pi
    for s, key, side, z in ((1, "sup_gt", "up", legs.sup_abs),
                            (-1, "inf_lt", "down", legs.inf_abs)):
        c = 1 + s * 2 * theta / math.pi
        for a in (2.0 ** (s * k) for k in (1, 2, 3)):
            p_emp = float(np.mean(s * z > s * a * x))
            sig = math.sqrt(max(p_emp * (1 - p_emp), 1e-12) / n)
            for b in (0.5 * c, 0.9 * c):
                bound = quadrant.tail_bound(theta, x, a * x, b, side)
                bound_checks[f"{key}_{a:g}_b_{b:.3f}"] = {
                    "value": p_emp, "bound": bound, "passed": p_emp <= bound + 3 * sig}
    # Var(Y_S) is infinite (E[Y_S^b] < inf only for b < 1 + 2 theta/pi < 2),
    # so E[Y_S] is reported but checked through Y_S^(1/2), whose variance
    # E[Y_S] is finite: a 4-stderr band
    eh = estimates["ys_half_moment"]
    el = estimates["log_ys_mean"]
    e2 = estimates["log_ys_square_mean"]
    checks = {
        "ys_half_moment": abs(eh["mean"] - quadrant.ys_moment(theta, 0.5, x))
        <= 4 * eh["stderr"],
        "log_ys_mean": abs(el["mean"] - quadrant.ys_log_mean(theta, x))
        <= max(3 * el["stderr"], 0.02 * abs(quadrant.ys_log_mean(theta, x))),
        "log_ys_square": abs(e2["mean"] - quadrant.ys_log_square_moment(theta))
        <= 0.03 * quadrant.ys_log_square_moment(theta),
        "beta_prime_ks": ks.statistic < 0.02,
        "tail_bounds": all(b["passed"] for b in bound_checks.values()),
    }
    if cfg.csv:
        legs.paths[0].to_csv(cfg.csv + "_leg.csv")
    return estimates, ks_results, bound_checks, checks, legs.diagnostics()


def _exp_quadrant(cfg: ExperimentConfig, rng: RngStream):
    if cfg.theta1 is None or cfg.theta2 is None:
        raise ValueError("quadrant needs --theta1 and --theta2")
    expected = quadrant.expected_boundary_local_time(cfg.theta1, cfg.theta2, cfg.x)
    batch = quadrant.sample_quadrant_processes(
        quadrant.FixedAngles(cfg.theta1, cfg.theta2), cfg.x, cfg.dt, cfg.eps_stop,
        cfg.max_legs, cfg.paths, rng, record=int(bool(cfg.csv)))
    # estimated at unit scale, where the squares of L stay finite for any x
    estimates = {
        "local_time_total": _est(batch.l_totals / cfg.x, cfg.x),
        "n_legs": _est(batch.n_legs.astype(float)),
        "terminated_fraction": {"mean": float(np.mean(batch.terminated)),
                                "stderr": 0.0, "n": int(batch.n)},
    }
    checks = {"terminated": float(np.mean(batch.terminated)) >= 0.995}
    if math.isfinite(expected):
        est = estimates["local_time_total"]
        checks["local_time_formula"] = abs(est["mean"] - expected) <= 0.05 * expected
        estimates["local_time_expected"] = {"mean": expected, "stderr": 0.0, "n": 0}
    if cfg.csv:
        batch.paths[0].to_csv(cfg.csv + "_quadrant.csv")
    return estimates, {}, {}, checks, batch.diagnostics()


def _exp_walsh_kernel(cfg: ExperimentConfig, rng: RngStream):
    """``f<i>_matches_semigroup`` needs |z| <= ndtri(1 - 1e-3/(2N)) for the
    mean of f_i over exact Walsh steps against the closed-form semigroup:
    two-sided, Bonferroni over the N rays, so its false-failure rate is
    1e-3 over the N checks.

    ``chapman_kolmogorov`` needs a two-sample KS p-value > 1e-3 between
    the radials after two exact half steps and after one exact full step.
    Both samples are exact in law, so its false-failure rate is 1e-3.

    ``ray_frequencies`` needs a chi^2 p-value > 1e-3 (N - 1 degrees of
    freedom, asymptotic) for the rays of each of the two samples against
    the exact ray law from x0 = (i, r) at time t, P(j) = 1{j = i}
    erf(r / sqrt(2t)) + p_j erfc(r / sqrt(2t)); its false-failure rate is
    2e-3. From the vertex (r = 0) every ray is a plain draw from the
    weights whatever the step does, so there the check has no power."""
    g = cfg.star()
    x0 = g.point(cfg.x0_ray, cfg.x0_r)
    t = cfg.T
    from scipy.special import chdtrc, ndtri
    estimates, ks_results, checks = {}, {}, {}
    z_max = ndtri(1 - 1e-3 / (2 * g.n_rays))
    for i in range(g.n_rays):
        f_i, _ = graphs.canonical_test_functions(g, i)
        rays, rads = walsh.sample_exact_steps(g, x0, t, cfg.paths, rng.child(i))
        vals = f_i.value_arrays(rays, rads)
        est = stats.mc_estimate(vals)
        ref = walsh.semigroup_apply(g, f_i, t, x0)
        estimates[f"f{i}_mc"] = _est(vals)
        estimates[f"f{i}_semigroup"] = {"mean": ref, "stderr": 0.0, "n": 0}
        checks[f"f{i}_matches_semigroup"] = abs(est.mean - ref) <= z_max * est.stderr
    # kernel consistency: two half steps vs one full step; the second half
    # step moves the rays r2 of the first in place
    r2, rad1 = walsh.sample_exact_steps(g, x0, t / 2, cfg.paths, rng.child(100))
    gen = rng.child(101).generator()
    rad2, _ = walsh.walsh_step(g, graphs.ORIGIN_VERTEX, r2, rad1,
                               rad1 + math.sqrt(t / 2) * gen.standard_normal(cfg.paths),
                               np.full(cfg.paths, t / 2), gen)
    rf, radf = walsh.sample_exact_steps(g, x0, t, cfg.paths, rng.child(102))
    ks = stats.ks_two_sample(rad2, radf)
    ks_results["chapman_kolmogorov_radial"] = _ks(ks)
    checks["chapman_kolmogorov"] = ks.p_value > 1e-3
    stay = math.erf(cfg.x0_r / math.sqrt(2.0 * t))
    want = cfg.paths * (1.0 - stay) * g.probs_array
    want[cfg.x0_ray] += cfg.paths * stay
    chi2 = [np.sum((np.bincount(r, minlength=g.n_rays) - want) ** 2 / want) for r in (r2, rf)]
    checks["ray_frequencies"] = bool(np.all(chdtrc(g.n_rays - 1, chi2) > 1e-3))
    if cfg.csv:
        coupled = walsh.sample_residual_summaries(g, {}, DUMP_HORIZONS["walsh-kernel"](cfg),
                                                  cfg.dt, 1, rng.child(987), x0=x0, record=1)
        coupled.paths[0].to_csv(cfg.csv + "_walsh.csv")
    return estimates, ks_results, {}, checks, {}


def _exp_isde(cfg: ExperimentConfig, rng: RngStream):
    """Both halves of the forward construction come from one grid engine
    call at dt: the law of the edge noises W and the Freidlin-Sheu
    residuals and isometry of the Walsh path X that drives them. A second
    call at dt/4 gives the fine level of the isometry check.

    ``W<i>_is_brownian`` needs a KS p-value > 1e-3 for W_i(T)/sqrt(T)
    against the standard normal. The assembled noises are exact in law, so
    the false-failure rate is 1e-3 per ray, 3e-3 over three rays.

    ``isometry_<f>`` needs |z| <= ndtri(1 - 1e-3/4) = 3.48 for the mean of
    the per-path isometry defects (``ResidualSummary.isometry_defects``) at
    dt and at dt/4: two-sided, Bonferroni over the two levels, so the
    false-failure rate is 1e-3 per test function, 3e-3 over the three.

    The W checks and the residual checks read the same paths, so they are
    not independent; the rates still add up, because Bonferroni's union
    bound holds for dependent events too."""
    g = cfg.star()
    f1, g1 = graphs.canonical_test_functions(g, 0)
    quad_f = graphs.per_ray_quadratic(
        g, [0.5 + 0.25 * i for i in range(g.n_rays)],
        [(-1) ** i * 0.5 for i in range(g.n_rays)])
    fs = {"f1": f1, "g1": g1, "ray_quadratic": quad_f}
    coarse = walsh.sample_residual_summaries(g, fs, cfg.T, cfg.dt, cfg.paths, rng.child(1))
    fine = walsh.sample_residual_summaries(g, fs, cfg.T, cfg.dt / 4, max(cfg.paths // 4, 1000),
                                           rng.child(2))
    from scipy.special import ndtr, ndtri
    estimates, ks_results, checks = {}, {}, {}
    sT = math.sqrt(cfg.T)
    WT = coarse.noises
    for i in range(g.n_rays):
        ks = stats.ks_against_cdf(WT[:, i] / sT, ndtr)
        ks_results[f"W{i}_normal"] = _ks(ks)
        checks[f"W{i}_is_brownian"] = ks.p_value > 1e-3
    corr_ok = True
    for i in range(g.n_rays):
        for j in range(i + 1, g.n_rays):
            c = float(np.corrcoef(WT[:, i], WT[:, j])[0, 1])
            # a correlation is scale-free: its stderr is 1 / sqrt(paths) at any T
            estimates[f"corr_W{i}_W{j}"] = {"mean": c, "stderr": 1.0 / math.sqrt(cfg.paths),
                                            "n": cfg.paths}
            corr_ok = corr_ok and abs(c) <= 3.0 / math.sqrt(cfg.paths)
    checks["noises_uncorrelated"] = corr_ok
    z_max = ndtri(1 - 1e-3 / 4)
    res_fine = fine.summaries
    for nm, summ in coarse.summaries.items():
        est = stats.mc_estimate(summ.residuals)
        estimates[f"residual_{nm}"] = _est(summ.residuals)
        checks[f"residual_{nm}_centered"] = abs(est.mean) <= 3 * est.stderr
        ratio, ratio_f = summ.variance_ratio, res_fine[nm].variance_ratio
        estimates[f"variance_ratio_{nm}"] = {"mean": ratio, "stderr": abs(ratio_f - ratio), "n": summ.residuals.size}
        levels = (_est(summ.isometry_defects), _est(res_fine[nm].isometry_defects))
        estimates[f"isometry_{nm}"], estimates[f"isometry_{nm}_fine"] = levels
        checks[f"isometry_{nm}"] = all(abs(e["mean"]) <= z_max * e["stderr"] for e in levels)
    diagnostics = {"coarse": {"dt": cfg.dt, **coarse.diagnostics()},
                   "fine": {"dt": cfg.dt / 4, **fine.diagnostics()}}
    return estimates, ks_results, {}, checks, diagnostics


def _ray_chain(transitions: np.ndarray, probs: np.ndarray) -> tuple[dict, bool]:
    """Estimates of the ray chain P_ij from a pair run's (N, N) leg counts
    by (moving ray, next moving ray), and its check against p_j / (1 - p_i).

    No leg may keep its ray, an exact count, and the whole check for N = 2.
    For N >= 3 the row of each source ray with legs takes a chi^2 test
    (N - 2 degrees of freedom, asymptotic; Anderson & Goodman 1957) at
    1e-3/N, Bonferroni over the N rays: the false-failure rate is 1e-3."""
    from scipy.special import chdtrc
    n_rays = probs.size
    estimates, ok = {}, not np.trace(transitions)
    for i, row in enumerate(transitions):
        tot, off = int(row.sum()), np.arange(n_rays) != i
        if tot == 0:
            continue
        want = probs / (1.0 - probs[i])
        for j in np.flatnonzero(off):
            estimates[f"P_{i}{j}"] = {"mean": row[j] / tot, "n": tot,
                                      "stderr": math.sqrt(want[j] * (1 - want[j]) / tot)}
        if n_rays > 2:
            p_value = chdtrc(n_rays - 2, np.sum((row[off] - tot * want[off]) ** 2
                                                / (tot * want[off])))
            estimates[f"ray_chain_p_{i}"] = {"mean": p_value, "stderr": 0.0, "n": tot}
            ok = ok and p_value > 1e-3 / n_rays
    return estimates, bool(ok)


def _exp_two_point(cfg: ExperimentConfig, rng: RngStream):
    """``first_leg_law`` needs the KS statistic of the first legs' squared
    ratios against the Beta-prime law below 0.02; ``ray_chain`` is
    ``_ray_chain`` over every leg."""
    g = cfg.star()
    first = isde.sample_first_legs(g, cfg.x0_ray, cfg.dt, cfg.paths, rng, n_legs=cfg.legs)
    ks = stats.ks_against_cdf(first.ratios[:, 0] ** 2,
                              lambda w: quadrant.ys_cdf(first.theta0, 1.0, np.sqrt(w)))
    estimates, chain_ok = _ray_chain(first.transitions, g.probs_array)
    if cfg.csv:
        path = isde.npoint_motion(g, [g.point(cfg.x0_ray, cfg.x), g.origin()],
                                  DUMP_HORIZONS["two-point"](cfg), cfg.dt, rng.child(987))
        path.to_csv(cfg.csv + "_two_point.csv")
    return (estimates, {"first_leg_vs_beta_prime": _ks(ks)}, {},
            {"first_leg_law": ks.statistic < 0.02, "ray_chain": chain_ok}, first.diagnostics())


def _exp_coalesce(cfg: ExperimentConfig, rng: RngStream):
    """The pair from (x0_ray, x) and the origin runs until its scale drops
    below eps: its quadrant process reaches the corner up to eps.
    ``ray_chain`` is ``_ray_chain`` over every leg.

    The mean leg count N_eps is reported beside the exact scale chain's
    (``isde.sample_exact_leg_counts`` on 10 x paths) and the z between
    them, with no check: the engine takes too few legs. At weights
    0.2/0.5/0.3, eps 1e-2 and 2000 paths it read 6.50 +- 0.05 over five
    seeds at dt 1e-2 and 6.48 +- 0.10 at dt 1e-3, against 6.93 exact. The
    bias scales with 1/``isde.SAFETY``, not with dt (it halves with each
    doubling of SAFETY), and most of it lies in the steps where the pivot
    is near the origin."""
    g = cfg.star()
    x = g.point(cfg.x0_ray, cfg.x)
    res = isde.sample_coalescence_times(g, x, cfg.dt, cfg.eps_stop, cfg.paths, rng)
    exact = isde.sample_exact_leg_counts(g, x, cfg.eps_stop, 10 * cfg.paths, rng.child(100))
    legs, legs_exact = _est(res.legs), _est(exact)
    se = math.hypot(legs["stderr"], legs_exact["stderr"])
    estimates, chain_ok = _ray_chain(res.transitions, g.probs_array)
    estimates.update({
        "legs_to_eps": legs, "legs_to_eps_exact": legs_exact,
        "legs_to_eps_z": {"mean": (legs["mean"] - legs_exact["mean"]) / se if se else 0.0,
                          "stderr": 0.0, "n": cfg.paths},
        "median_time_to_eps": {"mean": np.median(res.times), "stderr": 0.0, "n": cfg.paths}})
    if cfg.csv:
        with open(cfg.csv + "_survival.csv", "w") as fh:
            fh.write("t,survival\n")
            for k, tv in enumerate(np.sort(res.times).tolist()):
                fh.write(f"{tv!r},{1.0 - (k + 1) / cfg.paths!r}\n")
    return estimates, {}, {}, {"ray_chain": chain_ok}, res.diagnostics()


def _exp_filtered_kernel(cfg: ExperimentConfig, rng: RngStream):
    g = cfg.star()
    dts = [cfg.dt, cfg.dt / 4, cfg.dt / 16]
    disp = isde.sample_kernel_dispersions(g, cfg.T, dts, cfg.runs,
                                          cfg.m_replicas, rng)
    estimates = {}
    meds = []
    for dt_i, d in disp.items():
        meds.append(float(np.median(d)))
        estimates[f"median_dispersion_dt_{dt_i:g}"] = {
            "mean": meds[-1], "stderr": 0.0, "n": cfg.runs}
    exceed = float(np.mean(disp[dts[-1]] > 0.5))
    estimates["exceed_half_fraction"] = {"mean": exceed, "stderr": 0.0, "n": cfg.runs}
    if g.n_rays == 2:
        shrinks = all(m2 <= 0.5 * m1 + 1e-12 for m1, m2 in zip(meds, meds[1:]))
        checks = {"dispersion_shrinks": shrinks}
    else:
        mid = max(meds)
        stable = (max(meds) - min(meds)) <= 0.2 * mid
        checks = {"dispersion_stable": stable, "dispersion_exceeds": exceed > 0.2}
    if cfg.csv:
        est = isde.filtered_kernel(g, g.origin(), cfg.T, cfg.dt, cfg.m_replicas,
                                   rng.child(987))
        with open(cfg.csv + "_kernel_hist.json", "w") as fh:
            json.dump({"bins": est.bin_edges.tolist(),
                       "counts": est.histogram.tolist(),
                       "dispersion": est.dispersion,
                       "seeds": list(est.seed_info[1])}, fh, indent=2, sort_keys=True)
    return estimates, {}, {}, checks, {}


def _exp_metric_isde(cfg: ExperimentConfig, rng: RngStream):
    if not cfg.graph_file:
        raise ValueError("metric-isde needs --graph-file")
    g = graphs.load_graph(cfg.graph_file)
    x0 = g.point(cfg.x0_ray, cfg.x0_r)
    n = cfg.paths

    def level(dt, stream):
        sol = metric.metric_isde_forward(g, x0, cfg.T, dt, stream, n)
        dists = graphs.distances(g, x0, sol.edges, sol.coords)
        diag = {"dt": dt, "batch_steps": sol.n_steps, "path_steps": sol.path_steps,
                "halvings": sol.halvings, "floor_hits": sol.floor_hits,
                "clamps": sol.clamps, "blocks": sol.blocks, "normals": sol.normals,
                "touches_mean": float(np.mean(sol.touches)),
                "touches_max": int(sol.touches.max()),
                "paths_untouched": int(np.sum(sol.touches == 0))}
        return dists, diag

    d1, diag1 = level(cfg.dt, rng.child(0))
    d2, diag2 = level(cfg.dt / 4, rng.child(1))
    ks = stats.ks_two_sample(d1, d2)
    estimates = {"terminal_distance": _est(d1), "terminal_distance_fine": _est(d2)}
    ks_results = {"refinement_self_test": _ks(ks)}
    checks = {"refinement_consistent": ks.p_value > 1e-3}
    return estimates, ks_results, {}, checks, {"coarse": diag1, "fine": diag2}


RUN_OPTIONS = ("seed", "threads", "out")

# each experiment with the config fields it reads, which are its options
# besides RUN_OPTIONS
EXPERIMENTS = {
    "orbm-leg": (_exp_orbm_leg, "theta x dt paths csv"),
    "quadrant": (_exp_quadrant,
                 "theta1 theta2 x dt eps_stop max_legs paths csv"),
    "walsh-kernel": (_exp_walsh_kernel, "n_rays probs x0_ray x0_r T dt paths csv"),
    "isde": (_exp_isde, "n_rays probs T dt paths"),
    "two-point": (_exp_two_point, "n_rays probs x0_ray x T dt paths legs csv"),
    "coalesce": (_exp_coalesce, "n_rays probs x0_ray x dt eps_stop paths csv"),
    "filtered-kernel": (_exp_filtered_kernel, "n_rays probs T dt m_replicas runs csv"),
    "metric-isde": (_exp_metric_isde, "graph_file x0_ray x0_r T dt paths"),
}

# the horizon of a --csv dump's fresh path on the grid dt, checked by main
DUMP_HORIZONS = {"walsh-kernel": lambda cfg: cfg.T, "two-point": lambda cfg: min(cfg.T, 4.0)}


def _sanitize(obj):
    """Plain-Python copy of a report tree (numpy scalars/arrays included)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def run(cfg: ExperimentConfig) -> dict:
    """Execute one experiment and return the report dict."""
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    rng = RngStream(cfg.seed)
    t0 = time.perf_counter()
    estimates, ks_results, bound_checks, checks, diagnostics = map(
        _sanitize, EXPERIMENTS[cfg.experiment][0](cfg, rng))
    report = {
        "schema": SCHEMA,
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "estimates": estimates,
        "ks_results": ks_results,
        "bound_checks": bound_checks,
        "checks": checks,
        "passed": all(checks.values()) if checks else True,
        "diagnostics": diagnostics,
        "wall_time": time.perf_counter() - t0,
    }
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starflow",
        description="Monte Carlo experiments for graph diffusions and "
                    "reflected Brownian motion")
    sub = ap.add_subparsers(dest="experiment", required=True)
    decl = {f.name: f for f in fields(ExperimentConfig)}
    hints = typing.get_type_hints(ExperimentConfig)
    for name, (_, reads) in EXPERIMENTS.items():
        # options left out of the command line stay out of the namespace,
        # so the field defaults apply; no abbreviations, so that an option
        # of another experiment cannot pass as a prefix (--x0-r of --x0-ray)
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for opt in (*reads.split(), *RUN_OPTIONS):
            f, hint = decl[opt], hints[opt]
            # X of "X | None"; the --probs comma list stays a string
            arg_type = (typing.get_args(hint) or (hint,))[0]
            helptext = f.metadata.get("help", "")
            if f.default not in (MISSING, None, ()):
                helptext += f" (default {f.default})"
            p.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                           dest=f.name, required=f.metadata.get("required", False),
                           help=helptext.strip(), type=str if arg_type is tuple else arg_type)
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The given options over the field defaults; a --probs list also sets
    n_rays unless --n-rays is given too."""
    opts = dict(vars(args))
    if "probs" in opts:
        opts["probs"] = opts["probs"].split(",")
        opts.setdefault("n_rays", len(opts["probs"]))
    return ExperimentConfig(**opts)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
        out = cfg.out or f"{cfg.experiment}_report.json"
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
            raise OSError(f"the report {out!r} is not a file in an existing directory")
        if cfg.csv and not os.path.isdir(os.path.dirname(cfg.csv) or "."):
            raise OSError(f"the dump prefix {cfg.csv!r} is not in an existing directory")
        if cfg.csv and cfg.experiment in DUMP_HORIZONS:
            grid_steps(DUMP_HORIZONS[cfg.experiment](cfg), cfg.dt)
        report = run(cfg)
        write_report(report, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for name, ok in report["checks"].items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"report: {out}")
    return 0 if report["passed"] else EXIT_CHECKS_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
