"""Experiment runner: ``starflow <experiment> [options]``.

One experiment per invocation; every experiment writes a JSON report
(schema 2) with its estimates, test results, the verbatim config echo, the
seed, and a ``diagnostics`` block of engine work counts (empty for
experiments whose engines report none).

The options are the fields of ``ExperimentConfig``, declared there once.
Every experiment takes the run options ``--seed`` (default
``$STARFLOW_SEED``, else 0), ``--threads`` and ``--out``, plus exactly the
fields it reads, as listed in ``EXPERIMENTS``; ``starflow <experiment>
--help`` lists them.

Exit codes: 0 when all checks passed their declared tolerances; 1 when
some check failed (the report is still written); 2 for usage errors,
among them an option the experiment does not read; 3 for invalid
configuration values.

Reproducibility: the same config and seed produce byte-identical numeric
output; worker counts only change wall time (fixed chunking, one stream
per chunk, ordered merge).
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
from .halfline import RngStream

SCHEMA = 2
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 3


@dataclass
class ExperimentConfig:
    """One experiment's settings, and the declaration of the CLI.

    Each field but ``experiment`` is the option ``--<name>`` (dashes for
    underscores) or the ``flag`` in its metadata, typed by its annotation
    and defaulting to its default; a bool field's flag turns it off.
    """

    experiment: str
    seed: int = field(default_factory=lambda: int(os.environ.get("STARFLOW_SEED", "0")),
                      metadata={"help": "default $STARFLOW_SEED, else 0"})
    paths: int = 10000
    dt: float = 1e-3
    threads: int = 1
    out: str | None = None
    csv: str | None = field(default=None, metadata={
        "help": "path prefix for a dump of path 0 of the checked batch "
                "(walsh-kernel, two-point: one fresh path; coalesce: the "
                "survival curve; filtered-kernel: the kernel histogram)"})
    theta: float | None = field(default=None, metadata={"help": "radians", "required": True})
    theta1: float | None = field(default=None, metadata={"help": "radians"})
    theta2: float | None = field(default=None, metadata={"help": "radians"})
    angle_lo: float | None = field(default=None, metadata={"help": "radians"})
    angle_hi: float | None = field(default=None, metadata={"help": "radians"})
    x: float = 1.0
    x0_ray: int = 0
    x0_r: float = 0.0
    T: float = 1.0
    eps_stop: float = field(default=1e-3, metadata={"flag": "--eps"})
    max_legs: int = 400
    n_rays: int = 3
    probs: tuple = field(default=(), metadata={"help": "comma-separated ray weights"})
    m_replicas: int = field(default=8, metadata={"flag": "--m"})
    runs: int = 200
    tmax: float = field(default=256.0, metadata={
        "help": "first time budget; it doubles until 99%% have coalesced"})
    legs: int = 4
    graph_file: str | None = field(default=None, metadata={"required": True})
    refine: bool = field(default=True, metadata={
        "flag": "--no-refine", "help": "end legs only at grid crossings"})

    def __post_init__(self):
        for name in ("n_rays", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"need {name} >= 1, got {getattr(self, name)}")
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
    legs = quadrant.sample_legs(theta, x, cfg.dt, cfg.paths, rng, refine=cfg.refine,
                                threads=cfg.threads, record=int(bool(cfg.csv)))
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
    b_up = [min(1.0, 0.5 * (1 + 2 * theta / math.pi)), 0.9 * (1 + 2 * theta / math.pi)]
    b_dn = [0.5 * (1 - 2 * theta / math.pi), 0.9 * (1 - 2 * theta / math.pi)]
    for a in (2.0, 4.0, 8.0):
        p_emp = float(np.mean(legs.sup_abs > a * x))
        sig = math.sqrt(max(p_emp * (1 - p_emp), 1e-12) / n)
        for b in b_up:
            bound = quadrant.tail_bound(theta, x, a * x, b, "up")
            bound_checks[f"sup_gt_{a:g}_b_{b:.3f}"] = {
                "value": p_emp, "bound": bound, "passed": p_emp <= bound + 3 * sig}
    for a in (0.5, 0.25, 0.125):
        p_emp = float(np.mean(legs.inf_abs < a * x))
        sig = math.sqrt(max(p_emp * (1 - p_emp), 1e-12) / n)
        for b in b_dn:
            bound = quadrant.tail_bound(theta, x, a * x, b, "down")
            bound_checks[f"inf_lt_{a:g}_b_{b:.3f}"] = {
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
    if cfg.theta1 is not None and cfg.theta2 is not None:
        source = quadrant.FixedAngles(cfg.theta1, cfg.theta2)
        expected = quadrant.expected_boundary_local_time(cfg.theta1, cfg.theta2, cfg.x)
    elif cfg.angle_lo is not None and cfg.angle_hi is not None:
        source = quadrant.UniformAngles(cfg.angle_lo, cfg.angle_hi)
        expected = None
    else:
        raise ValueError("quadrant needs --theta1/--theta2 or --angle-lo/--angle-hi")
    batch = quadrant.sample_quadrant_processes(
        source, cfg.x, cfg.dt, cfg.eps_stop, cfg.max_legs, cfg.paths, rng,
        threads=cfg.threads, record=int(bool(cfg.csv)))
    estimates = {
        "local_time_total": _est(batch.l_totals),
        "n_legs": _est(batch.n_legs.astype(float)),
        "terminated_fraction": {"mean": float(np.mean(batch.terminated)),
                                "stderr": 0.0, "n": int(batch.n)},
    }
    checks = {"terminated": float(np.mean(batch.terminated)) >= 0.995}
    if expected is not None and math.isfinite(expected):
        est = estimates["local_time_total"]
        checks["local_time_formula"] = abs(est["mean"] - expected) <= 0.05 * expected
        estimates["local_time_expected"] = {"mean": expected, "stderr": 0.0, "n": 0}
    if cfg.csv:
        batch.paths[0].to_csv(cfg.csv + "_quadrant.csv")
    return estimates, {}, {}, checks, {}


def _exp_walsh_kernel(cfg: ExperimentConfig, rng: RngStream):
    """``chapman_kolmogorov`` needs a two-sample KS p-value > 1e-3 between
    the radials after two exact half steps and after one exact full step.
    Both samples are exact in law, so its false-failure rate is 1e-3."""
    g = cfg.star()
    x0 = g.point(cfg.x0_ray, cfg.x0_r)
    t = cfg.T
    estimates, ks_results, checks = {}, {}, {}
    for i in range(g.n_rays):
        f_i, _ = graphs.canonical_test_functions(g, i)
        rays, rads = walsh.sample_exact_steps(g, x0, t, cfg.paths, rng.child(i))
        vals = f_i.value_arrays(rays, rads)
        est = stats.mc_estimate(vals)
        ref = walsh.semigroup_apply(g, f_i, t, x0)
        estimates[f"f{i}_mc"] = _est(vals)
        estimates[f"f{i}_semigroup"] = {"mean": ref, "stderr": 0.0, "n": 0}
        checks[f"f{i}_matches_semigroup"] = abs(est.mean - ref) <= 3 * est.stderr
    # kernel consistency: two half steps vs one full step
    r1, rad1 = walsh.sample_exact_steps(g, x0, t / 2, cfg.paths, rng.child(100))
    r2, rad2 = walsh.exact_step_arrays(g, r1, rad1, t / 2, rng.child(101).generator())
    rf, radf = walsh.sample_exact_steps(g, x0, t, cfg.paths, rng.child(102))
    ks = stats.ks_two_sample(rad2, radf)
    ks_results["chapman_kolmogorov_radial"] = _ks(ks)
    checks["chapman_kolmogorov"] = ks.p_value > 1e-3
    freq2 = np.bincount(r2, minlength=g.n_rays) / cfg.paths
    freqf = np.bincount(rf, minlength=g.n_rays) / cfg.paths
    sig = np.sqrt(np.maximum(freqf * (1 - freqf), 1e-12) / cfg.paths)
    checks["ray_frequencies"] = bool(np.all(np.abs(freq2 - freqf) <= 3 * np.sqrt(2) * sig))
    if cfg.csv:
        coupled = walsh.sample_residual_summaries(g, {}, cfg.T, cfg.dt, 1, rng.child(987),
                                                  x0=x0, record=1)
        coupled.paths[0].to_csv(cfg.csv + "_walsh.csv")
    return estimates, ks_results, {}, checks, {}


def _exp_isde(cfg: ExperimentConfig, rng: RngStream):
    """``W<i>_is_brownian`` needs a KS p-value > 1e-3 for W_i(T)/sqrt(T)
    against the standard normal. The assembled noises are exact in law, so
    the false-failure rate is 1e-3 per ray, 3e-3 over three rays.

    ``isometry_<f>`` needs |z| <= ndtri(1 - 1e-3/4) = 3.48 for the mean of
    the per-path isometry defects (``ResidualSummary.isometry_defects``) at
    dt and at dt/4: two-sided, Bonferroni over the two levels, so the
    false-failure rate is 1e-3 per test function, 3e-3 over the three."""
    g = cfg.star()
    rays, rads, WT = isde.sample_isde_terminals(g, cfg.T, cfg.dt, cfg.paths, rng.child(0))
    from scipy.special import ndtr, ndtri
    estimates, ks_results, checks = {}, {}, {}
    sT = math.sqrt(cfg.T)
    for i in range(g.n_rays):
        ks = stats.ks_against_cdf(WT[:, i] / sT, ndtr)
        ks_results[f"W{i}_normal"] = _ks(ks)
        checks[f"W{i}_is_brownian"] = ks.p_value > 1e-3
    corr_ok = True
    for i in range(g.n_rays):
        for j in range(i + 1, g.n_rays):
            c = float(np.corrcoef(WT[:, i], WT[:, j])[0, 1])
            estimates[f"corr_W{i}_W{j}"] = {"mean": c, "stderr": 1.0 / sT / math.sqrt(cfg.paths), "n": cfg.paths}
            corr_ok = corr_ok and abs(c) <= 3.0 / math.sqrt(cfg.paths)
    checks["noises_uncorrelated"] = corr_ok
    f1, g1 = graphs.canonical_test_functions(g, 0)
    quad_f = graphs.per_ray_quadratic(
        g, [0.5 + 0.25 * i for i in range(g.n_rays)],
        [(-1) ** i * 0.5 for i in range(g.n_rays)])
    fs = {"f1": f1, "g1": g1, "ray_quadratic": quad_f}
    res = walsh.sample_residual_summaries(g, fs, cfg.T, cfg.dt, cfg.paths,
                                          rng.child(1)).summaries
    res_fine = walsh.sample_residual_summaries(g, fs, cfg.T, cfg.dt / 4, max(cfg.paths // 4, 1000),
                                               rng.child(2)).summaries
    z_max = ndtri(1 - 1e-3 / 4)
    for nm, summ in res.items():
        est = stats.mc_estimate(summ.residuals)
        estimates[f"residual_{nm}"] = _est(summ.residuals)
        checks[f"residual_{nm}_centered"] = abs(est.mean) <= 3 * est.stderr
        ratio, ratio_f = summ.variance_ratio, res_fine[nm].variance_ratio
        estimates[f"variance_ratio_{nm}"] = {"mean": ratio, "stderr": abs(ratio_f - ratio), "n": summ.residuals.size}
        levels = (_est(summ.isometry_defects), _est(res_fine[nm].isometry_defects))
        estimates[f"isometry_{nm}"], estimates[f"isometry_{nm}_fine"] = levels
        checks[f"isometry_{nm}"] = all(abs(e["mean"]) <= z_max * e["stderr"] for e in levels)
    return estimates, ks_results, {}, checks, {}


def _exp_two_point(cfg: ExperimentConfig, rng: RngStream):
    g = cfg.star()
    first = isde.sample_first_legs(g, cfg.x0_ray, cfg.dt, cfg.paths, rng,
                                   n_legs=cfg.legs, threads=cfg.threads)
    theta0 = first.theta0
    ks = stats.ks_against_cdf(first.first_leg_vs ** 2,
                              lambda w: quadrant.ys_cdf(theta0, 1.0, np.sqrt(w)))
    ks_results = {"first_leg_vs_beta_prime": _ks(ks)}
    checks = {"first_leg_law": ks.statistic < 0.02}
    p = g.probs_array
    chain_ok = True
    trans = {}
    for i in range(g.n_rays):
        src = first.chains[:, :-1] == i
        tot = int(src.sum())
        if tot == 0:
            continue
        for j in range(g.n_rays):
            if j == i:
                continue
            emp = float((src & (first.chains[:, 1:] == j)).sum()) / tot
            want = p[j] / (1.0 - p[i])
            sig = math.sqrt(want * (1 - want) / tot)
            trans[f"P_{i}{j}"] = {"mean": emp, "stderr": sig, "n": tot}
            chain_ok = chain_ok and abs(emp - want) <= 3 * sig
    checks["ray_chain_frequencies"] = chain_ok
    if cfg.csv:
        path = isde.npoint_motion(g, [g.point(cfg.x0_ray, cfg.x), g.origin()],
                                  min(cfg.T, 4.0), cfg.dt, rng.child(987))
        path.to_csv(cfg.csv + "_two_point.csv")
    return trans, ks_results, {}, checks, {}


def _exp_coalesce(cfg: ExperimentConfig, rng: RngStream):
    g = cfg.star()
    res = isde.sample_coalescence_times(
        g, g.point(cfg.x0_ray, cfg.x), g.origin(), cfg.dt, cfg.paths, rng,
        cfg.tmax, threads=cfg.threads)
    frac = res.fraction_coalesced()
    estimates = {"coalesced_fraction": {"mean": frac, "stderr": 0.0, "n": cfg.paths}}
    for j, tol in enumerate(res.tols):
        estimates[f"median_tau_tol{j}"] = {
            "mean": res.median_time(j), "stderr": 0.0,
            "n": int(np.sum(~np.isnan(res.times[:, j])))}
    meds = [res.median_time(j) for j in range(len(res.tols))]
    spread = (max(meds) - min(meds)) / max(meds) if max(meds) > 0 else 0.0
    checks = {"coalesced": frac >= 0.99, "tolerance_stability": spread <= 0.10}
    if cfg.csv:
        t = np.sort(res.times[:, -1][~np.isnan(res.times[:, -1])])
        with open(cfg.csv + "_survival.csv", "w") as fh:
            fh.write("t,survival\n")
            for k, tv in enumerate(t):
                fh.write(f"{tv!r},{1.0 - (k + 1) / cfg.paths!r}\n")
    return estimates, {}, {}, checks, {}


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
        dists = np.array([graphs.distance(g, x0, sol.point(k)) for k in range(n)])
        diag = {"dt": dt, "batch_steps": sol.n_steps, "path_steps": sol.path_steps,
                "halvings": sol.halvings, "floor_hits": sol.floor_hits,
                "clamps": sol.clamps, "touches_mean": float(np.mean(sol.touches)),
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
    "orbm-leg": (_exp_orbm_leg, "theta x dt paths refine csv"),
    "quadrant": (_exp_quadrant,
                 "theta1 theta2 angle_lo angle_hi x dt eps_stop max_legs paths csv"),
    "walsh-kernel": (_exp_walsh_kernel, "n_rays probs x0_ray x0_r T dt paths csv"),
    "isde": (_exp_isde, "n_rays probs T dt paths"),
    "two-point": (_exp_two_point, "n_rays probs x0_ray x T dt paths legs csv"),
    "coalesce": (_exp_coalesce, "n_rays probs x0_ray x dt paths tmax csv"),
    "filtered-kernel": (_exp_filtered_kernel, "n_rays probs T dt m_replicas runs csv"),
    "metric-isde": (_exp_metric_isde, "graph_file x0_ray x0_r T dt paths"),
}


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
            if hint is bool:
                kind = {"action": "store_false"}
            else:  # X of "X | None"; the --probs comma list stays a string
                arg_type = (typing.get_args(hint) or (hint,))[0]
                kind = {"type": str if arg_type is tuple else arg_type}
            helptext = f.metadata.get("help", "")
            if f.default not in (MISSING, None, ()) and hint is not bool:
                helptext += f" (default {f.default})"
            p.add_argument(f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                           dest=f.name, required=f.metadata.get("required", False),
                           help=helptext.strip(), **kind)
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
        report = run(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out = cfg.out or f"{cfg.experiment}_report.json"
    write_report(report, out)
    for name, ok in report["checks"].items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"report: {out}")
    return 0 if report["passed"] else EXIT_CHECKS_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
