"""Benchmark of the starflow CLI experiments.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload leg-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload (see ``workloads.py``) is one CLI experiment at a fixed
config. Every invocation runs in a fresh single-threaded Python process,
one at a time. A run first measures set-up several times, then repeats the
invocation until ``--seconds`` have passed (at least twice) and reports
medians.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (from calling
``starflow.cli.main`` to the report being written), ``setup_s`` (interpreter
start until ``starflow.cli`` is imported and the config is built) and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced invocations
and reports the per-layer metrics of ``tracer.py``.

Correctness: every invocation must exit with 0 or 1 and write a report that
echoes the workload's experiment and seed and whose ``passed`` agrees with
its checks; the numeric part of every report of a run (estimates, KS
results, bound checks and checks) must hash to the same digest. An
invocation that breaks any of this counts as failed and the run exits 1.
Checks that fail are listed, and at the baseline seed compared with the
checks known to fail there. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a JSON file with
provenance, every invocation and the spans of one traced invocation goes
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5      # set-up-only processes per run, after one warm-up
MIN_INVOCATIONS = 2    # per run, so that digests can be compared
WORKER_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Kernel spans with their RNG reference width: wide batches against the
# 20000-wide bare-RNG figure, narrow ones (pair engine, scalar walker)
# against the 16-wide one.
KERNELS = {
    "quadrant.sample_legs": 20000,
    "isde.sample_coalescence_times": 16,
    "isde.sample_isde_terminals": 20000,
    "walsh.sample_residual_summaries": 20000,
    "metric.metric_isde_forward": 16,
}

PER_LAYER = {
    "quadrant.sample_legs.self_s": "s",
    "quadrant.sample_legs.rng_words": "count",
    "quadrant.sample_legs.ns_per_word": "ns",
    "quadrant.sample_legs.rng_share": "computed_frac",
    "quadrant.ys_cdf.self_s": "s",
    "quadrant.ys_cdf.points": "count",
    "quadrant.ys_cdf.ns_per_point": "ns",
    "isde.sample_coalescence_times.self_s": "s",
    "isde.sample_coalescence_times.rng_words": "count",
    "isde.sample_coalescence_times.ns_per_word": "ns",
    "isde.sample_coalescence_times.rng_share": "computed_frac",
    "isde.sample_coalescence_times.coalesced_frac": "frac",
    "isde.sample_isde_terminals.self_s": "s",
    "isde.sample_isde_terminals.rng_words": "count",
    "isde.sample_isde_terminals.ns_per_word": "ns",
    "isde.sample_isde_terminals.rng_share": "computed_frac",
    "walsh.sample_residual_summaries.self_s": "s",
    "walsh.sample_residual_summaries.rng_words": "count",
    "walsh.sample_residual_summaries.rng_share": "computed_frac",
    "graphs.eval_arrays.calls": "count",
    "graphs.eval_arrays.self_s": "s",
    "graphs.eval_arrays.points": "count",
    "graphs.eval_arrays.ns_per_point": "ns",
    "metric.metric_isde_forward.self_s": "s",
    "metric.metric_isde_forward.steps": "count",
    "metric.metric_isde_forward.ns_per_step": "ns",
    "metric.metric_isde_forward.extra_step_frac": "frac",
    "metric.metric_isde_forward.rng_words": "count",
    "metric.metric_isde_forward.rng_share": "computed_frac",
    "halfline.generators": "count",
    "halfline.generator_s": "s",
    "halfline.rng_words": "count",
    "halfline.philox_ns_per_word_w20000": "ns",
    "halfline.philox_ns_per_word_w16": "ns",
    "stats.ks.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "check_fail_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(inv: dict) -> dict[str, float]:
    """Per-layer figures of one traced invocation (without the two that
    need the whole run: trace.overhead_frac and check_fail_frac)."""
    tot = inv["totals"]

    def get(span: str, key: str):
        return tot.get(span, {}).get(key, 0)

    ref = {int(w): ns for w, ns in inv["philox_ns_per_word"].items()}
    m = {}
    for span, width in KERNELS.items():
        self_s, words = get(span, "self_s"), get(span, "rng_words")
        m[f"{span}.self_s"] = self_s
        m[f"{span}.rng_words"] = words
        m[f"{span}.ns_per_word"] = _ratio(self_s * 1e9, words)
        # computed, not measured: words times the bare cost of a word
        m[f"{span}.rng_share"] = _ratio(words * ref[width], self_s * 1e9)
    m["quadrant.ys_cdf.self_s"] = get("quadrant.ys_cdf", "self_s")
    m["quadrant.ys_cdf.points"] = get("quadrant.ys_cdf", "points")
    m["quadrant.ys_cdf.ns_per_point"] = _ratio(
        m["quadrant.ys_cdf.self_s"] * 1e9, m["quadrant.ys_cdf.points"])
    m["isde.sample_coalescence_times.coalesced_frac"] = _ratio(
        get("isde.sample_coalescence_times", "coalesced"),
        get("isde.sample_coalescence_times", "paths"))
    for key in ("calls", "self_s", "points"):
        m[f"graphs.eval_arrays.{key}"] = get("graphs.eval_arrays", key)
    m["graphs.eval_arrays.ns_per_point"] = _ratio(
        m["graphs.eval_arrays.self_s"] * 1e9, m["graphs.eval_arrays.points"])
    steps = get("metric.metric_isde_forward", "steps")
    m["metric.metric_isde_forward.steps"] = steps
    m["metric.metric_isde_forward.ns_per_step"] = _ratio(
        m["metric.metric_isde_forward.self_s"] * 1e9, steps)
    m["metric.metric_isde_forward.extra_step_frac"] = _ratio(
        steps - get("metric.metric_isde_forward", "nominal_steps"), steps)
    m["halfline.generators"] = get("halfline.generator", "calls")
    m["halfline.generator_s"] = get("halfline.generator", "self_s")
    m["halfline.rng_words"] = inv["rng_words_total"]
    m["halfline.philox_ns_per_word_w20000"] = ref[20000]
    m["halfline.philox_ns_per_word_w16"] = ref[16]
    m["stats.ks.self_s"] = get("stats.ks_against_cdf", "self_s") + get("stats.ks_two_sample", "self_s")
    m["cli.self_s"] = get("cli.main", "self_s")
    return {k: m[k] for k in PER_LAYER if k in m}


EXACT_COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit == "count")


class Run:
    """One benchmark run of a workload at a seed."""

    def __init__(self, name: str, seed: int, tmp: Path, tiny: bool = False):
        self.wl = workloads.WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.size = "tiny" if tiny else "full"
        self.invocations: list[dict] = []
        self.setup_s: list[float] = []
        self.problems: list[str] = []

    def spawn(self, mode: str) -> dict:
        env = dict(os.environ, TMPDIR=str(self.tmp), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env.pop("STARFLOW_SEED", None)
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), self.wl.name,
               str(self.seed), str(self.tmp), mode, self.size]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        if proc.returncode != 0 or not proc.stdout.strip():
            return {"mode": mode, "error": proc.stderr[-4000:] or f"exit {proc.returncode}"}
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["mode"] = mode
        res["setup_s"] = res["ready"] - t0
        return res

    def setup_only(self) -> None:
        res = self.spawn("setup")
        if "error" in res:
            raise RuntimeError(f"set-up failed:\n{res['error']}")
        self.setup_s.append(res["setup_s"])

    def invoke(self, mode: str) -> None:
        res = self.spawn(mode)
        self.invocations.append(res)
        if "setup_s" in res and mode == "run":
            self.setup_s.append(res["setup_s"])

    def validate(self) -> int:
        """Mark invocations that failed; return how many did."""
        digests = [inv["digest"] for inv in self.invocations if "digest" in inv]
        common = max(set(digests), key=digests.count) if digests else None
        failed = 0
        for inv in self.invocations:
            why = None
            if "error" in inv:
                why = inv["error"].strip().splitlines()[-1] if inv["error"].strip() else "error"
            elif inv["rc"] not in (0, 1):
                why = f"exit code {inv['rc']}"
            elif not inv["starflow_file"].startswith(str(ROOT / "src")):
                why = f"starflow imported from {inv['starflow_file']}"
            elif inv["echo"] != {"experiment": self.wl.argv[0], "seed": self.seed}:
                why = f"report echo {inv['echo']}"
            elif inv["passed"] != all(inv["checks"].values()) or \
                    (inv["rc"] == 0) != inv["passed"]:
                why = "exit code and checks disagree"
            elif inv["digest"] != common:
                why = "numeric digest differs from the rest of the run"
            if why is not None:
                failed += 1
                inv["failure"] = why
                self.problems.append(f"{inv['mode']} invocation: {why}")
        return failed

    def check_counts(self) -> tuple[int, int, list[str]]:
        """(checks evaluated, checks failed, names failing) over the run;
        an invocation without a report counts all its checks as failed."""
        n_checks = max((len(inv["checks"]) for inv in self.invocations if "checks" in inv),
                       default=1)
        evaluated = failed = 0
        red: set[str] = set()
        for inv in self.invocations:
            if "checks" in inv:
                evaluated += len(inv["checks"])
                bad = [k for k, ok in inv["checks"].items() if not ok]
                failed += len(bad)
                red.update(bad)
            else:
                evaluated += n_checks
                failed += n_checks
        return evaluated, failed, sorted(red)


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path,
            tiny: bool = False) -> dict:
    run = Run(name, seed, tmp, tiny)
    start = time.perf_counter()
    run.setup_only()                  # warm-up: bytecode compiled, files cached
    run.setup_s.clear()
    if not trace:
        for _ in range(SETUP_SAMPLES):
            run.setup_only()
    modes = ["trace", "run"] if trace else ["run"]
    k = 0
    while len(run.invocations) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        run.invoke(modes[k % len(modes)])
        k += 1
    failed = run.validate()
    evaluated, checks_failed, red = run.check_counts()

    ok = [inv for inv in run.invocations if "failure" not in inv]
    metrics: dict[str, float] = {}
    by_mode = {m: [inv for inv in ok if inv["mode"] == m] for m in modes}
    if all(by_mode.values()):
        if trace:
            per_inv = [layer_metrics(inv) for inv in by_mode["trace"]]
            for key in per_inv[0]:
                if key not in EXACT_COUNTS:
                    metrics[key] = statistics.median(p[key] for p in per_inv)
                elif len({p[key] for p in per_inv}) == 1:
                    metrics[key] = per_inv[0][key]
                else:
                    failed += 1
                    run.problems.append(f"count {key} differs between traced invocations")
            metrics["trace.overhead_frac"] = (
                statistics.median(inv["wall_s"] for inv in by_mode["trace"])
                / statistics.median(inv["wall_s"] for inv in by_mode["run"]) - 1.0)
            metrics["check_fail_frac"] = checks_failed / evaluated
        else:
            metrics["wall_s"] = statistics.median(inv["wall_s"] for inv in ok)
            metrics["setup_s"] = statistics.median(run.setup_s)
            metrics["peak_rss_mb"] = statistics.median(inv["peak_rss_mb"] for inv in ok)
    else:
        failed = max(failed, 1)
        run.problems.append("no successful invocation to measure")

    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "correct": failed == 0,
        "attempted": len(run.invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": {"evaluated": evaluated, "failed": checks_failed, "failing": red,
                   "check_fail_frac": checks_failed / evaluated},
        "problems": run.problems,
        "setup_samples_s": run.setup_s,
        "invocations": [{k: v for k, v in inv.items() if k not in ("spans", "totals")}
                        for inv in run.invocations],
        "spans": next((inv["spans"] for inv in ok if "spans" in inv), None),
    }


def provenance(seed: int) -> dict:
    """Versions, revision and machine of the run; src/ line counts gate nothing."""
    import platform
    from importlib import metadata

    version = None
    for line in (ROOT / "src" / "starflow" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            revision = None
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((ROOT / "src" / "starflow").glob("*.py"))}
    return {
        "starflow": version, "git_revision": revision,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(), "seed": seed,
        "threads": workloads.THREADS, "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def report(res: dict) -> None:
    """Human-readable lines for one run."""
    name = res["workload"]
    for key, m in res["metrics"].items():
        print(f"{name:14s} {key:48s} {m['value']:.6g} {m['unit']}")
    chk = res["checks"]
    if "check_fail_frac" not in res["metrics"]:
        print(f"{name:14s} {'check_fail_frac':48s} {chk['check_fail_frac']:.6g} frac")
    print(f"{name:14s} checks failed: {chk['failed']} of {chk['evaluated']} evaluated")
    print(f"{name:14s} failing checks: {', '.join(chk['failing']) or 'none'}")
    if res["seed"] == workloads.BASELINE_SEED and not res["tiny"]:
        known = set(workloads.WORKLOADS[name].known_red)
        now = set(chk["failing"])
        print(f"{name:14s} vs baseline seed {workloads.BASELINE_SEED}: newly red "
              f"{sorted(now - known) or 'none'}, newly green {sorted(known - now) or 'none'}")
    for p in res["problems"]:
        print(f"{name:14s} FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "starflow" / "cli.py").is_file():
        print(f"error: no starflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    results = []
    for name in names:
        tmp = OUT_DIR / f"tmp-{name}-{os.getpid()}"
        tmp.mkdir()
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), tmp, args.tiny)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        res["provenance"] = prov
        out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
        report(res)
        print(f"{name:14s} details: {out.relative_to(ROOT)}")
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
