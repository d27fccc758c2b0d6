"""One workload invocation in a fresh interpreter.

Usage: python3 perfbench/worker.py <root> <workload> <seed> <tmpdir> <mode> <size>

``mode`` is ``setup`` (import and build the config, then stop), ``run``
(also call ``starflow.cli.main`` untraced) or ``trace`` (the same call with
span wrappers installed, followed by the bare-RNG reference). The worker
prints one JSON object on stdout. ``ready`` is the ``time.perf_counter``
reading (CLOCK_MONOTONIC, shared by all processes) once ``starflow.cli`` is
imported and the config is built, so the parent gets set-up time as
``ready`` minus its own reading just before it started the process.
``size`` is ``full``, or ``tiny`` for the smoke test's small configs.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

NUMERIC_KEYS = ("estimates", "ks_results", "bound_checks", "checks")


def digest(report: dict) -> str:
    """sha256 of the report's numeric part (``wall_time`` excluded)."""
    blob = json.dumps([report[k] for k in NUMERIC_KEYS], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(root: str, name: str, seed: int, tmp: str, mode: str, tiny: bool) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from starflow import cli

    import workloads

    wl = workloads.WORKLOADS[name]
    report_path = os.path.join(tmp, f"report-{os.getpid()}.json")
    graph_file = None
    if wl.needs_graph:
        from starflow import graphs

        graph_file = os.path.join(tmp, f"graph-{os.getpid()}.json")
        graphs.save_graph(workloads.metric_tree(), graph_file)
    argv = wl.cli_argv(seed, report_path, graph_file, tiny)
    cli.config_from_args(cli.build_parser().parse_args(argv))
    out = {"ready": time.perf_counter(), "starflow_file": cli.__file__}
    if mode == "setup":
        return out

    rec = None
    if mode == "trace":
        import tracer

        rec = tracer.SpanRecorder()
        tracer.install(rec)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:
        rc = None
        out["error"] = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - t0
    out["rc"] = rc
    if rc in (0, 1):
        with open(report_path) as fh:
            report = json.load(fh)
        out["digest"] = digest(report)
        out["checks"] = report["checks"]
        out["passed"] = report["passed"]
        out["echo"] = {"experiment": report["experiment"], "seed": report["seed"]}
    if rec is not None:
        out["rng_words_total"] = rec.credit_words()
        out["totals"] = rec.totals()
        out["spans"] = rec.rows()
        out["philox_ns_per_word"] = {str(w): tracer.philox_ns_per_word(w) for w in (20000, 16)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    root_arg, name_arg, seed_arg, tmp_arg, mode_arg, size_arg = sys.argv[1:7]
    print(json.dumps(main(root_arg, name_arg, int(seed_arg), tmp_arg, mode_arg,
                          size_arg == "tiny")))
