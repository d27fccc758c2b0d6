"""Tiny-size runs of every workload through the real entry point."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(trace):
    proc, lines = _run("--workload", "all", "--tiny", "--seconds", "0",
                       "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.WORKLOADS:
        for key, unit in units.items():
            m = result["metrics"][f"{name}.{key}"]
            assert m["unit"] == unit
            assert isinstance(m["value"], (int, float))
    if trace:
        m = result["metrics"]
        assert m["leg-wide.quadrant.ys_cdf.points"]["value"] == 300
        assert m["metric-walk.metric.metric_isde_forward.steps"]["value"] > 0
        assert m["grid-isde.graphs.eval_arrays.points"]["value"] > 0
        assert m["pair-coalesce.isde.sample_coalescence_times.rng_words"]["value"] > 0
    else:
        for name in workloads.WORKLOADS:
            assert result["metrics"][f"{name}.wall_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "leg-wide", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
