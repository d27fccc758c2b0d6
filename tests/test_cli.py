import json
import math

import pytest

from starflow import cli, graphs

NUMERIC_KEYS = ("estimates", "ks_results", "bound_checks", "checks", "diagnostics")
WALKER_COUNTS = {"dt", "batch_steps", "path_steps", "halvings", "floor_hits", "clamps",
                 "touches_mean", "touches_max", "paths_untouched"}


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """Two vertices joined by a 0.25 edge, two rays at each."""
    edges = [
        graphs.Edge(id=0, src=0, dst=1, length=0.25),
        graphs.Edge(id=1, src=0, dst=None, length=math.inf),
        graphs.Edge(id=2, src=0, dst=None, length=math.inf),
        graphs.Edge(id=3, src=1, dst=None, length=math.inf),
        graphs.Edge(id=4, src=1, dst=None, length=math.inf),
    ]
    params = {0: {0: 0.2, 1: 0.5, 2: 0.3}, 1: {0: 0.45, 3: 0.35, 4: 0.2}}
    path = tmp_path_factory.mktemp("graph") / "tree.json"
    graphs.save_graph(graphs.MetricGraph([0, 1], edges, params), path)
    return str(path)


def run_metric(tmp_path, graph, *extra, name="report.json"):
    out = tmp_path / name
    rc = cli.main(["metric-isde", "--graph-file", graph, "--paths", "60",
                   "--dt", "0.01", "--seed", "3", "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


def numeric(report):
    return {k: report[k] for k in NUMERIC_KEYS}


class TestMetricIsde:
    def test_passes_and_reports_schema(self, tmp_path, graph_file):
        rc, report = run_metric(tmp_path, graph_file)
        assert rc == 0 and report["passed"]
        assert set(report) == {"schema", "experiment", "config", "seed", "estimates",
                               "ks_results", "bound_checks", "checks", "passed",
                               "diagnostics", "wall_time"}
        assert report["schema"] == cli.SCHEMA == 2
        assert report["experiment"] == "metric-isde" and report["seed"] == 3
        assert set(report["estimates"]) == {"terminal_distance", "terminal_distance_fine"}
        assert set(report["ks_results"]) == {"refinement_self_test"}
        assert set(report["checks"]) == {"refinement_consistent"}
        assert set(report["diagnostics"]) == {"coarse", "fine"}
        coarse, fine = report["diagnostics"]["coarse"], report["diagnostics"]["fine"]
        assert set(coarse) == set(fine) == WALKER_COUNTS
        assert coarse["dt"] == 0.01 and fine["dt"] == 0.0025
        # 6 sqrt(0.01) exceeds the 0.25 edge, so the coarse level halves steps
        assert coarse["halvings"] > 0 and coarse["batch_steps"] > 100
        assert coarse["path_steps"] > 60 * 100

    def test_same_seed_same_numbers(self, tmp_path, graph_file):
        _, a = run_metric(tmp_path, graph_file, name="a.json")
        _, b = run_metric(tmp_path, graph_file, name="b.json")
        assert numeric(a) == numeric(b)

    def test_threads_do_not_change_numbers(self, tmp_path, graph_file):
        _, a = run_metric(tmp_path, graph_file, "--threads", "1", name="a.json")
        _, b = run_metric(tmp_path, graph_file, "--threads", "2", name="b.json")
        assert numeric(a) == numeric(b)

    def test_missing_graph_file(self, tmp_path):
        rc, report = run_metric(tmp_path, str(tmp_path / "absent.json"))
        assert rc == cli.EXIT_BAD_CONFIG == 3 and report is None

    @pytest.mark.parametrize("dt", ["0", "-0.01"])
    def test_bad_dt(self, tmp_path, graph_file, dt):
        rc, report = run_metric(tmp_path, graph_file, "--dt", dt)
        assert rc == 3 and report is None
