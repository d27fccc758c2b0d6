import dataclasses
import json
import math

import pytest

from starflow import cli, graphs
from starflow.halfline import RngStream

NUMERIC_KEYS = ("estimates", "ks_results", "bound_checks", "checks", "diagnostics")
REPORT_KEYS = {"schema", "experiment", "config", "seed", "estimates", "ks_results",
               "bound_checks", "checks", "passed", "diagnostics", "wall_time"}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
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
        assert set(report) == REPORT_KEYS
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


# small sizes that run each experiment in well under a second
TINY = {
    "orbm-leg": ["--theta", repr(math.pi / 6), "--paths", "300"],
    "quadrant": ["--theta1", "1.0", "--theta2", "1.0", "--paths", "50", "--dt", "0.01",
                 "--eps", "0.01"],
    "walsh-kernel": ["--paths", "300"],
    "isde": ["--paths", "200", "--dt", "0.05"],
    "two-point": ["--paths", "100", "--dt", "0.01", "--legs", "2"],
    "coalesce": ["--paths", "2", "--dt", "0.01"],
    "filtered-kernel": ["--runs", "3", "--dt", "0.05", "--m", "4"],
    "metric-isde": ["--paths", "4", "--dt", "0.01"],
}
# further tiny argument sets that reach the fields the first one leaves unread
VARIANTS = {
    "quadrant": [["--angle-lo", "0.5", "--angle-hi", "1.0", "--paths", "20", "--dt", "0.01",
                  "--eps", "0.01"]],
    "metric-isde": [["--paths", "4", "--dt", "0.01", "--x0-ray", "1", "--x0-r", "0.1"]],
}


def tiny_argv(name, graph_file, args=None):
    argv = [name, *(TINY[name] if args is None else args)]
    return argv + ["--graph-file", graph_file] if name == "metric-isde" else argv


def run_main(argv, out):
    rc = cli.main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text()) if out.exists() else None


def declared(name):
    return set(cli.EXPERIMENTS[name][1].split())


def reads_of(name, cfg):
    """Config fields that the experiment body reads when run on cfg."""
    reads = set()

    class Recording(cli.ExperimentConfig):
        def __getattribute__(self, attr):
            reads.add(attr)
            return object.__getattribute__(self, attr)

    rec = Recording(**dataclasses.asdict(cfg))
    reads.clear()
    cli.EXPERIMENTS[name][0](rec, RngStream(cfg.seed))
    return reads & CONFIG_FIELDS


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
class TestEveryExperiment:
    def test_report_and_replay(self, tmp_path, graph_file, name):
        rc, a = run_main(tiny_argv(name, graph_file), tmp_path / "a.json")
        assert rc in (0, cli.EXIT_CHECKS_FAILED)
        assert (rc == 0) == a["passed"] == all(a["checks"].values())
        assert set(a) == REPORT_KEYS and a["schema"] == 2 and a["experiment"] == name
        assert set(a["config"]) == CONFIG_FIELDS and "fmt" not in a["config"]
        _, b = run_main(tiny_argv(name, graph_file), tmp_path / "b.json")
        assert numeric(a) == numeric(b)

    def test_declared_fields_are_the_fields_read(self, tmp_path, graph_file, name):
        """Each run reads only declared fields, and the runs together read
        every one of them; the csv branches are taken where there is one."""
        csv = ["--csv", str(tmp_path / "dump")] if "csv" in declared(name) else []
        seen = set()
        for args in [TINY[name], *VARIANTS.get(name, [])]:
            args = cli.build_parser().parse_args(tiny_argv(name, graph_file, args) + csv)
            reads = reads_of(name, cli.config_from_args(args))
            assert reads <= declared(name) | set(cli.RUN_OPTIONS)
            seen |= reads
        assert seen - set(cli.RUN_OPTIONS) == declared(name)

    def test_help_renders_with_the_run_options(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "--threads" in text and "--out" in text


@pytest.mark.parametrize("argv", [
    ["isde", "--x0-r", "0.5"],
    ["orbm-leg", "--theta", "0.5", "--tmax", "1"],
    ["orbm-leg"],
    ["filtered-kernel", "--x0-r", "0.5"],
    # a prefix of --x0-ray, rejected because abbreviations are off
    ["two-point", "--x0-r", "1"],
])
def test_unread_or_missing_option_is_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["two-point", "--legs", "0"],
    ["filtered-kernel", "--runs", "0"],
    ["quadrant", "--theta1", "1.0", "--theta2", "1.0", "--max-legs", "0"],
    ["coalesce", "--paths", "0"],
    ["coalesce", "--paths", "2", "--threads", "-2"],
    ["isde", "--probs", "0.5,0.5", "--n-rays", "3"],
    ["isde", "--n-rays", "0"],
    ["isde", "--threads", "-2", "--paths", "10", "--dt", "0.1"],
    ["metric-isde", "--x0-ray", "9", "--x0-r", "0.5"],   # the tree has 5 edges
    ["metric-isde", "--x0-r", "-1"],
    ["metric-isde", "--graph-file", "{no_edges}"],
    ["metric-isde", "--graph-file", "{no_vertices}"],
    ["metric-isde", "--graph-file", "{a_list}"],
    # NaN or negative steps, starts and budgets once kept the adaptive engines
    # stepping forever
    ["orbm-leg", "--theta", "0.5", "--x", "nan"],
    ["orbm-leg", "--theta", "0.5", "--dt", "nan"],
    ["quadrant", "--theta1", "1.0", "--theta2", "1.0", "--dt", "nan"],
    ["two-point", "--dt", "nan"],
    ["two-point", "--dt", "-0.01", "--legs", "1"],
    ["coalesce", "--dt", "nan"],
    ["coalesce", "--tmax", "nan", "--dt", "0.01"],
    ["walsh-kernel", "--T", "nan", "--paths", "10"],
    ["walsh-kernel", "--T", "inf", "--paths", "10"],
])
def test_bad_value_exits_3(tmp_path, graph_file, argv):
    # metric-isde runs on the tree, on a copy of it without its edges, on a
    # graph with no vertices or on a file holding a JSON list
    no_edges = json.loads(open(graph_file).read())
    del no_edges["edges"]
    files = {"no_edges": no_edges, "no_vertices": {"vertices": [], "edges": [], "params": {}},
             "a_list": [no_edges]}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    if argv[0] == "metric-isde" and "--graph-file" not in argv:
        argv += ["--paths", "4", "--dt", "0.01", "--graph-file", graph_file]
    rc, report = run_main(argv, tmp_path / "r.json")
    assert rc == cli.EXIT_BAD_CONFIG == 3 and report is None


# each experiment with a --csv dump: its file suffix and its header
DUMPS = {
    "orbm-leg": ("_leg.csv", "t,X,Y,L"),
    "quadrant": ("_quadrant.csv", "t,X,Y,L"),
    "walsh-kernel": ("_walsh.csv", "t,edge,coord,localtime,driver"),
    "two-point": ("_two_point.csv", "t,point_1_edge,point_1_coord,point_2_edge,"
                                    "point_2_coord,pivot_index,tau_flag"),
    "coalesce": ("_survival.csv", "t,survival"),
    "filtered-kernel": ("_kernel_hist.json", None),
}


def test_every_dump_is_listed():
    assert set(DUMPS) == {name for name in cli.EXPERIMENTS if "csv" in declared(name)}


@pytest.mark.parametrize("name", list(DUMPS))
def test_dump_leaves_the_report_unchanged(tmp_path, graph_file, name):
    """--csv writes its file, with its header and a full row per line, and
    changes none of the report's numbers."""
    _, plain = run_main(tiny_argv(name, graph_file), tmp_path / "a.json")
    prefix = str(tmp_path / "dump")
    _, dumped = run_main(tiny_argv(name, graph_file) + ["--csv", prefix], tmp_path / "b.json")
    assert numeric(dumped) == numeric(plain)
    suffix, header = DUMPS[name]
    text = open(prefix + suffix).read()
    if header is None:
        assert set(json.loads(text)) == {"bins", "counts", "dispersion", "seeds"}
        return
    lines = text.splitlines()
    assert lines[0] == header and len(lines) > 1
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


def test_orbm_leg_reports_its_work(tmp_path, graph_file):
    _, report = run_main(tiny_argv("orbm-leg", graph_file), tmp_path / "r.json")
    d = report["diagnostics"]
    assert set(d) == {"batch_steps", "path_steps", "bridge_uniforms", "crossing_uniforms"}
    assert 1 <= d["batch_steps"] <= d["path_steps"]
    assert 0 < d["bridge_uniforms"] < d["path_steps"]
    assert 0 < d["crossing_uniforms"] < d["path_steps"]


@pytest.mark.parametrize("x", ["1e-300", "1e200"])
def test_orbm_leg_at_an_extreme_start_radius(tmp_path, graph_file, x):
    # legs run at unit scale: a start of 1e-300 once never moved, and one
    # of 1e200 turned the leg state to NaN
    rc, report = run_main(tiny_argv("orbm-leg", graph_file) + ["--x", x], tmp_path / "r.json")
    assert rc in (0, cli.EXIT_CHECKS_FAILED)
    assert all(math.isfinite(v) for e in report["estimates"].values() for v in e.values())


def test_probs_set_the_ray_count():
    args = cli.build_parser().parse_args(["isde", "--probs", "0.25,0.75"])
    cfg = cli.config_from_args(args)
    assert cfg.n_rays == 2 and cfg.probs == (0.25, 0.75)
    assert cli.config_from_args(cli.build_parser().parse_args(["isde"])).probs == (1 / 3,) * 3


def test_seed_defaults_to_the_environment(monkeypatch):
    monkeypatch.setenv("STARFLOW_SEED", "5")
    assert cli.config_from_args(cli.build_parser().parse_args(["isde"])).seed == 5
    assert cli.config_from_args(cli.build_parser().parse_args(["isde", "--seed", "2"])).seed == 2
