import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starflow import cli, graphs
from starflow.halfline import RngStream

NUMERIC_KEYS = ("estimates", "ks_results", "bound_checks", "checks", "diagnostics")
REPORT_KEYS = {"schema", "experiment", "config", "seed", "estimates", "ks_results",
               "bound_checks", "checks", "passed", "diagnostics", "wall_time"}
CONFIG_FIELDS = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
WALKER_COUNTS = {"dt", "batch_steps", "path_steps", "halvings", "floor_hits", "clamps",
                 "blocks", "normals", "touches_mean", "touches_max", "paths_untouched"}


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
        # blocks of plain steps: fewer loop passes than steps, about one
        # normal per path-step
        assert 1 <= coarse["blocks"] < coarse["batch_steps"]
        assert coarse["path_steps"] < coarse["normals"] < 2 * coarse["path_steps"]

    def test_same_seed_same_numbers(self, tmp_path, graph_file):
        _, a = run_metric(tmp_path, graph_file, name="a.json")
        _, b = run_metric(tmp_path, graph_file, name="b.json")
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
    "metric-isde": [["--paths", "4", "--dt", "0.01", "--x0-ray", "1", "--x0-r", "0.1"]],
}


def tiny_argv(name, graph_file, args=None):
    argv = [name, *(TINY[name] if args is None else args)]
    return argv + ["--graph-file", graph_file] if name == "metric-isde" else argv


def run_main(argv, out):
    rc = cli.main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text()) if out.is_file() else None


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

    def test_threads_accepts_only_one(self, tmp_path, capsys, graph_file, name):
        # the benchmark passes --threads 1 to every experiment
        args = cli.build_parser().parse_args(tiny_argv(name, graph_file) + ["--threads", "1"])
        assert cli.config_from_args(args).threads == 1
        rc, report = run_main(tiny_argv(name, graph_file) + ["--threads", "2"],
                              tmp_path / "r.json")
        assert rc == cli.EXIT_BAD_CONFIG and report is None
        assert "the engines run on one thread" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["isde", "--x0-r", "0.5"],
    ["orbm-leg", "--theta", "0.5", "--legs", "1"],
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
    # start rays off the 3-ray star
    ["two-point", "--x0-ray", "-1"],
    ["two-point", "--x0-ray", "3"],
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
    ["coalesce", "--eps", "nan", "--dt", "0.01"],
    ["walsh-kernel", "--T", "nan", "--paths", "10"],
    ["walsh-kernel", "--T", "inf", "--paths", "10"],
    # files that cannot be read or written: exit 3, not the failed-check 1
    ["metric-isde", "--graph-file", "{a_directory}"],
    ["walsh-kernel", "--paths", "10", "--out", "{no_dir}/r.json"],
    ["walsh-kernel", "--paths", "10", "--out", "{a_directory}"],
    # a dump in a missing directory once failed only after the whole run
    ["orbm-leg", "--theta", "0.5", "--csv", "{no_dir}/x"],
    # the pair stops at scale eps, so eps must lie below the start radius
    ["coalesce", "--eps", "1.0", "--dt", "0.01"],
    ["coalesce", "--x", "0.5", "--eps", "0.7", "--dt", "0.01"],
    # a dump's fresh path needs a whole number of steps dt up to its horizon
    ["two-point", "--paths", "200", "--dt", "0.003", "--legs", "1", "--csv", "{a_directory}/P"],
    ["walsh-kernel", "--dt", "0.3", "--csv", "{a_directory}/P"],
])
def test_bad_value_exits_3(tmp_path, graph_file, argv, monkeypatch):
    # metric-isde runs on the tree, on a copy of it without its edges, on a
    # graph with no vertices, on a file holding a JSON list or on a directory
    no_edges = json.loads(open(graph_file).read())
    del no_edges["edges"]
    files = {"no_edges": no_edges, "no_vertices": {"vertices": [], "edges": [], "params": {}},
             "a_list": [no_edges]}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    paths = {name: tmp_path / f"{name}.json" for name in files}
    paths.update(a_directory=tmp_path, no_dir=tmp_path / "absent")
    argv = [a.format(**paths) for a in argv]
    if argv[0] == "metric-isde" and "--graph-file" not in argv:
        argv += ["--paths", "4", "--dt", "0.01", "--graph-file", graph_file]
    out = tmp_path / "r.json"
    if "--out" in argv:   # the case's own report path replaces r.json
        i = argv.index("--out")
        out = Path(argv[i + 1])
        del argv[i:i + 2]
    if "--csv" in argv:   # the dump's directory and grid are checked before the experiment runs
        def unreachable(cfg, rng):
            raise AssertionError("the experiment ran before the dump's directory was checked")

        monkeypatch.setitem(cli.EXPERIMENTS, argv[0], (unreachable, cli.EXPERIMENTS[argv[0]][1]))
    rc, report = run_main(argv, out)
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
    assert set(d) == {"batch_steps", "path_steps", "jumps", "bridge_uniforms",
                      "crossing_uniforms", "tail_steps"}
    assert 1 <= d["batch_steps"] <= d["path_steps"]
    assert 0 < d["tail_steps"] < d["batch_steps"]
    assert 0 < d["jumps"] < d["path_steps"]
    assert 0 < d["bridge_uniforms"] < d["path_steps"]
    assert 0 < d["crossing_uniforms"] < d["path_steps"]


def test_quadrant_reports_its_work(tmp_path):
    # 3 legs at most: some processes stop at the cap, unterminated
    argv = ["quadrant", "--theta1", "1.0", "--theta2", "1.0", "--paths", "50", "--dt", "0.01",
            "--eps", "0.01", "--max-legs", "3"]
    _, report = run_main(argv, tmp_path / "r.json")
    d = report["diagnostics"]
    assert set(d) == {"batch_steps", "path_steps", "jumps", "tail_steps", "unterminated"}
    assert 1 <= d["batch_steps"] <= d["path_steps"]
    assert 0 <= d["tail_steps"] < d["batch_steps"]
    assert 0 < d["jumps"] < d["path_steps"]
    unterminated = round(50 * (1.0 - report["estimates"]["terminated_fraction"]["mean"]))
    assert d["unterminated"] == unterminated > 0


@pytest.mark.parametrize("name", ["two-point", "coalesce"])
def test_pair_runs_report_their_work(tmp_path, graph_file, name):
    _, report = run_main(tiny_argv(name, graph_file), tmp_path / "r.json")
    d = report["diagnostics"]
    assert set(d) == {"batch_steps", "path_steps", "tail_steps", "legs"}
    assert 1 <= d["batch_steps"] <= d["path_steps"] and 0 <= d["tail_steps"] < d["batch_steps"]
    paths = int(TINY[name][TINY[name].index("--paths") + 1])
    if name == "two-point":   # every path runs --legs legs
        assert d["legs"] == 2 * paths
    else:   # the mean legs to scale eps, beside the exact chain's
        assert d["legs"] == paths * report["estimates"]["legs_to_eps"]["mean"]
        assert report["estimates"]["legs_to_eps_exact"]["n"] == 10 * paths


@pytest.mark.parametrize("x", ["1e-300", "1e200"])
def test_orbm_leg_at_an_extreme_start_radius(tmp_path, graph_file, x):
    # legs run at unit scale: a start of 1e-300 once never moved, and one
    # of 1e200 turned the leg state to NaN
    rc, report = run_main(tiny_argv("orbm-leg", graph_file) + ["--x", x], tmp_path / "r.json")
    assert rc in (0, cli.EXIT_CHECKS_FAILED)
    assert all(math.isfinite(v) for e in report["estimates"].values() for v in e.values())


def test_isde_reports_its_work(tmp_path):
    _, report = run_main(tiny_argv("isde", None), tmp_path / "r.json")
    coarse, fine = report["diagnostics"]["coarse"], report["diagnostics"]["fine"]
    assert (coarse["dt"], fine["dt"]) == (0.05, 0.0125)
    assert (coarse["grid_steps"], fine["grid_steps"]) == (20, 80)
    assert coarse["path_steps"] == 20 * 200 and fine["path_steps"] == 80 * 1000
    for level in (coarse, fine):
        assert 0 < level["redraw_coins"] <= level["cell_changes"] < level["path_steps"]
    # every path starts at the vertex, and at these sizes none comes back
    # to a radial of exactly 0
    assert (coarse["vertex_steps"], fine["vertex_steps"]) == (200, 1000)


def test_isde_correlation_stderr_does_not_scale_with_T(tmp_path):
    # a correlation is scale-free, so its stderr is 1 / sqrt(paths) at T = 4 too
    _, report = run_main(["isde", "--paths", "200", "--dt", "0.05", "--T", "4"],
                         tmp_path / "r.json")
    for pair in ("W0_W1", "W0_W2", "W1_W2"):
        assert report["estimates"][f"corr_{pair}"]["stderr"] == 1 / math.sqrt(200)


def test_quadrant_at_a_huge_start_radius(tmp_path):
    # the processes run at unit scale; at 1e200 the corner time and the
    # squares of the local-time estimate once overflowed
    x, eps = 1e200, 1e198
    base = ["quadrant", "--theta1", "1.0", "--theta2", "1.0", "--paths", "40", "--dt", "0.01"]
    rc, at = run_main(base + ["--x", repr(x), "--eps", repr(eps)], tmp_path / "a.json")
    _, one = run_main(base + ["--eps", repr(eps / x)], tmp_path / "b.json")
    assert rc in (0, cli.EXIT_CHECKS_FAILED)
    est_at, est_one = at["estimates"], one["estimates"]
    for k in ("mean", "stderr"):
        assert est_at["local_time_total"][k] / x == \
            pytest.approx(est_one["local_time_total"][k], rel=1e-14)
    assert est_at["n_legs"] == est_one["n_legs"]
    assert est_at["terminated_fraction"] == est_one["terminated_fraction"]


@pytest.mark.parametrize("name, angles", [("orbm-leg", {}), ("quadrant", {}),
                                          ("quadrant", {"theta1": 1.0}),
                                          ("quadrant", {"theta2": 1.0})])
def test_api_runs_without_their_angles_raise_value_error(name, angles):
    # the command line requires the angles; through the API quadrant once
    # raised TypeError from its angle check
    with pytest.raises(ValueError, match="needs --theta"):
        cli.run(cli.ExperimentConfig(experiment=name, paths=10, **angles))


# heavy scipy modules that no experiment needs
DEFERRED_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.stats")


def test_cli_import_leaves_the_quadrature_modules_unloaded(graph_file):
    """Importing the CLI and building the config of every experiment loads
    none of these modules: scipy.integrate pulls in scipy.optimize and
    scipy.linalg, about a third of the CLI's start-up time and 25 MB of its
    memory, and the Walsh semigroup is in closed form. A fresh
    interpreter, because this one has loaded them for other tests."""
    argvs = [tiny_argv(name, graph_file) for name in cli.EXPERIMENTS]
    code = ("import json, sys\n"
            "from starflow import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    cli.config_from_args(cli.build_parser().parse_args(argv))\n"
            f"print(json.dumps([m for m in {DEFERRED_MODULES!r} if m in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == []


def test_probs_set_the_ray_count():
    args = cli.build_parser().parse_args(["isde", "--probs", "0.25,0.75"])
    cfg = cli.config_from_args(args)
    assert cfg.n_rays == 2 and cfg.probs == (0.25, 0.75)
    assert cli.config_from_args(cli.build_parser().parse_args(["isde"])).probs == (1 / 3,) * 3


def test_seed_defaults_to_the_environment(monkeypatch):
    monkeypatch.setenv("STARFLOW_SEED", "5")
    assert cli.config_from_args(cli.build_parser().parse_args(["isde"])).seed == 5
    assert cli.config_from_args(cli.build_parser().parse_args(["isde", "--seed", "2"])).seed == 2
