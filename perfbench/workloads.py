"""The benchmark's workloads: four CLI experiments at fixed configs.

Each workload is one ``starflow`` CLI invocation. The benchmark seed is
passed as ``--seed``; every run is single-threaded. The sizes keep one
invocation between about 4 and 11 seconds on a 2-core machine, so that a
run can repeat it and report medians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

THREADS = 1
BASELINE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    # options that shrink the run for the benchmark's smoke test; argparse
    # keeps the last occurrence, so they override the sizes in argv
    tiny: tuple[str, ...]
    # checks that fail at BASELINE_SEED on the parent tree of the benchmark
    known_red: tuple[str, ...] = ()
    needs_graph: bool = False

    def cli_argv(self, seed: int, report: str, graph_file: str | None = None,
                 tiny: bool = False) -> list[str]:
        argv = [*self.argv, *(self.tiny if tiny else ()),
                "--seed", str(seed), "--threads", str(THREADS), "--out", report]
        if self.needs_graph:
            argv += ["--graph-file", graph_file]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        name="leg-wide",
        argv=("orbm-leg", "--theta", repr(math.pi / 6), "--dt", "1e-3", "--paths", "50000"),
        tiny=("--paths", "300"),
        why="one full-width exact reflected-step batch with its straggler tail, "
            "plus a 50000-point Beta-prime CDF; no graphs, metric or pair engine",
    ),
    # Kept out of BENCHMARK.json: coalescence time is heavy-tailed, so the
    # wall time of one invocation ranges over 4.5-11 s from seed to seed.
    Workload(
        name="pair-coalesce",
        argv=("coalesce", "--paths", "20", "--dt", "1e-3"),
        tiny=("--paths", "2", "--dt", "1e-2"),
        why="shared-noise pair engine on 1 to 20 active paths, so per-step "
            "dispatch dominates; the narrow-batch side of any batch-driver change",
        known_red=("tolerance_stability",),
    ),
    Workload(
        name="grid-isde",
        argv=("isde", "--paths", "10000", "--dt", "1e-3"),
        tiny=("--paths", "200", "--dt", "0.05"),
        why="fixed-grid full-width stepping with test-function evaluation and "
            "residual sums; no adaptive steps, stragglers, quadrant or CDF",
    ),
    Workload(
        name="metric-walk",
        argv=("metric-isde", "--paths", "100", "--dt", "1e-3"),
        tiny=("--paths", "4", "--dt", "0.01"),
        why="the scalar metric-graph walker with step halving near a short "
            "edge; the only workload in metric.py, it bypasses every batch kernel",
        needs_graph=True,
    ),
)}


def metric_tree():
    """Loop-free tree: vertices 0 and 1 joined by an edge of length 0.25
    (short enough that the walker's 6-sigma step halving fires), two
    infinite rays at each vertex, and non-uniform weights."""
    from starflow import graphs

    edges = [
        graphs.Edge(id=0, src=0, dst=1, length=0.25),
        graphs.Edge(id=1, src=0, dst=None, length=math.inf),
        graphs.Edge(id=2, src=0, dst=None, length=math.inf),
        graphs.Edge(id=3, src=1, dst=None, length=math.inf),
        graphs.Edge(id=4, src=1, dst=None, length=math.inf),
    ]
    params = {0: {0: 0.2, 1: 0.5, 2: 0.3}, 1: {0: 0.45, 3: 0.35, 4: 0.2}}
    return graphs.MetricGraph(vertices=[0, 1], edges=edges, vertex_params=params)
