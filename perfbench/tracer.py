"""Span recorder and timing wrappers for the traced benchmark run.

Tracing replaces module attributes of ``starflow`` with wrappers that open
a span on entry and close it on exit, so no file of the package changes.
Spans live in memory as (name, start, end, parent) rows and are aggregated
or written out only after the run. A layer's self time is its span's
duration minus the durations of its direct child spans; calls nest on one
thread (the benchmark runs with ``--threads 1``), so children never overlap.

Random-number work is counted exactly: every generator that
``RngStream.generator`` builds is credited to the span that built it, and
after the run the number of 64-bit Philox words it consumed is read from its
state as ``counter[0] * 4 - (4 - buffer_pos)``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

# Modules whose public functions get a span each, named "<module>.<function>".
TRACED_MODULES = ("quadrant", "isde", "walsh", "graphs", "metric", "stats", "halfline")
EVAL_ARRAY_METHODS = ("value_arrays", "derivative_arrays", "second_derivative_arrays")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """In-memory span list with a stack of open spans (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.generators: list[tuple[int, np.random.Generator]] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def credit_words(self) -> int:
        """Add each generator's consumed Philox words to the counts of the
        span that built it; return the words of all generators."""
        total = 0
        for idx, gen in self.generators:
            words = philox_words(gen)
            total += words
            if idx >= 0:
                c = self.spans[idx].counts
                c["rng_words"] = c.get("rng_words", 0) + words
        return total

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self_s and summed counts over all its spans."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            for k, v in s.counts.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def rows(self) -> list[list]:
        """Spans as JSON-ready [name, start, end, parent, counts] rows."""
        return [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]


def philox_words(gen: np.random.Generator) -> int:
    """64-bit words a Philox generator has handed out since it was seeded."""
    st = gen.bit_generator.state
    if st["bit_generator"] != "Philox":
        raise TypeError(f"expected a Philox generator, got {st['bit_generator']}")
    return int(st["state"]["counter"][0]) * 4 - (4 - int(st["buffer_pos"]))


def wrap(rec: SpanRecorder, fn, name: str, count=None):
    """Return fn wrapped in a span; ``count(counts, args, kwargs, result)``
    may add work counts to the span after the call returns."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            count(rec.spans[idx].counts, args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_ys_cdf(counts, args, kwargs, result):
    counts["points"] = counts.get("points", 0) + int(np.size(_arg(args, kwargs, 2, "y")))


def _count_eval(counts, args, kwargs, result):
    # args[0] is the DomainFunction instance, then rays, radials
    counts["points"] = counts.get("points", 0) + int(np.size(_arg(args, kwargs, 2, "radials")))


def _count_metric(counts, args, kwargs, result):
    T, dt = _arg(args, kwargs, 2, "T"), _arg(args, kwargs, 3, "dt")
    counts["steps"] = counts.get("steps", 0) + result.n_steps
    counts["nominal_steps"] = counts.get("nominal_steps", 0) + int(round(T / dt))


def _count_coalescence(counts, args, kwargs, result):
    n = result.times.shape[0]
    counts["paths"] = counts.get("paths", 0) + n
    counts["coalesced"] = counts.get("coalesced", 0) + int(
        round(result.fraction_coalesced() * n))


COUNTERS = {
    "quadrant.ys_cdf": _count_ys_cdf,
    "metric.metric_isde_forward": _count_metric,
    "isde.sample_coalescence_times": _count_coalescence,
}


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions of every traced module, the array
    evaluation methods of DomainFunction, RngStream.generator and cli.main.

    Affects the whole process; the traced worker calls it once before the
    run and never restores the originals.
    """
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"starflow.{short}")
        for name, fn in list(vars(mod).items()):
            if not name.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == mod.__name__:
                span = f"{short}.{name}"
                setattr(mod, name, wrap(rec, fn, span, COUNTERS.get(span)))

    graphs = importlib.import_module("starflow.graphs")
    for meth in EVAL_ARRAY_METHODS:
        fn = getattr(graphs.DomainFunction, meth)
        setattr(graphs.DomainFunction, meth, wrap(rec, fn, "graphs.eval_arrays", _count_eval))

    halfline = importlib.import_module("starflow.halfline")
    build = halfline.RngStream.generator

    def generator(stream):
        idx = rec.open("halfline.generator")
        try:
            gen = build(stream)
        finally:
            rec.close(idx)
        # credit the span that asked for the generator, not the build span
        rec.generators.append((rec.spans[idx].parent, gen))
        return gen

    halfline.RngStream.generator = generator

    cli = importlib.import_module("starflow.cli")
    cli.main = wrap(rec, cli.main, "cli.main")


def philox_ns_per_word(width: int, seconds: float = 0.15, blocks: int = 5) -> float:
    """Bare-RNG reference: median ns per Philox word over ``blocks`` timed
    blocks, each repeating the leg kernel's draw pattern (two normal and two
    uniform vectors of ``width``) for about ``seconds``."""
    gen = np.random.Generator(np.random.Philox(12345))

    def draw():
        gen.standard_normal(width)
        gen.standard_normal(width)
        gen.random(width)
        gen.random(width)

    t0 = time.perf_counter()
    reps = 0
    while time.perf_counter() - t0 < seconds / 4:
        draw()
        reps += 1
    per_block = max(1, 4 * reps)
    samples = []
    for _ in range(blocks):
        w0 = philox_words(gen)
        t0 = time.perf_counter()
        for _ in range(per_block):
            draw()
        dt = time.perf_counter() - t0
        samples.append(dt * 1e9 / (philox_words(gen) - w0))
    return float(np.median(samples))
