"""Span arithmetic, RNG word counting and run validation of the benchmark."""

import numpy as np
import pytest

import run
import tracer
from starflow.halfline import RngStream


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 3] and C [4, 5]; B holds D [1.5, 2.5]
    rec = tracer.SpanRecorder(clock=scripted_clock([0, 1, 1.5, 2.5, 3, 4, 5, 10]))
    a = rec.open("A")
    b = rec.open("B")
    d = rec.open("D")
    rec.close(d)
    rec.close(b)
    c = rec.open("C")
    rec.close(c)
    rec.close(a)
    assert rec.self_times() == [7.0, 1.0, 1.0, 1.0]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]


def test_totals_sum_spans_of_one_name():
    rec = tracer.SpanRecorder(clock=scripted_clock([0, 1, 2, 4, 7, 10]))
    outer = rec.open("outer")
    for _ in range(2):
        idx = rec.open("leaf")
        rec.spans[idx].counts["points"] = 5
        rec.close(idx)
    rec.close(outer)
    tot = rec.totals()
    assert tot["leaf"] == {"calls": 2, "self_s": 4.0, "points": 10}
    assert tot["outer"]["self_s"] == 6.0


def test_close_out_of_order_raises():
    rec = tracer.SpanRecorder()
    a = rec.open("A")
    rec.open("B")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_wrap_records_span_and_counts():
    rec = tracer.SpanRecorder()

    def f(x, y):
        return x + y

    g = tracer.wrap(rec, f, "m.f", lambda c, a, kw, r: c.update(result=r))
    assert g(2, y=3) == 5
    assert [s.name for s in rec.spans] == ["m.f"]
    assert rec.spans[0].counts == {"result": 5}
    assert rec.spans[0].end >= rec.spans[0].start


def test_philox_words_known_draws():
    gen = RngStream(0).generator()
    assert tracer.philox_words(gen) == 0
    gen.random(3)
    assert tracer.philox_words(gen) == 3
    gen = RngStream(0).generator()
    gen.standard_normal(1000)
    gen.random(1000)
    assert tracer.philox_words(gen) == 2018


def test_philox_words_rejects_other_bit_generators():
    with pytest.raises(TypeError):
        tracer.philox_words(np.random.Generator(np.random.PCG64(0)))


def test_credit_words_goes_to_building_span():
    rec = tracer.SpanRecorder()
    outer = rec.open("outer")
    gen = RngStream(1).generator()
    gen.random(10)
    rec.generators.append((outer, gen))
    rec.close(outer)
    orphan = RngStream(2).generator()
    orphan.random(4)
    rec.generators.append((-1, orphan))
    assert rec.credit_words() == 14
    assert rec.spans[outer].counts["rng_words"] == 10


def _inv(digest, mode="run"):
    return {"mode": mode, "rc": 1, "digest": digest, "checks": {"a": True, "b": False},
            "passed": False, "echo": {"experiment": "coalesce", "seed": 3},
            "starflow_file": str(run.ROOT / "src" / "starflow" / "cli.py")}


def test_digest_mismatch_fails_the_invocation(tmp_path):
    r = run.Run("pair-coalesce", 3, tmp_path)
    r.invocations = [_inv("x"), _inv("y"), _inv("x")]
    assert r.validate() == 1
    assert r.invocations[1]["failure"].startswith("numeric digest differs")
    assert r.check_counts() == (6, 3, ["b"])


def test_crashed_invocation_counts_all_checks_failed(tmp_path):
    r = run.Run("pair-coalesce", 3, tmp_path)
    r.invocations = [_inv("x"), {"mode": "run", "error": "Traceback\nZeroDivisionError"}]
    assert r.validate() == 1
    assert r.check_counts() == (4, 3, ["b"])
