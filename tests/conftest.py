import numpy as np
import pytest

from starflow import isde, quadrant
from starflow.halfline import RngStream, map_chunks


@pytest.fixture
def philox_words(monkeypatch):
    """Record every generator that RngStream.generator builds during the
    test; calling the fixture's value returns the 64-bit Philox words they
    have handed out, read from their state as counter[0] * 4 - (4 -
    buffer_pos)."""
    gens = []
    build = RngStream.generator

    def generator(stream):
        gen = build(stream)
        gens.append(gen)
        return gen

    monkeypatch.setattr(RngStream, "generator", generator)

    def words():
        total = 0
        for gen in gens:
            st = gen.bit_generator.state
            total += int(st["state"]["counter"][0]) * 4 - (4 - int(st["buffer_pos"]))
        return total

    return words


@pytest.fixture
def pointwise():
    """``pointwise(f, which, x)``: the value (which 0), derivative (1) or
    second derivative (2) of the DomainFunction f at the point x, from the
    coefficients of its edge there or its vertex value on a vertex."""
    def at(f, which, x):
        if x.is_vertex:
            return (f.vertex_value, f.vertex_derivative,
                    f.vertex_second_derivative)[which](x.vertex)
        a, b, c = f.coeffs[x.edge]
        r = x.coord
        return (a * r * r + b * r + c, 2.0 * a * r + b, 2.0 * a)[which]

    return at


@pytest.fixture
def check_chunks(monkeypatch):
    """Record the kernel that a batch engine of quadrant or isde hands to
    map_chunks. ``check_chunks(outputs, n, chunk, rng)``, after one engine
    run on n paths in chunks of ``chunk`` from rng, checks that rows
    [lo, hi) of each output array are the kernel's run on chunk ci with
    the stream rng.child(ci), for every chunk in order; an output given as
    None is not compared."""
    kernels = []

    def record(fn, *args):
        kernels.append(fn)
        return map_chunks(fn, *args)

    for mod in (quadrant, isde):
        monkeypatch.setattr(mod, "map_chunks", record)

    def check(outputs, n, chunk, rng):
        kernel, = kernels
        starts = range(0, n, chunk)
        assert len(starts) > 1
        for ci, lo in enumerate(starts):
            hi = min(lo + chunk, n)
            for got, want in zip(outputs, kernel(lo, hi, rng.child(ci))):
                if got is not None:
                    np.testing.assert_array_equal(got[lo:hi], want)

    return check
