import pytest

from starflow.halfline import RngStream


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
def streams(monkeypatch):
    """The list of the streams whose generator RngStream.generator builds
    during the test, in order."""
    built = []
    build = RngStream.generator

    def generator(stream):
        built.append(stream)
        return build(stream)

    monkeypatch.setattr(RngStream, "generator", generator)
    return built
