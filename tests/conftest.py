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
