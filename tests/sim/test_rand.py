"""Deterministic named random streams."""

from repro.sim import RandomStreams


def test_same_seed_same_sequence():
    a = RandomStreams(7).stream("loss")
    b = RandomStreams(7).stream("loss")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_are_independent():
    streams = RandomStreams(7)
    loss = streams.stream("loss")
    first_without_interleaving = RandomStreams(7).stream("think").random()
    loss.random()  # consuming one stream...
    assert streams.stream("think").random() == first_without_interleaving


def test_different_names_differ():
    streams = RandomStreams(0)
    assert streams.stream("a").random() != streams.stream("b").random()
