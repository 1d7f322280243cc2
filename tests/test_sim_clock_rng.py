"""Unit tests for seeded random streams."""

from repro.sim import RandomStreams


def test_random_streams_reproducible():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert a.stream("network").normal(size=5).tolist() == b.stream("network").normal(size=5).tolist()


def test_random_streams_independent_by_name():
    streams = RandomStreams(seed=7)
    x = streams.stream("one").normal(size=5)
    y = streams.stream("two").normal(size=5)
    assert x.tolist() != y.tolist()


def test_random_streams_differ_across_seeds():
    a = RandomStreams(seed=1).stream("x").normal(size=5)
    b = RandomStreams(seed=2).stream("x").normal(size=5)
    assert a.tolist() != b.tolist()


def test_random_streams_spawn_is_deterministic():
    parent_a = RandomStreams(seed=5)
    parent_b = RandomStreams(seed=5)
    child_a = parent_a.spawn("run-1").stream("x").normal(size=3)
    child_b = parent_b.spawn("run-1").stream("x").normal(size=3)
    assert child_a.tolist() == child_b.tolist()
    other = parent_a.spawn("run-2").stream("x").normal(size=3)
    assert child_a.tolist() != other.tolist()


def test_stream_is_cached():
    streams = RandomStreams(seed=3)
    assert streams.stream("a") is streams.stream("a")
