"""``PathRows.orient`` in node space equals its set formulation.

``orient`` picks the source of every pair of a batch by the path module's
rule: an endpoint with a held row, else the endpoint more of the batch's
pairs share, else a ground station, else the first.  It reads the shares
from one ``np.bincount`` over the batch's endpoints and the held rows and
stations from boolean masks over the nodes.  The oracle below is the
formulation it replaced — ``np.unique`` for the shares, ``np.isin`` for
the held rows and stations — and the two must choose the same source and
target for every pair: held rows, stations, self-pairs, ties and an empty
batch included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration
from repro.topology import PathEngine, PathRows


def orient_by_sets(store: PathRows, nodes_a: np.ndarray, nodes_b: np.ndarray):
    """The source-choice rule with ``np.unique`` and ``np.isin``."""
    held = np.fromiter(store._row_of, dtype=np.int64, count=len(store._row_of))
    _, endpoint, shared = np.unique(
        np.concatenate([nodes_a, nodes_b]), return_inverse=True, return_counts=True
    )
    shared_a, shared_b = np.split(shared[endpoint], 2)
    stations = np.array(store.sources, dtype=np.int64)
    station_b = np.isin(nodes_b, stations) & ~np.isin(nodes_a, stations)
    flip = ~np.isin(nodes_a, held) & (
        np.isin(nodes_b, held) | (shared_b > shared_a) | ((shared_b == shared_a) & station_b)
    )
    return np.where(flip, nodes_b, nodes_a), np.where(flip, nodes_a, nodes_b)


@pytest.fixture(scope="module")
def iridium():
    """The epoch-0 DART/Iridium graph and its ground-station nodes."""
    calculation = ConstellationCalculation(dart_configuration(buoy_count=5, sink_count=8))
    stations = list(calculation.node_index.ground_station_indices())
    return calculation.state_at(0.0).graph, stations


@st.composite
def batches(draw, node_count: int, stations: list[int]):
    """A pool of a few nodes (so pairs share endpoints and tie), the store's
    stations among them, the rows it holds, and pairs over the pool."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(stations), st.integers(0, node_count - 1)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    sources = draw(
        st.one_of(
            st.just(stations),  # as a state's store has them
            st.lists(st.sampled_from(stations), unique=True, max_size=len(stations)),
        )
    )
    held = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=40))
    return sources, held, pairs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_node_space_orientation_equals_the_set_formulation(iridium, data):
    graph, stations = iridium
    sources, held, pairs = data.draw(batches(len(graph.index), stations))
    store = PathRows(graph, PathEngine(), sources)
    for node in held:
        store.delays_from(node)
    nodes_a = np.array([a for a, _ in pairs], dtype=np.int64)
    nodes_b = np.array([b for _, b in pairs], dtype=np.int64)
    got = store.orient(nodes_a, nodes_b)
    expected = orient_by_sets(store, nodes_a, nodes_b)
    for side, reference in zip(got, expected):
        assert side.dtype == reference.dtype
        assert side.tolist() == reference.tolist()


def test_an_empty_batch(iridium):
    graph, stations = iridium
    store = PathRows(graph, PathEngine(), stations)
    empty = np.array([], dtype=np.int64)
    sources, targets = store.orient(empty, empty)
    assert sources.size == targets.size == 0
    assert sources.dtype == targets.dtype == np.int64
