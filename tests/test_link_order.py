"""One link order: a graph's edge ids are the canonical link order.

:meth:`NetworkGraph.from_edge_arrays` takes an edge set in any order and
either orientation and stores it with ``node_a < node_b``, ascending by
pair key — the positions the update stream and its replicas name links
by.  So the input order cannot matter: any permutation and orientation of
one edge set builds byte-identical columns, and diffs between such builds
equal the diffs between the sorted ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import NetworkGraph, NodeIndex
from repro.topology.graph import pair_keys

INDEX = NodeIndex([7], ["g0", "g1"])
PAIRS = [(a, b) for a in range(len(INDEX)) for b in range(a + 1, len(INDEX))]
COLUMNS = (
    "node_a",
    "node_b",
    "distances_km",
    "delay_counts",
    "delays_ms",
    "bandwidths_kbps",
    "link_type_codes",
)
DIFF_ARRAYS = (
    "links_added",
    "links_removed",
    "delay_changed",
    "delay_changed_previous",
    "bandwidth_changed",
)


def _values(draw, count, counts=st.integers(0, 2**32 - 1), bandwidths=st.floats(0.0, 1e7)):
    """The four value columns of ``count`` links."""
    return [
        np.array(draw(st.lists(strategy, min_size=count, max_size=count)), dtype=dtype)
        for strategy, dtype in (
            (st.floats(0.0, 5e4), np.float64),
            (counts, np.uint32),
            (bandwidths, np.float64),
            (st.integers(0, 2), np.int8),
        )
    ]


@st.composite
def edge_sets(draw, **values):
    """Unique pairs, lower node first and ascending — the canonical order —
    with their value columns."""
    pairs = np.array(sorted(draw(st.sets(st.sampled_from(PAIRS)))), dtype=np.int64)
    return pairs.reshape(-1, 2), _values(draw, len(pairs), **values)


def _build(edges):
    pairs, values = edges
    return NetworkGraph.from_edge_arrays(INDEX, pairs[:, 0], pairs[:, 1], *values)


def _shuffled(draw, edges):
    """``edges`` in a drawn order, each link with a drawn endpoint first."""
    pairs, values = edges
    order = np.array(draw(st.permutations(range(len(pairs)))), dtype=np.int64)
    flips = np.array(draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
    pairs = pairs[order].reshape(-1, 2)
    pairs = np.where(flips[:, None], pairs[:, ::-1], pairs)
    return pairs, [column[order] for column in values]


def _same_columns(mine, theirs):
    for name in COLUMNS:
        a, b = getattr(mine, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(edges=edge_sets(), data=st.data())
def test_any_permutation_and_orientation_builds_the_same_columns(edges, data):
    """The sorted input is kept as given; a shuffled one is sorted into it."""
    canonical = _build(edges)
    shuffled = _build(_shuffled(data.draw, edges))
    _same_columns(shuffled, canonical)
    pairs, _ = edges
    assert canonical.node_a.tolist() == pairs[:, 0].tolist()
    assert canonical.node_b.tolist() == pairs[:, 1].tolist()
    for graph in (canonical, shuffled):
        assert (graph.node_a < graph.node_b).all()
        keys = pair_keys(graph.node_a, graph.node_b, len(INDEX))
        assert (keys[1:] > keys[:-1]).all()
        assert graph.edge_ids_between(graph.node_b, graph.node_a).tolist() == list(
            range(graph.total_links())
        )


@st.composite
def epoch_pairs(draw):
    """Two epochs' edge sets over a shared pool: links that stay, go and
    come, with delays and bandwidths from small alphabets so that some
    change and some do not."""
    small = {"counts": st.sampled_from([5, 6]), "bandwidths": st.sampled_from([1e3, 1e4])}
    return draw(edge_sets(**small)), draw(edge_sets(**small))


@settings(max_examples=150, deadline=None)
@given(epochs=epoch_pairs(), data=st.data())
def test_diffs_between_shuffled_builds_equal_the_sorted_ones(epochs, data):
    previous, current = epochs
    sorted_diff = _build(current).diff_from(_build(previous))
    shuffled_diff = _build(_shuffled(data.draw, current)).diff_from(
        _build(_shuffled(data.draw, previous))
    )
    for name in DIFF_ARRAYS:
        mine, theirs = getattr(shuffled_diff, name), getattr(sorted_diff, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        assert (np.diff(mine) > 0).all(), name  # ascending positions
