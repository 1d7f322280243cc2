"""Identity of a graph's derived structure with the algorithms it replaced.

A :class:`NetworkGraph` stores its edges in the canonical link order —
verified when the caller (the constellation calculation) emits them in it,
sorted once otherwise — builds its delay-matrix structure on the first
``delay_matrix()`` call from that order, and diffs two epochs with one
``searchsorted`` of their keys.  The three plain algorithms those replaced
— an ``argsort`` of every pair key (which must find the stored order
already sorted), a ``lexsort`` of all 2E directed entries and an
``intersect1d`` of both key sets — are kept here as oracles, and every
array must equal theirs byte for byte: on real constellation chains (cold
and incremental graphs alike) and on hypothesis chains of synthetic
graphs.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import LinkType, NetworkGraph, NodeIndex
from repro.topology.graph import _CODE_BY_LINK_TYPE, DELAY_EPSILON_MS, pair_keys
from repro.topology.linkparams import DELAY_GRID_MS

_ISL = _CODE_BY_LINK_TYPE[LinkType.ISL]
_UPLINK = _CODE_BY_LINK_TYPE[LinkType.UPLINK]


# -- the oracles ---------------------------------------------------------------


def _oracle_order(graph):
    return np.argsort(pair_keys(graph.node_a, graph.node_b, len(graph.index)))


def _oracle_template(graph):
    rows = np.concatenate([graph.node_a, graph.node_b])
    cols = np.concatenate([graph.node_b, graph.node_a])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=len(graph.index)))]
    ).astype(np.int64)
    return order, cols[order], indptr


def _oracle_matrix(graph):
    n = len(graph.index)
    order, indices, indptr = _oracle_template(graph)
    delays = np.maximum(graph.delays_ms, DELAY_EPSILON_MS)
    data = np.concatenate([delays, delays])[order]
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _oracle_diff(current, previous):
    """``(added, removed, delay_changed, delay_changed_previous,
    bandwidth_changed)`` by set intersection."""
    n = len(current.index)
    current_order, previous_order = _oracle_order(current), _oracle_order(previous)
    _, in_current, in_previous = np.intersect1d(
        pair_keys(current.node_a, current.node_b, n)[current_order],
        pair_keys(previous.node_a, previous.node_b, n)[previous_order],
        assume_unique=True,
        return_indices=True,
    )
    common_current = current_order[in_current]
    common_previous = previous_order[in_previous]
    added = np.ones(current.total_links(), dtype=bool)
    added[common_current] = False
    removed = np.ones(previous.total_links(), dtype=bool)
    removed[common_previous] = False
    moved = current.delays_ms[common_current] != previous.delays_ms[common_previous]
    by_current_id = np.argsort(common_current[moved])
    bandwidth_changed = common_current[
        current.bandwidths_kbps[common_current] != previous.bandwidths_kbps[common_previous]
    ]
    return (
        np.nonzero(added)[0],
        np.nonzero(removed)[0],
        common_current[moved][by_current_id],
        common_previous[moved][by_current_id],
        np.sort(bandwidth_changed),
    )


def _same_bytes(mine, theirs, what):
    assert mine.dtype == theirs.dtype, what
    assert mine.tobytes() == theirs.tobytes(), what


def _assert_structure(graph):
    """Canonical order, template and delay matrix equal the oracles'."""
    assert (graph.node_a < graph.node_b).all()
    _same_bytes(_oracle_order(graph), np.arange(graph.total_links()), "canonical order")
    if not graph.total_links():
        return
    matrix, oracle = graph.delay_matrix(), _oracle_matrix(graph)
    for name, mine, theirs in zip(
        ("order", "indices", "indptr"), graph._csr_template, _oracle_template(graph)
    ):
        _same_bytes(mine, theirs, name)
    for name in ("data", "indices", "indptr"):
        _same_bytes(getattr(matrix, name), getattr(oracle, name), name)


def _assert_diff(diff, current, previous):
    fields = (
        "links_added",
        "links_removed",
        "delay_changed",
        "delay_changed_previous",
        "bandwidth_changed",
    )
    for name, theirs in zip(fields, _oracle_diff(current, previous)):
        _same_bytes(getattr(diff, name), theirs, name)


# -- constellation chains ----------------------------------------------------------


# name: (configuration, epochs, interval [s], whether an epoch changes an
# ISL and an uplink together).  Only the full Starlink chain loses and
# regains ISLs to the atmosphere-grazing limit (16 of its 40 epochs change
# an ISL and an uplink together); the other two change uplinks only.
_CHAINS = {
    "iridium-30s": (
        lambda: dart_configuration(buoy_count=5, sink_count=8, duration_s=7200.0),
        200, 30.0, False,
    ),
    "starlink-two-lowest-2s": (
        lambda: west_africa_configuration(
            duration_s=7200.0, shells="two-lowest", update_interval_s=2.0
        ),
        200, 2.0, False,
    ),
    "starlink-all-2s": (
        lambda: west_africa_configuration(duration_s=7200.0, shells="all", update_interval_s=2.0),
        40, 2.0, True,
    ),
}


def _changed_types(diff):
    return set(diff.current.link_type_codes[diff.links_added].tolist()) | set(
        diff.previous.link_type_codes[diff.links_removed].tolist()
    )


@pytest.mark.parametrize("chain", list(_CHAINS))
def test_every_epoch_of_a_chain_equals_the_oracles(chain):
    """Incremental and cold graphs of every epoch against the oracles."""
    make_config, epochs, interval, changes_both = _CHAINS[chain]
    config = make_config()
    reference, incremental = ConstellationCalculation(config), ConstellationCalculation(config)
    state = incremental.state_at(0.0)
    previous_cold = reference.state_at(0.0).graph
    _assert_structure(state.graph)
    structural = mixed = 0
    for step in range(1, epochs + 1):
        time_s = step * interval
        state, diff = incremental.diff_since(state, time_s)
        cold = reference.state_at(time_s).graph
        for name in ("node_a", "node_b"):
            _same_bytes(getattr(state.graph, name), getattr(cold, name), f"cold {name}")
        _assert_structure(state.graph)
        _assert_structure(cold)
        _assert_diff(diff.topology, cold, previous_cold)
        structural += diff.topology.structural_change_count > 0
        mixed += _changed_types(diff.topology) == {_ISL, _UPLINK}
        previous_cold = cold
    assert structural > 0
    assert (mixed > 0) == changes_both


# -- synthetic chains ----------------------------------------------------------------


_INDEX = NodeIndex([10], ["g0", "g1", "g2"])
_PAIRS = np.array(
    [(a, b) for a in range(len(_INDEX)) for b in range(a + 1, len(_INDEX))], dtype=np.int64
)


def _graph(node_a, node_b, delays, bandwidths):
    """A graph over ``_INDEX`` with ``delays`` [ms] on the delay grid."""
    counts = np.rint(delays / DELAY_GRID_MS).astype(np.uint32)
    return NetworkGraph.from_edge_arrays(
        _INDEX, node_a, node_b, delays * 300.0, counts, bandwidths,
        np.zeros(node_a.size, dtype=np.int8),
    )


def _random_graph(rng):
    chosen = rng.permutation(len(_PAIRS))[: rng.integers(1, len(_PAIRS))]
    pairs = _PAIRS[chosen]
    flip = rng.random(len(pairs)) < 0.5  # either endpoint may come first
    node_a = np.where(flip, pairs[:, 1], pairs[:, 0])
    node_b = np.where(flip, pairs[:, 0], pairs[:, 1])
    return _graph(
        node_a, node_b, rng.choice([0.0, 1.0, 2.5], len(pairs)), rng.choice([1e3, 1e4], len(pairs))
    )


def _flickered(rng, graph):
    """A few links drop out, a few new ones join at the end, a few delays move."""
    alive = np.flatnonzero(rng.random(graph.total_links()) > 0.2)
    present = set(pair_keys(graph.node_a, graph.node_b, len(_INDEX)).tolist())
    fresh = [p for p in _PAIRS.tolist() if p[0] * len(_INDEX) + p[1] not in present]
    joining = np.array(
        [fresh[i] for i in rng.permutation(len(fresh))[: rng.integers(0, 4)]], dtype=np.int64
    ).reshape(-1, 2)
    delays = graph.delays_ms[alive].copy()
    delays[rng.random(delays.size) < 0.3] += 1.0
    bandwidths = graph.bandwidths_kbps[alive].copy()
    bandwidths[rng.random(bandwidths.size) < 0.1] *= 2.0
    return _graph(
        np.concatenate([graph.node_a[alive], joining[:, 1]]),
        np.concatenate([graph.node_b[alive], joining[:, 0]]),
        np.concatenate([delays, np.ones(len(joining))]),
        np.concatenate([bandwidths, np.full(len(joining), 1e3)]),
    )


def _reweighted(rng, graph):
    """The same edge table; some delays and bandwidths moved."""
    delays = graph.delays_ms.copy()
    delays[rng.random(delays.size) < 0.3] *= 2.0
    return _graph(graph.node_a, graph.node_b, delays, graph.bandwidths_kbps)


_EMPTY = _graph(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["flicker", "structural", "empty", "reweight"]), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["empty", "structural", "empty", "flicker", "structural"], seed=0)
def test_synthetic_chain_diffs_equal_the_oracle(kinds, seed):
    """From an empty graph, through flicker, rewrites, re-weights and empties."""
    rng = np.random.default_rng(seed)
    graph = _EMPTY
    for kind in kinds:
        if kind == "empty":
            successor = _EMPTY
        elif kind == "structural" or not graph.total_links():
            successor = _random_graph(rng)
        elif kind == "flicker":
            successor = _flickered(rng, graph)
        else:
            successor = _reweighted(rng, graph)
        _assert_structure(successor)
        _assert_diff(successor.diff_from(graph), successor, graph)
        graph = successor


def test_empty_graphs_diff_both_ways():
    full = _random_graph(np.random.default_rng(1))
    for current, previous in ((full, _EMPTY), (_EMPTY, full), (_EMPTY, _EMPTY)):
        diff = current.diff_from(previous)
        _assert_diff(diff, current, previous)
    assert full.diff_from(_EMPTY).links_added.size == full.total_links()
    assert _EMPTY.diff_from(full).links_removed.size == full.total_links()


# -- input in the canonical order is verified -------------------------------------------


class TestSuppliedOrder:
    # Keys with 4 nodes: (0, 1) → 1, (0, 3) → 3, (1, 2) → 6.
    NODE_A, NODE_B = np.array([0, 0, 1]), np.array([1, 3, 2])

    def _build(self, node_a=NODE_A, node_b=NODE_B):
        return NetworkGraph.from_edge_arrays(
            NodeIndex([4], []), node_a, node_b, np.ones(node_a.size),
            np.ones(node_a.size, np.uint32), np.ones(node_a.size), np.zeros(node_a.size, np.int8),
        )

    def test_the_canonical_order_is_accepted(self):
        """Input already in the canonical order is kept as given: the
        graph's columns are views of the caller's arrays."""
        graph = self._build()
        assert np.shares_memory(graph.node_a, self.NODE_A)
        assert graph.node_a.tolist() == [0, 0, 1] and graph.node_b.tolist() == [1, 3, 2]
        _assert_structure(graph)

    def test_a_duplicate_pair_is_refused_whatever_the_order(self):
        for node_a, node_b in (([0, 1], [1, 0]), ([1, 0], [0, 1]), ([0, 0], [1, 1])):
            with pytest.raises(ValueError, match="unique node pairs"):
                self._build(node_a=np.array(node_a), node_b=np.array(node_b))


# -- the mechanism, without a clock ----------------------------------------------------


def test_no_epoch_sorts_its_edges_or_builds_a_template_unasked(monkeypatch):
    """Record the sizes every sort and set intersection sees during
    ``diff_since``: none may be as long as the edge table, and the delay
    matrix structure is built only by ``delay_matrix()``."""
    config = west_africa_configuration(duration_s=600.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(0.0)
    sizes, builds = [], []
    for name in ("argsort", "lexsort", "sort", "intersect1d"):
        original = getattr(np, name)

        def recording(values, *args, _original=original, _name=name, **kwargs):
            first = values[0] if _name == "lexsort" else values
            sizes.append((_name, np.size(first)))
            return _original(values, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    build = NetworkGraph._build_csr_template
    monkeypatch.setattr(
        NetworkGraph,
        "_build_csr_template",
        lambda graph: builds.append(graph) or build(graph),
    )
    structural = 0
    for step in range(1, 21):
        sizes.clear()
        state, diff = calculation.diff_since(state, step * config.update_interval_s)
        structural += diff.topology.structural_change_count > 0
        edges = state.graph.total_links()
        assert all(size < edges for _, size in sizes), (step, sizes, edges)
        assert builds == [] and state.graph._csr_template is None
        if step % 5 == 0:  # a query's first solve builds it, once
            state.graph.delay_matrix()
            state.graph.delay_matrix()
            assert builds == [state.graph]
            builds.clear()
    assert structural > 0


def test_concurrent_first_calls_build_equal_matrices():
    config = west_africa_configuration(duration_s=600.0, shells="lowest")
    calculation = ConstellationCalculation(config)
    graph = calculation.state_at(0.0).graph
    cold = calculation.state_at(0.0).graph.delay_matrix()
    assert graph._csr_template is None
    barrier = threading.Barrier(8, timeout=60.0)
    results = [None] * 8

    def ask(position):
        barrier.wait()
        results[position] = graph.delay_matrix()

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for matrix in results:
        for name in ("data", "indices", "indptr"):
            _same_bytes(getattr(matrix, name), getattr(cold, name), name)
