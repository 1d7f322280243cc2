"""A bounded search serves its whole epoch.

A pair asked on its own is a Dijkstra search from one endpoint, bounded by
a limit (``repro.topology.paths``, "Pairs by bounded search, rows for
batches").  The store holds each search until the epoch ends, so a later
pair whose other endpoint that search settled — a repeat, the reverse, any
node within the held limit — reads the held distances and predecessors
without a solver call, and a search that closed its source's component
answers every target, unreachable ones included.  A target beyond the held
limit searches the source again, wider.

The contract is the fresh search's: every answer has the delay bits, the
hops and the bottleneck of ``ShortestPaths(graph, [found.source])``.  The
test keeps its own record of what each source's searches must have
settled — every node no farther than the farthest answer a search of it
gave, everything once it answered an unreachable target — and a pair
inside that record must cost no solver call.  The next epoch's store holds
nothing.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import LinkType, NetworkGraph, PathEngine, PathRows, ShortestPaths
from repro.topology.graph import _CODE_BY_LINK_TYPE

SCENARIOS = {
    "west-africa-box": lambda: west_africa_configuration(shells="all", use_bounding_box=True),
    "west-africa": lambda: west_africa_configuration(shells="all", use_bounding_box=False),
    "dart": lambda: dart_configuration("central", buoy_count=40, sink_count=80),
}
EPOCHS = 4


@functools.lru_cache(maxsize=None)
def _calculation(scenario):
    return ConstellationCalculation(SCENARIOS[scenario]())


@functools.lru_cache(maxsize=None)
def _chain(scenario):
    """``EPOCHS`` states: a cold first epoch and a ``diff_since`` chain after it."""
    calculation = _calculation(scenario)
    interval = calculation.config.update_interval_s
    states = [calculation.state_at(0.0)]
    for epoch in range(1, EPOCHS):
        states.append(calculation.diff_since(states[-1], epoch * interval)[0])
    return states


def _fresh(scenario, epoch, cold):
    """The chain's ``epoch`` with an empty store: a cold ``state_at``, or the
    ``diff_since`` of the epoch before it."""
    calculation, chain = _calculation(scenario), _chain(scenario)
    if cold or epoch == 0:
        return calculation.state_at(chain[epoch].time_s)
    return calculation.diff_since(chain[epoch - 1], chain[epoch].time_s)[0]


def _machine(calculation, node):
    kind, shell, name = calculation.node_index.describe(node)
    if kind == "gst":
        return calculation.ground_station(name)
    return calculation.satellite(shell, name)


def _farthest(state, source):
    """The reachable node farthest from ``source``, of its kind when ``source``
    is a satellite (so the pair stays rooted at ``source``)."""
    delays = ShortestPaths(state.graph, [source]).delays_from(source)
    candidates = np.isfinite(delays)
    if not state.node_index.is_ground_station(source):
        candidates[list(state.node_index.ground_station_indices())] = False
    return int(np.argmax(np.where(candidates, delays, -1.0)))


class _Asker:
    """Asks pairs of one state and checks each answer against the full row
    and each solver call against what held searches must have settled."""

    def __init__(self, calculation, state):
        self.calculation, self.state = calculation, state
        self.stats = calculation.path_engine.stats
        self.settled_within: dict[int, float] = {}  # source → delay its searches reached

    def _held(self, source, target, rows):
        return rows.delay_ms(source, target) <= self.settled_within.get(source, -1.0)

    def ask(self, node_a, node_b):
        state, stats = self.state, self.stats
        machine_a = _machine(self.calculation, node_a)
        machine_b = _machine(self.calculation, node_b)
        rows = ShortestPaths(state.graph, [node_a, node_b])
        held = self._held(node_a, node_b, rows) or self._held(node_b, node_a, rows)
        before = stats.snapshot()
        found = state.path(machine_a, machine_b)
        after = stats.snapshot()
        row = ShortestPaths(state.graph, [found.source]).path(found.source, found.target)
        assert found.delay_ms.hex() == row.delay_ms.hex()
        assert found.hops == row.hops, f"hops differ on {found.source} → {found.target}"
        assert state.bandwidth_kbps(machine_a, machine_b) == state.bottleneck_kbps(row)
        searched = after["solver_calls"] > before["solver_calls"]
        if held:
            assert not searched, f"{node_a} ↔ {node_b} was settled by a held search"
            assert after["cache_hits"] == before["cache_hits"] + (node_a != node_b)
        if searched:
            assert after["cache_misses"] == before["cache_misses"] + 1
            reached = self.settled_within.get(found.source, -1.0)
            self.settled_within[found.source] = max(reached, found.delay_ms)
        assert after["rows_solved"] == before["rows_solved"]
        return found


def _linked(graph):
    """Nodes with at least one link."""
    return np.unique(np.concatenate([graph.node_a, graph.node_b])).tolist()


_FOLLOW_UPS = ("repeat", "reverse", "farther")


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    epoch=st.integers(0, EPOCHS - 1),
    cold=st.booleans(),
    data=st.data(),
)
def test_every_answer_is_its_full_rows_and_a_settled_pair_searches_nothing(
    scenario, epoch, cold, data
):
    calculation = _calculation(scenario)
    state = _fresh(scenario, epoch, cold)
    index = calculation.node_index
    endpoint = st.one_of(
        st.sampled_from(list(index.ground_station_indices())),
        st.sampled_from(_linked(state.graph)),
        st.integers(0, index.satellite_count - 1),
    )
    query = st.one_of(
        st.tuples(st.just("pair"), endpoint, endpoint),
        st.tuples(st.sampled_from(_FOLLOW_UPS), st.integers(0, 11)),
    )
    asker, asked = _Asker(calculation, state), []
    for kind, *what in data.draw(st.lists(query, min_size=2, max_size=12)):
        if kind == "pair":
            node_a, node_b = what
        elif not asked:
            continue
        else:
            node_a, node_b, found = asked[what[0] % len(asked)]
            if kind == "reverse":
                node_a, node_b = node_b, node_a
            elif kind == "farther" and found.reachable:
                node_a, node_b = found.source, _farthest(state, found.source)
        asked.append((node_a, node_b, asker.ask(node_a, node_b)))
    following = calculation.diff_since(state, state.time_s + calculation.config.update_interval_s)
    assert following[0].paths._searches == {} and following[0].paths._row_of == {}


def test_a_target_beyond_the_held_limit_searches_again_from_twice_it():
    calculation = _calculation("dart")
    state = _fresh("dart", 1, cold=True)
    source = int(state.graph.node_a[0])
    neighbour = int(state.graph.node_b[0])
    asker = _Asker(calculation, state)
    asker.ask(source, neighbour)
    _, _, held_limit = state.paths._searches[source]
    limits = []
    solve = calculation.path_engine.solve

    def recording(matrix, sources, limit=None):
        limits.append(limit)
        return solve(matrix, sources, limit=limit)

    calculation.path_engine.solve = recording
    try:
        found = asker.ask(source, _farthest(state, source))
    finally:
        del calculation.path_engine.solve
    assert found.source == source and found.delay_ms > held_limit
    assert limits and limits[0] >= 2.0 * held_limit
    assert state.paths._searches[source][2] == limits[-1]  # the wider search is held
    assert asker.ask(source, neighbour) == state.path(
        _machine(calculation, source), _machine(calculation, neighbour)
    )


def test_the_closed_search_of_a_cut_plane_answers_its_unreachable_pair():
    """Iridium with its first plane cut off: a search from the island closes
    its component, and then answers every target, the other side included."""
    graph = _chain("dart")[0].graph
    island = np.isin(graph.node_a, range(11)), np.isin(graph.node_b, range(11))
    keep = island[0] == island[1]
    cut = NetworkGraph.from_edge_arrays(
        graph.index, graph.node_a[keep], graph.node_b[keep], graph.distances_km[keep],
        graph.delay_counts[keep], graph.bandwidths_kbps[keep], graph.link_type_codes[keep],
    )
    uplinks = cut.link_type_codes == _CODE_BY_LINK_TYPE[LinkType.UPLINK]
    satellite, neighbour = (int(end[island[0][keep]][0]) for end in (cut.node_a, cut.node_b))
    station, other = np.unique(cut.node_b[uplinks])[:2].tolist()
    engine = PathEngine()
    store = PathRows(cut, engine, list(graph.index.ground_station_indices()))
    first = store.pair_path(satellite, station, chord_ms=lambda: 0.0)  # rooted on the island
    assert first.source == satellite and not first.reachable
    assert store._searches[satellite][2] == math.inf
    searches = engine.stats.snapshot()
    for node_a, node_b in ((station, satellite), (satellite, other), (satellite, neighbour)):
        source, target = store.oriented(node_a, node_b)
        assert source == satellite
        found = store.pair_path(source, target, chord_ms=lambda: 0.0)
        assert found == ShortestPaths(cut, [satellite]).path(satellite, target)
    assert not ShortestPaths(cut, [satellite]).reachable(satellite, other)
    after = engine.stats.snapshot()
    assert after["solver_calls"] == searches["solver_calls"]
    assert after["cache_hits"] == searches["cache_hits"] + 3
    assert engine.stats.rows_solved == 0 and store._row_of == {}
