"""A single pair is answered by a bounded search, with its full row's answer.

``ConstellationState.path`` and ``delay_ms`` answer a pair whose source
has no held row by a Dijkstra search bounded by a limit taken from the
state, doubled until the target settles or the search closes the
source's component (``repro.topology.paths``, "Pairs by bounded search,
rows for batches").  The contract is the full row's: the delay bits, the
hops and the bottleneck of ``ShortestPaths(graph, [source])``, on cold
``state_at`` states and on ``diff_since`` chains alike, over West Africa
with all five shells (bounding box on and off) and DART on Iridium; and a
pair query stores no row.
"""

import functools
import sys
import threading

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
EPOCHS = 6


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


@functools.lru_cache(maxsize=None)
def _cold(scenario, epoch):
    """A cold ``state_at`` of the chain's ``epoch``."""
    return _calculation(scenario).state_at(_chain(scenario)[epoch].time_s)


def _machine(calculation, node):
    kind, shell, name = calculation.node_index.describe(node)
    if kind == "gst":
        return calculation.ground_station(name)
    return calculation.satellite(shell, name)


def _assert_row_answer(state, stats, machine_a, machine_b):
    """``state`` answers the pair as its source's full row does and keeps no
    row; returns the answer and the number of searches it took."""
    held = dict(state.paths._row_of)
    rows_solved = stats.rows_solved
    before = stats.bounded_searches
    found = state.path(machine_a, machine_b)
    tries = stats.bounded_searches - before
    delay = state.delay_ms(machine_a, machine_b)
    row = ShortestPaths(state.graph, [found.source]).path(found.source, found.target)
    assert found.delay_ms.hex() == row.delay_ms.hex() == delay.hex()
    assert found.hops == row.hops, f"hops differ on {found.source} → {found.target}"
    assert state.bandwidth_kbps(machine_a, machine_b) == state.bottleneck_kbps(row)
    assert stats.rows_solved == rows_solved and state.paths._row_of == held
    return found, tries


def _linked(graph):
    """Nodes with at least one link."""
    return np.unique(np.concatenate([graph.node_a, graph.node_b])).tolist()


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    epoch=st.integers(0, EPOCHS - 1),
    data=st.data(),
)
def test_a_bounded_answer_is_its_full_rows_on_cold_and_chained_states(scenario, epoch, data):
    calculation = _calculation(scenario)
    stats = calculation.path_engine.stats
    chained, cold = _chain(scenario)[epoch], _cold(scenario, epoch)
    index = calculation.node_index
    endpoint = st.one_of(
        st.sampled_from(list(index.ground_station_indices())),
        st.sampled_from(_linked(chained.graph)),
        st.integers(0, index.satellite_count - 1),
    )
    for _ in range(4):
        machine_a = _machine(calculation, data.draw(endpoint))
        machine_b = _machine(calculation, data.draw(endpoint))
        answer = _assert_row_answer(chained, stats, machine_a, machine_b)
        # The bound is the state's alone: a cold state searches alike.
        assert _assert_row_answer(cold, stats, machine_a, machine_b) == answer


def test_concurrent_pair_queries_answer_and_count_as_one_thread_does():
    """Threads asking pairs of one fresh state (its delay matrix not built
    yet) get the answers one thread gets, and no try goes uncounted."""
    calculation = ConstellationCalculation(SCENARIOS["dart"]())
    stats = calculation.path_engine.stats
    rng = np.random.default_rng(3)
    nodes = rng.choice(len(calculation.node_index), (24, 2)).tolist()
    pairs = [(_machine(calculation, a), _machine(calculation, b)) for a, b in nodes]
    reference = calculation.state_at(7.0)
    expected = [reference.path(*pair) for pair in pairs]
    one_thread = stats.bounded_searches  # the engine is this test's own
    state, threads_count = calculation.state_at(7.0), 8
    barrier = threading.Barrier(threads_count, timeout=60.0)
    answers = {}

    def ask(position):
        barrier.wait()
        for offset in range(len(pairs)):
            at = (position + offset) % len(pairs)
            answers[(position, at)] = state.path(*pairs[at])

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(threads_count)]
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
    assert len(answers) == threads_count * len(pairs)
    assert all(found == expected[at] for (_, at), found in answers.items())
    assert stats.bounded_searches - one_thread == threads_count * one_thread
    assert stats.rows_solved == 0 and state.paths._row_of == {}


class TestFixedPairs:
    def test_co_located_stations_start_from_their_cheapest_links(self):
        calculation = _calculation("west-africa")
        state = _chain("west-africa")[0]
        cloud = calculation.ground_station("johannesburg-cloud")
        tracking = calculation.ground_station("johannesburg-tracking")
        assert state._chord_ms(cloud, tracking) == 0.0
        found, tries = _assert_row_answer(state, calculation.path_engine.stats, cloud, tracking)
        assert found.reachable and found.hop_count >= 2
        assert 1 <= tries <= 2  # the chord alone would start the limit at 0

    def test_a_cross_shell_pair_goes_through_the_ground(self):
        calculation = _calculation("west-africa")
        state = _chain("west-africa")[3]
        low, high = calculation.satellite(0, 100), calculation.satellite(4, 300)
        found, tries = _assert_row_answer(state, calculation.path_engine.stats, low, high)
        assert found.reachable and tries >= 1
        assert any(calculation.node_index.is_ground_station(hop) for hop in found.hops)

    def test_an_unreachable_pair_is_certified_by_closing_its_component(self):
        """Iridium with its first plane cut off: both endpoints have links,
        so only the closure rule can prove the pair unreachable."""
        graph = _chain("dart")[0].graph
        island = np.isin(graph.node_a, range(11)), np.isin(graph.node_b, range(11))
        keep = island[0] == island[1]
        cut = NetworkGraph.from_edge_arrays(
            graph.index, graph.node_a[keep], graph.node_b[keep], graph.distances_km[keep],
            graph.delay_counts[keep], graph.bandwidths_kbps[keep], graph.link_type_codes[keep],
        )
        uplinks = cut.link_type_codes == _CODE_BY_LINK_TYPE[LinkType.UPLINK]
        satellite, station = int(cut.node_a[island[0][keep]][0]), int(cut.node_b[uplinks][0])
        engine = PathEngine()
        store = PathRows(cut, engine, list(graph.index.ground_station_indices()))
        for source, target in ((satellite, station), (station, satellite)):
            searches = engine.stats.bounded_searches
            found = store.pair_path(source, target, chord_ms=lambda: 0.0)
            assert found == ShortestPaths(cut, [source]).path(source, target)
            assert not found.reachable and engine.stats.bounded_searches > searches
        assert engine.stats.rows_solved == 0 and store._row_of == {}

    def test_a_self_pair_searches_nothing(self):
        calculation = _calculation("dart")
        state = _chain("dart")[2]
        stats = calculation.path_engine.stats
        for machine in (calculation.satellite(0, 17), calculation.ground_station("buoy-0")):
            node = state.node_for(machine)
            before = stats.snapshot()
            found = state.path(machine, machine)
            assert state.delay_ms(machine, machine) == state.bandwidth_kbps(machine, machine) == 0.0
            assert stats.snapshot() == before
            assert found == ShortestPaths(state.graph, [node]).path(node, node)

    def test_a_held_row_answers_without_a_search(self):
        calculation = _calculation("west-africa")
        state = calculation.state_at(_chain("west-africa")[1].time_s)  # a state of its own
        stats = calculation.path_engine.stats
        accra, satellite = calculation.ground_station("accra"), calculation.satellite(1, 12)
        source, target = state.node_for(accra), state.node_for(satellite)
        state.paths.delays_from(source)  # holds accra's row
        before = stats.snapshot()
        found = state.path(satellite, accra)
        assert state.delay_ms(satellite, accra) == found.delay_ms
        assert stats.snapshot() == before
        assert found == state.paths.path(source, target)
        assert found == ShortestPaths(state.graph, [source]).path(source, target)
