"""Equivalence suite for the shortest-path engine and its row stores.

The contract is byte-identity: every row a :class:`PathRows` store solves,
on any graph of any chain of :class:`TopologyDiff`\\ s — empty diffs,
delay-only jitter, structural churn (uplink handovers, link flicker, ISL
faults, full rewrites) and stores of foreign origin — carries the distance
bits and the predecessors of a cold undirected ``csgraph.dijkstra`` on that
graph.  A store solves a row the first time a query needs it and never
twice; ``PathEngine.advance_all`` starts the next epoch's store empty
across any diff, and the suite pins the solver-call count of each.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.core import ConstellationCalculation
from repro.experiments import build
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import (
    LinkType,
    NetworkGraph,
    NodeIndex,
    PathEngine,
    PathRows,
    ShortestPaths,
)
from repro.topology.graph import _CODE_BY_LINK_TYPE
from repro.topology.linkparams import DELAY_GRID_MS


def _counts(delays_ms):
    """The delay-grid counts nearest to ``delays_ms``."""
    return np.rint(delays_ms / DELAY_GRID_MS).astype(np.uint32)


def _assert_rows_cold(store, sources=None):
    """The rows of ``sources`` (default: every held row) equal a cold solve.

    Rows not held yet are solved on the way, through the store's own
    batched lookup.
    """
    sources = list(store._row_of) if sources is None else list(sources)
    rows = store._rows_of(np.asarray(sources, dtype=np.int64))
    distances, predecessors = csgraph.dijkstra(
        store.graph.delay_matrix(), directed=False, indices=sources,
        return_predecessors=True,
    )
    assert store._distances[rows].tobytes() == distances.tobytes()
    assert np.array_equal(store._predecessors[rows], predecessors)


class TestEngineOnSyntheticChains:
    """Graph-level chains with adversarial epoch mixes."""

    def _random_graph(self, rng, index, n_sat, n_gst):
        n = len(index)
        ring_a = np.arange(n_sat)
        ring_b = (ring_a + 1) % n_sat
        chord_a = rng.integers(0, n_sat, 30)
        chord_b = (chord_a + rng.integers(2, 20, 30)) % n_sat
        gst = np.repeat(np.arange(n_sat, n), 3)
        sat = rng.integers(0, n_sat, n_gst * 3)
        node_a = np.concatenate([ring_a, chord_a, gst])
        node_b = np.concatenate([ring_b, chord_b, sat])
        keep = node_a != node_b
        node_a, node_b = node_a[keep], node_b[keep]
        keys = np.minimum(node_a, node_b) * n + np.maximum(node_a, node_b)
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)
        node_a, node_b = node_a[first], node_b[first]
        delays = rng.uniform(1.0, 10.0, node_a.size)
        return NetworkGraph.from_edge_arrays(
            index, node_a, node_b, delays * 300.0, _counts(delays),
            np.full(node_a.size, 1e4), np.zeros(node_a.size, np.int8),
        )

    def _mutated(self, rng, index, graph, kind):
        # Kinds that keep the edge table hand the graph its predecessor's
        # columns, already in the canonical order, which the constructor
        # verifies.
        if kind == "empty":
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a, graph.node_b, graph.distances_km,
                graph.delay_counts.copy(), graph.bandwidths_kbps,
                graph.link_type_codes,
            )
        if kind == "bandwidth":
            bandwidths = graph.bandwidths_kbps.copy()
            bandwidths[rng.integers(0, bandwidths.size)] *= 2.0
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a, graph.node_b, graph.distances_km,
                graph.delay_counts.copy(), bandwidths, graph.link_type_codes,
            )
        if kind == "flicker":
            # One link drops out (the next "structural" epoch brings it back).
            alive = np.delete(
                np.arange(graph.total_links()), rng.integers(0, graph.total_links())
            )
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a[alive], graph.node_b[alive],
                graph.distances_km[alive], graph.delay_counts[alive],
                graph.bandwidths_kbps[alive], graph.link_type_codes[alive],
            )
        delays = graph.delay_counts.copy()
        count = {"single": 1, "localized": rng.integers(1, 4)}.get(
            kind, rng.integers(1, graph.total_links())
        )
        touched = rng.choice(graph.total_links(), size=count, replace=False)
        delays[touched] = _counts(rng.uniform(0.5, 12.0, count))
        return NetworkGraph.from_edge_arrays(
            index, graph.node_a, graph.node_b, graph.distances_km, delays,
            graph.bandwidths_kbps, graph.link_type_codes,
        )

    def _store(self, n_sat, n_gst, seed):
        rng = np.random.default_rng(seed)
        index = NodeIndex([n_sat], [f"g{i}" for i in range(n_gst)])
        sources = list(index.ground_station_indices())
        engine = PathEngine()
        graph = self._random_graph(rng, index, n_sat, n_gst)
        return rng, index, sources, engine, PathRows(graph, engine, sources)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_mixed_chain_byte_identical(self, seed):
        rng, index, sources, engine, store = self._store(40, 4, seed)
        kinds = ["delay", "localized", "structural", "flicker", "empty", "bandwidth"]
        quiet = 0
        for _ in range(220):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "structural":
                new_graph = self._random_graph(rng, index, 40, 4)
            else:
                new_graph = self._mutated(rng, index, store.graph, kind)
            diff = new_graph.diff_from(store.graph)
            quiet += diff.structural_change_count == 0 and diff.delay_changed.size == 0
            before = engine.stats.solver_calls
            store = engine.advance_all(store, new_graph, diff)
            assert engine.stats.solver_calls == before
            assert store._row_of == {}
            # The stations plus a few random satellites, in one batch.
            asked = sources + rng.integers(0, 40, 3).tolist()
            _assert_rows_cold(store, asked)
        # The mix covers diffs that change no delay and no link: they start
        # empty too, and every epoch's batch is one solve.
        assert quiet > 0
        assert engine.stats.solver_calls == 220

    @pytest.mark.parametrize("kind", ["empty", "bandwidth"])
    def test_quiet_diff_starts_an_empty_store(self, kind):
        """A diff that changed no delay and no link carries no row either."""
        rng, index, sources, engine, store = self._store(20, 2, 0)
        for source in sources + [3]:
            store.delays_from(source)
        changed = self._mutated(rng, index, store.graph, kind)
        diff = changed.diff_from(store.graph)
        assert diff.structural_change_count == 0 and diff.delay_changed.size == 0
        advanced = engine.advance_all(store, changed, diff)
        assert engine.stats.solver_calls == 3  # only the queries' solves
        assert advanced.graph is changed and advanced._row_of == {}
        assert advanced.sources == store.sources
        # Rows solved afterwards on either store stay that store's own.
        advanced.delays_from(5)
        store.delays_from(7)
        assert sorted(advanced._row_of) == [5] and 5 not in store._row_of
        _assert_rows_cold(advanced)
        _assert_rows_cold(store)
        assert engine.stats.solver_calls == 5

    def test_incompatible_table_degrades_to_cold_solve(self):
        """A store that does not belong to the diff's previous graph starts empty."""
        rng, index, sources, engine, store = self._store(20, 2, 4)
        _assert_rows_cold(store, sources)
        clone = self._mutated(rng, index, store.graph, "empty")
        # An empty diff of two other graphs: the store's rows are not theirs.
        diff = clone.diff_from(clone)
        foreign = engine.advance_all(store, clone, diff)
        assert foreign._row_of == {}
        _assert_rows_cold(foreign, sources)
        assert engine.stats.solver_calls == 2

    def test_isl_fault_injection_churn(self):
        """Forced structural churn: random ISL outages and recoveries.

        Models radiation/weather link faults on top of delay jitter: each
        epoch a fresh tenth of the links is down, so links keep dropping
        out and coming back and nodes lose and regain reachability.
        """
        rng, index, sources, engine, store = self._store(150, 3, 7)
        full = store.graph
        _assert_rows_cold(store, sources)
        unreachable_epochs = 0
        for _ in range(200):
            up = np.flatnonzero(rng.random(full.total_links()) > 0.1)
            delays = _counts(full.delays_ms[up] * rng.uniform(0.9, 1.1, up.size))
            new_graph = NetworkGraph.from_edge_arrays(
                index, full.node_a[up], full.node_b[up], full.distances_km[up],
                delays, full.bandwidths_kbps[up], full.link_type_codes[up],
            )
            store = engine.advance_all(store, new_graph, new_graph.diff_from(store.graph))
            _assert_rows_cold(store, sources)
            unreachable_epochs += int(not np.isfinite(store._distances).all())
        assert 0 < unreachable_epochs < 200
        assert engine.stats.solver_calls == 1 + 200

    def test_wholesale_diffs_route_to_cold_solves(self):
        """Full-graph rewrites: each epoch starts empty, one solve per epoch."""
        rng, index, sources, engine, store = self._store(30, 4, 9)
        _assert_rows_cold(store, sources)
        for _ in range(30):
            new_graph = self._random_graph(rng, index, 30, 4)
            store = engine.advance_all(store, new_graph, new_graph.diff_from(store.graph))
            _assert_rows_cold(store, sources)
        assert engine.stats.solver_calls == 1 + 30


class TestEngineOnConstellations:
    """≥200-epoch incremental-vs-cold equivalence on real constellations."""

    def _run_chain(self, config, epochs, interval):
        calculation = ConstellationCalculation(config)
        sources = list(calculation.node_index.ground_station_indices())
        state = calculation.state_at(0.0)
        _assert_rows_cold(state.paths, sources)
        for step in range(1, epochs + 1):
            state, _ = calculation.diff_since(state, step * interval)
            assert state.paths._row_of == {}  # the epoch itself solves nothing
            _assert_rows_cold(state.paths, sources)
        return calculation, state

    def test_iridium_two_hundred_epochs(self):
        config = dart_configuration(buoy_count=5, sink_count=8, duration_s=7200.0)
        calculation, _ = self._run_chain(config, epochs=200, interval=30.0)
        # Every satellite moves every epoch: each epoch's batch is one solve.
        assert calculation.path_engine.stats.solver_calls == 1 + 200

    def test_starlink_two_hundred_epochs(self):
        config = west_africa_configuration(
            duration_s=7200.0, shells="two-lowest", update_interval_s=2.0
        )
        calculation, _ = self._run_chain(config, epochs=200, interval=2.0)
        assert calculation.path_engine.stats.solver_calls == 1 + 200

    def test_empty_diff_epoch_solves_nothing(self):
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)
        calculation = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        solver_calls = calculation.path_engine.stats.solver_calls
        # Same timestamp → byte-identical epoch arrays → empty diff.
        state2, diff = calculation.diff_since(state, 0.0)
        assert diff.topology.is_empty
        assert calculation.path_engine.stats.solver_calls == solver_calls
        assert state2.paths._row_of == {}

    def test_engine_survives_keyframe_replay(self):
        """A held full state can seed a replay of the diff chain after it."""
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)
        calculation = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        states, diffs = [state], [None]
        for step in range(1, 12):
            state, diff = calculation.diff_since(state, step * 5.0)
            states.append(state)
            diffs.append(diff)
        sources = states[4].paths.sources
        replayed = states[4].paths
        engine = PathEngine()
        for diff in diffs[5:]:
            replayed = engine.advance_all(replayed, diff.topology.current, diff.topology)
        assert replayed.graph is state.graph and replayed.sources == sources
        _assert_rows_cold(replayed, sources)
        assert np.array_equal(
            replayed.delays_between(np.array(sources), np.zeros(len(sources), np.int64)),
            state.paths.delays_between(np.array(sources), np.zeros(len(sources), np.int64)),
        )


def _iridium_graph():
    """The epoch-0 DART/Iridium graph and its ground-station sources."""
    config = dart_configuration(buoy_count=5, sink_count=8, duration_s=600.0)
    calculation = ConstellationCalculation(config)
    sources = list(calculation.node_index.ground_station_indices())
    return calculation.state_at(0.0).graph, sources


def _reweighted(graph, delay_counts, bandwidth_factor=1.0):
    """``graph``'s edge table with other delays and bandwidths (the same
    ones: an empty diff)."""
    return NetworkGraph.from_edge_arrays(
        graph.index, graph.node_a, graph.node_b, graph.distances_km,
        delay_counts, graph.bandwidths_kbps * bandwidth_factor,
        graph.link_type_codes,
    )


def _moving_starlink():
    """Lowest Starlink shell with 2 s epochs: every satellite moves."""
    config = west_africa_configuration(
        duration_s=600.0, shells="lowest", update_interval_s=2.0
    )
    calculation = ConstellationCalculation(config)
    return calculation, calculation.state_at(0.0)


class TestAdvanceAll:
    """Per diff: start empty, whatever the diff."""

    def test_trivial_diff_starts_every_store_empty(self):
        """Empty and bandwidth-only diffs carry no row, zero solver work."""
        full, sources = _iridium_graph()
        engine = PathEngine()
        store = PathRows(full, engine, sources)
        _assert_rows_cold(store, sources + [0, 17, 40])
        widened = _reweighted(full, full.delay_counts, bandwidth_factor=2.0)
        for graph in (full, widened):
            solver_calls = engine.stats.solver_calls
            advanced = engine.advance_all(store, graph, graph.diff_from(full))
            assert engine.stats.solver_calls == solver_calls
            assert advanced.graph is graph
            assert advanced._row_of == {}
            _assert_rows_cold(advanced, sources)

    def test_single_row_table_on_moving_constellation(self):
        calculation, state = _moving_starlink()
        source = state.node_for(calculation.satellite(0, 7))
        for step in range(31):
            if step:
                state, _ = calculation.diff_since(state, step * 2.0)
            state.paths.delays_from(source)
            state.paths.delays_from(source)  # held: no second solve
            _assert_rows_cold(state.paths)
        assert calculation.path_engine.stats.solver_calls == 1 + 30
        assert calculation.path_engine.stats.rows_solved == 1 + 30

    def test_main_table_and_extras_share_one_solve_per_epoch(self):
        """Station rows and satellite rows asked in one batch are one solve."""
        calculation, state = _moving_starlink()
        stations = state.paths.sources
        satellites = [state.node_for(calculation.satellite(0, i)) for i in range(0, 1500, 100)]
        # No endpoint is shared: station pairs root at the station, the
        # satellite pairs at their first satellite.
        nodes_a = stations + satellites[:4]
        nodes_b = satellites[4 : 4 + len(nodes_a)]
        stats = calculation.path_engine.stats
        for step in range(1, 9):
            state, _ = calculation.diff_since(state, step * 2.0)
            before = stats.snapshot()
            state.pair_metrics(nodes_a, nodes_b)
            after = stats.snapshot()
            assert after["solver_calls"] - before["solver_calls"] == 1
            assert after["rows_solved"] - before["rows_solved"] == len(nodes_a)
            assert sorted(state.paths._row_of) == sorted(nodes_a)
            _assert_rows_cold(state.paths)


def _severed(graph, rng, share=0.1):
    """``graph`` with a random ``share`` of its ISLs cut (a fault injection)."""
    isl = graph.link_type_codes == _CODE_BY_LINK_TYPE[LinkType.ISL]
    up = np.flatnonzero(~isl | (rng.random(graph.total_links()) > share))
    return NetworkGraph.from_edge_arrays(
        graph.index, graph.node_a[up], graph.node_b[up], graph.distances_km[up],
        graph.delay_counts[up], graph.bandwidths_kbps[up], graph.link_type_codes[up],
    )


class TestRowsOnDemand:
    """What a store solves: the rows it is asked for, once each, cold-identical."""

    @pytest.mark.parametrize(
        "constellation, severed",
        [("iridium", True), ("starlink", False)],
    )
    def test_asked_rows_match_a_cold_solve_and_are_solved_once(self, constellation, severed):
        if constellation == "iridium":
            config, interval = dart_configuration(buoy_count=5, sink_count=8), 20.0
        else:
            config = west_africa_configuration(shells="lowest", update_interval_s=2.0)
            interval = 2.0
        calculation = ConstellationCalculation(config)
        engine = calculation.path_engine
        rng = np.random.default_rng(5)
        stations = list(calculation.node_index.ground_station_indices())
        node_count = len(calculation.node_index)
        state = calculation.state_at(0.0)
        store = state.paths
        for epoch in range(41):
            if epoch:
                state, diff = calculation.diff_since(state, epoch * interval)
                if severed:
                    graph = _severed(state.graph, rng)
                    store = engine.advance_all(store, graph, graph.diff_from(store.graph))
                else:
                    store = state.paths
            assert store._row_of == {}
            before = engine.stats.rows_solved
            satellites = rng.integers(0, node_count - len(stations), 4).tolist()
            asked = set()
            for source in satellites + rng.choice(stations, 2).tolist() + satellites[:2]:
                target = int(rng.integers(0, node_count))
                store.delay_ms(source, target)
                store.path(source, target)
                asked.add(source)
            batch = np.array(satellites[1:] + stations[:3], dtype=np.int64)
            store.delays_between(batch, np.zeros(batch.size, np.int64))
            list(store.hop_steps(batch, np.full(batch.size, node_count - 1)))
            store.delays_from(stations[0])
            asked.update(batch.tolist(), [stations[0]])
            assert engine.stats.rows_solved - before == len(asked)
            assert set(store._row_of) == asked
            _assert_rows_cold(store)

    def test_concurrent_askers_solve_each_row_once(self):
        calculation, state = _moving_starlink()
        store = state.paths
        engine = calculation.path_engine
        sources = [state.node_for(calculation.satellite(0, i)) for i in range(0, 800, 100)]
        barrier = threading.Barrier(len(sources), timeout=60.0)
        answers = {}

        def ask(position):
            barrier.wait()
            # Each thread asks its own source first, then everyone else's.
            for source in sources[position:] + sources[:position]:
                answers[(position, source)] = (
                    store.delays_from(source), store.path(source, 0).hops
                )

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(sources))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == len(sources) ** 2
        assert engine.stats.rows_solved == len(sources)
        assert sorted(store._row_of) == sorted(sources)
        _assert_rows_cold(store)
        cold = ShortestPaths(state.graph, sources=sources)
        for (_, source), (delays, hops) in answers.items():
            assert delays.tobytes() == cold.delays_from(source).tobytes()
            assert hops == cold.path(source, 0).hops

    @pytest.mark.parametrize("scenario", ["iridium", "starlink-phase1"])
    def test_a_station_less_constellation_costs_what_it_is_asked(self, scenario):
        # starlink-phase1 has no station; Iridium's one is taken away.
        config = dataclasses.replace(build(scenario), ground_stations=())
        calculation = ConstellationCalculation(config)
        stats = calculation.path_engine.stats
        state = calculation.state_at(0.0)
        for step in range(1, 11):
            state, _ = calculation.diff_since(state, step * 2.0)
        assert stats.rows_solved == 0 and stats.solver_calls == 0
        a, b = calculation.satellite(0, 3), calculation.satellite(0, 40)
        assert state.delay_ms(a, b) < 1000.0
        searches = stats.bounded_searches
        assert searches >= 1
        assert state.path(b, a).hop_count >= 1  # a search of its own: no row was kept
        assert stats.bounded_searches >= searches + 1
        assert stats.rows_solved == 0 and state.paths._row_of == {}
        assert stats.solver_calls == stats.bounded_searches

    @pytest.mark.parametrize("machine", [("satellite", 0, 17), ("station", "buoy-0")])
    def test_a_machine_and_itself_solve_no_row(self, machine):
        """A self pair's answers are what a solved row gives — path ``(node,)``
        at 0 ms, delay 0, bottleneck 0 — without solving it."""
        calculation = ConstellationCalculation(dart_configuration(buoy_count=2, sink_count=2))
        kind, *name = machine
        identify = calculation.satellite if kind == "satellite" else calculation.ground_station
        machine = identify(*name)
        state = calculation.state_at(0.0)
        stats = calculation.path_engine.stats
        path = state.path(machine, machine)
        assert state.delay_ms(machine, machine) == state.bandwidth_kbps(machine, machine) == 0.0
        assert stats.solver_calls == 0 and state.paths._row_of == {}
        node = state.node_for(machine)
        cold = ShortestPaths(state.graph, [node]).path(node, node)
        assert path == state.paths.path(node, node) == cold
        assert path.hops == (node,) and path.delay_ms == 0.0 and stats.solver_calls == 1


class TestSourceChoice:
    """Which endpoint's row answers a pair (the module's four rules)."""

    @pytest.fixture
    def store(self):
        graph, stations = _iridium_graph()
        return PathRows(graph, PathEngine(), stations), stations

    def test_a_single_pair(self, store):
        store, stations = store
        station, other_station = stations[:2]
        assert store.oriented(3, station) == (station, 3)  # rule 3
        assert store.oriented(station, 3) == (station, 3)
        assert store.oriented(other_station, station) == (other_station, station)  # 4
        assert store.oriented(3, 40) == (3, 40)  # rule 4
        store.delays_from(40)
        assert store.oriented(3, 40) == (40, 3)  # rule 1 beats 4 ...
        assert store.oriented(station, 40) == (40, station)  # ... and 3
        assert store.oriented(40, 3) == (40, 3)
        # The scalar rule is the batch rule on a batch of one.
        for node_a, node_b in np.random.default_rng(2).choice(len(store.graph.index), (50, 2)):
            expected = store.orient(np.array([node_a]), np.array([node_b]))
            assert store.oriented(node_a, node_b) == (expected[0][0], expected[1][0])

    def test_a_batch(self, store):
        store, stations = store
        station, hub, other = stations[:3]
        nodes_a = np.array([station, hub, 5, 6, 7, 11])
        nodes_b = np.array([hub, 9, hub, hub, 10, other])
        sources, targets = store.orient(nodes_a, nodes_b)
        # The hub is shared by four pairs (rule 2, over a station too);
        # 7–10 tie and neither is a station (rule 4); 11–other tie and the
        # station wins (rule 3).
        assert sources.tolist() == [hub, hub, hub, hub, 7, other]
        assert targets.tolist() == [station, 9, 5, 6, 10, 11]
        store.delays_from(9)
        sources, _ = store.orient(nodes_a, nodes_b)
        assert sources[1] == 9  # rule 1 beats rule 2
        # Whichever row answers, a delay reads the same bits.
        assert np.array_equal(
            store.delays_between(*store.orient(nodes_a, nodes_b)),
            store.delays_between(nodes_a, nodes_b),
        )
