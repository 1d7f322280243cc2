"""Equivalence suite for the shortest-path engine.

The engine's contract is byte-identity: distances and reachability of a
table advanced across any chain of :class:`TopologyDiff`\\ s must equal a
cold ``ShortestPaths`` solve on the final graph bit for bit — across empty
diffs, delay-only jitter, structural churn (uplink handovers, link
flicker, full rewrites) and tables of foreign origin.  Predecessor trees
may differ only between equal-delay alternatives, which the
path-reconstruction check pins down: every reconstructed path must exist
edge-by-edge and its hop-delay sum must reproduce the reported distance
exactly.  ``PathEngine.advance_all`` has two outcomes per table — rebound
across a diff that changed no delay and no link, or a row slice of the
call's one stacked solve — and the suite pins the solver-call count of
each.
"""

import numpy as np
import pytest

from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import (
    LinkType,
    NetworkGraph,
    NodeIndex,
    PathEngine,
    ShortestPaths,
)
from repro.topology.graph import DELAY_EPSILON_MS


def _assert_tables_identical(table, graph, sources):
    """Byte-identical distances/reachability vs a cold solve, valid preds."""
    cold = ShortestPaths(graph, sources=sources)
    incremental = table._distances
    reference = cold._distances
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(incremental), finite)
    assert np.array_equal(incremental[finite], reference[finite])
    # Predecessors may differ from the cold solve only between equal-delay
    # paths: reconstructed paths must exist and re-sum to the distance.
    for row, source in enumerate(sources[:4]):
        for target in (0, incremental.shape[1] // 2, incremental.shape[1] - 1):
            result = table.path(source, target)
            if not result.reachable or len(result.hops) < 2:
                continue
            hops = np.asarray(result.hops, dtype=np.int64)
            edges = graph.edge_ids_between(hops[:-1], hops[1:])
            assert (edges >= 0).all()
            total = 0.0
            for edge in edges:
                total = total + max(float(graph.delays_ms[edge]), DELAY_EPSILON_MS)
            assert total == result.delay_ms


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
            index, node_a, node_b, delays * 300.0, delays,
            np.full(node_a.size, 1e4), np.zeros(node_a.size, np.int8),
        )

    def _mutated(self, rng, index, graph, kind):
        if kind == "empty":
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a, graph.node_b, graph.distances_km,
                graph.delays_ms.copy(), graph.bandwidths_kbps,
                graph.link_type_codes, structure_from=graph,
            )
        if kind == "bandwidth":
            bandwidths = graph.bandwidths_kbps.copy()
            bandwidths[rng.integers(0, bandwidths.size)] *= 2.0
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a, graph.node_b, graph.distances_km,
                graph.delays_ms.copy(), bandwidths, graph.link_type_codes,
                structure_from=graph,
            )
        if kind == "flicker":
            # One link drops out (the next "structural" epoch brings it back).
            alive = np.delete(
                np.arange(graph.total_links()), rng.integers(0, graph.total_links())
            )
            return NetworkGraph.from_edge_arrays(
                index, graph.node_a[alive], graph.node_b[alive],
                graph.distances_km[alive], graph.delays_ms[alive],
                graph.bandwidths_kbps[alive], graph.link_type_codes[alive],
            )
        delays = graph.delays_ms.copy()
        count = {"single": 1, "localized": rng.integers(1, 4)}.get(
            kind, rng.integers(1, graph.total_links())
        )
        touched = rng.choice(graph.total_links(), size=count, replace=False)
        delays[touched] = rng.uniform(0.5, 12.0, count)
        return NetworkGraph.from_edge_arrays(
            index, graph.node_a, graph.node_b, graph.distances_km, delays,
            graph.bandwidths_kbps, graph.link_type_codes, structure_from=graph,
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_mixed_chain_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        n_sat, n_gst = 40, 4
        index = NodeIndex([n_sat], [f"g{i}" for i in range(n_gst)])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        graph = self._random_graph(rng, index, n_sat, n_gst)
        table = engine.solve(graph)
        kinds = ["delay", "localized", "structural", "flicker", "empty", "bandwidth"]
        for _ in range(220):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "structural":
                new_graph = self._random_graph(rng, index, n_sat, n_gst)
            else:
                new_graph = self._mutated(rng, index, graph, kind)
            diff = new_graph.diff_from(graph)
            before = engine.stats.solver_calls
            table = engine.advance(table, new_graph, diff)
            if diff.is_empty:
                assert engine.stats.solver_calls == before
            _assert_tables_identical(table, new_graph, sources)
            graph = new_graph
        # The mix covers both outcomes: rebound epochs and solved ones.
        assert engine.stats.empty_reuses > 0
        assert engine.stats.solver_calls > 1

    def test_empty_diff_reuses_arrays_without_solving(self):
        rng = np.random.default_rng(0)
        index = NodeIndex([20], ["g0", "g1"])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        graph = self._random_graph(rng, index, 20, 2)
        table = engine.solve(graph)
        clone = self._mutated(rng, index, graph, "empty")
        diff = clone.diff_from(graph)
        assert diff.is_empty
        advanced = engine.advance(table, clone, diff)
        assert engine.stats.solver_calls == 1  # only the initial cold solve
        assert engine.stats.empty_reuses == 1
        assert advanced._distances is table._distances
        assert advanced._predecessors is table._predecessors
        assert advanced.graph is clone

    def test_bandwidth_only_diff_is_a_none_dispatch(self):
        rng = np.random.default_rng(1)
        index = NodeIndex([20], ["g0", "g1"])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        graph = self._random_graph(rng, index, 20, 2)
        table = engine.solve(graph)
        changed = self._mutated(rng, index, graph, "bandwidth")
        diff = changed.diff_from(graph)
        assert not diff.is_empty and diff.is_structural_noop
        advanced = engine.advance(table, changed, diff)
        assert engine.stats.solver_calls == 1
        assert advanced._distances is table._distances

    def test_incompatible_table_degrades_to_cold_solve(self):
        rng = np.random.default_rng(4)
        index = NodeIndex([20], ["g0", "g1"])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        graph = self._random_graph(rng, index, 20, 2)
        floyd = ShortestPaths(graph, sources=sources, method="floyd-warshall")
        changed = self._mutated(rng, index, graph, "delay")
        diff = changed.diff_from(graph)
        advanced = engine.advance(floyd, changed, diff)
        _assert_tables_identical(advanced, changed, sources)
        # A table from a foreign graph likewise cold-solves rather than
        # repairing against mismatched arrays.
        foreign = engine.advance(advanced, graph, diff)
        _assert_tables_identical(foreign, graph, sources)

    def test_isl_fault_injection_churn(self):
        """Forced structural churn: random ISL outages and recoveries.

        Models radiation/weather link faults on top of delay jitter: each
        epoch a fresh tenth of the links is down, so links keep dropping
        out and coming back and nodes lose and regain reachability.
        """
        rng = np.random.default_rng(7)
        n_sat, n_gst = 150, 3
        index = NodeIndex([n_sat], [f"g{i}" for i in range(n_gst)])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        full = self._random_graph(rng, index, n_sat, n_gst)
        graph = full
        table = engine.solve(graph)
        unreachable_epochs = 0
        for _ in range(200):
            up = np.flatnonzero(rng.random(full.total_links()) > 0.1)
            delays = full.delays_ms[up] * rng.uniform(0.9, 1.1, up.size)
            new_graph = NetworkGraph.from_edge_arrays(
                index, full.node_a[up], full.node_b[up], full.distances_km[up],
                delays, full.bandwidths_kbps[up], full.link_type_codes[up],
            )
            table = engine.advance(table, new_graph, new_graph.diff_from(graph))
            _assert_tables_identical(table, new_graph, sources)
            unreachable_epochs += int(not np.isfinite(table._distances).all())
            graph = new_graph
        assert 0 < unreachable_epochs < 200
        assert engine.stats.solver_calls == 1 + 200

    def test_wholesale_diffs_route_to_cold_solves(self):
        """Full-graph rewrites: exactly one solver call per epoch."""
        rng = np.random.default_rng(9)
        index = NodeIndex([30], ["g0", "g1", "g2", "g3"])
        sources = list(index.ground_station_indices())
        engine = PathEngine(sources=sources)
        graph = self._random_graph(rng, index, 30, 4)
        table = engine.solve(graph)
        for _ in range(30):
            new_graph = self._random_graph(rng, index, 30, 4)
            table = engine.advance(table, new_graph, new_graph.diff_from(graph))
            _assert_tables_identical(table, new_graph, sources)
            graph = new_graph
        assert engine.stats.solver_calls == 1 + 30


class TestEngineOnConstellations:
    """≥200-epoch incremental-vs-cold equivalence on real constellations."""

    def _run_chain(self, config, epochs, interval):
        calculation = ConstellationCalculation(config)
        sources = list(calculation.node_index.ground_station_indices())
        state = calculation.state_at(0.0)
        _assert_tables_identical(state.paths, state.graph, sources)
        for step in range(1, epochs + 1):
            state, _ = calculation.diff_since(state, step * interval)
            _assert_tables_identical(state.paths, state.graph, sources)
        return calculation, state

    def test_iridium_two_hundred_epochs(self):
        config = dart_configuration(buoy_count=5, sink_count=8, duration_s=7200.0)
        calculation, _ = self._run_chain(config, epochs=200, interval=30.0)
        # Every satellite moves every epoch, so every epoch is one solve.
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
        assert state2.paths._distances is state.paths._distances

    def test_extra_tables_ride_the_diff_pipeline(self):
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)
        calculation = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        a = calculation.satellite(0, 3)
        b = calculation.satellite(0, 40)
        first = state.delay_ms(a, b)  # creates a lazily cached extra table
        assert np.isfinite(first)
        node = state.node_for(a)
        assert node in state._extra_paths
        cold_solves = calculation.path_engine.stats.cold_solves
        state, _ = calculation.diff_since(state, 5.0)
        # The satellite table was advanced, not re-solved from scratch...
        assert node in state._extra_paths
        assert calculation.path_engine.stats.cold_solves == cold_solves
        # ...and answers byte-identically to a cold single-source solve.
        reference = ShortestPaths(state.graph, sources=[node])
        assert state.delay_ms(a, b) == reference.delay_ms(node, state.node_for(b))

    def test_more_than_thirty_two_extra_tables_are_carried(self):
        """The lifted cap carries well over 32 satellite tables per epoch."""
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)
        calculation = ConstellationCalculation(config)
        assert calculation.MAX_CARRIED_EXTRA_TABLES > 32
        state = calculation.state_at(0.0)
        probe = calculation.satellite(0, 0)
        satellites = [calculation.satellite(0, i) for i in range(1, 41)]
        for satellite in satellites:
            state.delay_ms(satellite, probe)  # creates a cached extra table
        assert len(state._extra_paths) == 40
        cold_solves = calculation.path_engine.stats.cold_solves
        state, _ = calculation.diff_since(state, 5.0)
        # Every table rode the diff pipeline (no cold re-solves) ...
        assert len(state._extra_paths) == 40
        assert calculation.path_engine.stats.cold_solves == cold_solves
        # ... and answers byte-identically to a cold single-source solve.
        for satellite in satellites[::13]:
            node = state.node_for(satellite)
            reference = ShortestPaths(state.graph, sources=[node])
            assert state.delay_ms(satellite, probe) == reference.delay_ms(
                node, state.node_for(probe)
            )

    def test_extra_table_cap_is_configurable_and_memory_bounded(self, monkeypatch):
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)
        monkeypatch.setattr(ConstellationCalculation, "MAX_CARRIED_EXTRA_TABLES", 2)
        limited = ConstellationCalculation(config)
        state = limited.state_at(0.0)
        probe = limited.satellite(0, 0)
        for i in range(1, 6):
            state.delay_ms(limited.satellite(0, i), probe)
        # The cap is enforced on insert (evicting as it goes), not just
        # at the epoch carry, so the cache never exceeds it intra-epoch.
        assert len(state._extra_paths) == 2
        assert limited.path_engine.stats.cache_evictions == 3
        state, _ = limited.diff_since(state, 5.0)
        assert len(state._extra_paths) == 2  # most recent two survive

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
        replayed = states[4].paths
        engine = PathEngine(sources=replayed.sources)
        for diff in diffs[5:]:
            replayed = engine.advance(replayed, diff.topology.current, diff.topology)
        sources = replayed.sources
        _assert_tables_identical(replayed, state.graph, sources)
        assert np.array_equal(replayed._distances, state.paths._distances)


def _iridium_graph():
    """The epoch-0 DART/Iridium graph and its ground-station sources."""
    config = dart_configuration(buoy_count=5, sink_count=8, duration_s=600.0)
    calculation = ConstellationCalculation(config)
    sources = list(calculation.node_index.ground_station_indices())
    return calculation.state_at(0.0).graph, sources


def _reweighted(graph, delays_ms, bandwidth_factor=1.0):
    """``graph``'s edge set with other delays (the same ones: an empty diff)."""
    return NetworkGraph.from_edge_arrays(
        graph.index, graph.node_a, graph.node_b, graph.distances_km,
        delays_ms, graph.bandwidths_kbps * bandwidth_factor,
        graph.link_type_codes, structure_from=graph,
    )


def _moving_starlink():
    """Lowest Starlink shell with 2 s epochs: every satellite moves."""
    config = west_africa_configuration(
        duration_s=600.0, shells="lowest", update_interval_s=2.0
    )
    calculation = ConstellationCalculation(config)
    return calculation, calculation.state_at(0.0)


def _assert_cold_bytes(table, graph):
    """Raw distance bytes (infs included) equal the table's cold solve."""
    cold = ShortestPaths(graph, sources=table.sources)
    assert table._distances.tobytes() == cold._distances.tobytes()


class TestAdvanceAll:
    """Per table: rebound, or a row slice of the call's one stacked solve."""

    @pytest.mark.parametrize("leg", ["none", "solve"])
    def test_mixed_call_lines_up_per_table(self, leg):
        """[floyd-origin, main, foreign-graph, extra] through one call."""
        full, sources = _iridium_graph()
        delays = full.delays_ms.copy()
        if leg == "solve":
            delays[::7] += 0.25
        new_graph = _reweighted(full, delays)
        diff = new_graph.diff_from(full)
        assert diff.is_empty == (leg == "none")
        engine = PathEngine()
        floyd = ShortestPaths(full, sources=sources[:3], method="floyd-warshall")
        main = engine.solve(full, sources=sources)
        foreign = ShortestPaths(new_graph, sources=[0])  # not the diff's previous
        extra = engine.solve(full, sources=[1])
        tables = [floyd, main, foreign, extra]
        before = engine.stats.snapshot()
        advanced = engine.advance_all(tables, new_graph, diff)
        delta = {
            key: value - before[key] for key, value in engine.stats.snapshot().items()
        }
        for table, result in zip(tables, advanced):
            assert result.graph is new_graph and result.sources == table.sources
            _assert_cold_bytes(result, new_graph)
        # One stacked solve for whatever could not be rebound — the
        # misfits ride along instead of being cold-solved one by one.
        assert delta["tables_advanced"] == 4
        assert delta["solver_calls"] == 1
        assert delta["cold_solves"] == 0
        if leg == "none":
            # Every table of the diff's previous graph is rebound: zero
            # copies; only the foreign one is solved.
            assert delta["empty_reuses"] == 3
            assert delta["rows_solved"] == 1
            for table, result in zip(tables, advanced):
                if table is not foreign:
                    assert result._distances is table._distances
                    assert result._predecessors is table._predecessors
        else:
            assert delta["empty_reuses"] == 0
            assert delta["rows_solved"] == 3 + len(sources) + 1 + 1
            assert all(result.method == "dijkstra" for result in advanced)

    def test_trivial_diff_rebinds_every_table(self):
        """Empty and bandwidth-only diffs reuse every table, zero solver work."""
        full, sources = _iridium_graph()
        engine = PathEngine()
        tables = [engine.solve(full, sources=s) for s in (sources, [0], [17], [40])]
        solver_calls = engine.stats.solver_calls
        widened = _reweighted(full, full.delays_ms, bandwidth_factor=2.0)
        for graph in (full, widened):
            advanced = engine.advance_all(tables, graph, graph.diff_from(full))
            assert engine.stats.solver_calls == solver_calls
            for before, after in zip(tables, advanced):
                assert after.graph is graph
                assert after._distances is before._distances

    def test_empty_table_list(self):
        engine = PathEngine()
        full, _ = _iridium_graph()
        assert engine.advance_all([], full, full.diff_from(full)) == []
        assert engine.stats.solver_calls == 0

    def test_single_row_table_on_moving_constellation(self):
        calculation, state = _moving_starlink()
        source = state.node_for(calculation.satellite(0, 7))
        engine = PathEngine()
        tables = [engine.solve(state.graph, sources=[source])]
        for step in range(1, 31):
            state, diff = calculation.diff_since(state, step * 2.0)
            tables = engine.advance_all(tables, state.graph, diff.topology)
            _assert_cold_bytes(tables[0], state.graph)
        assert engine.stats.solver_calls == 1 + 30

    def test_main_table_and_extras_share_one_solve_per_epoch(self):
        calculation, state = _moving_starlink()
        probe = calculation.satellite(0, 50)
        for identifier in (3, 400, 800, 1200):
            state.delay_ms(calculation.satellite(0, identifier), probe)
        stats = calculation.path_engine.stats
        for step in range(1, 9):
            before = stats.snapshot()
            state, _ = calculation.diff_since(state, step * 2.0)
            after = stats.snapshot()
            assert after["solver_calls"] - before["solver_calls"] == 1
            assert after["tables_advanced"] - before["tables_advanced"] == 5
            assert after["cold_solves"] == before["cold_solves"]
            assert len(state._extra_paths) == 4
            for table in [state.paths, *state._extra_paths.values()]:
                _assert_cold_bytes(table, state.graph)
                _assert_tables_identical(table, state.graph, table.sources)
