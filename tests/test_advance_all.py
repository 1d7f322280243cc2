"""Property suite for the epoch-batched multi-table advance path.

``PathEngine.advance_all`` advances the whole carried table set across
one diff by stacking every table's violated rows into one flat kernel
invocation.  Its contract is that stacking changes no byte: randomized
ISL flicker plus uplink handover churn drives ≥50-epoch chains on the
Iridium and Starlink constellations, and after every epoch every table's
distances must match (a) a second engine advancing the same tables one
at a time (``advance``, i.e. ``advance_all`` on one table) and (b) a cold
``csgraph.dijkstra`` solve — across all three kernel backends (the Numba
leg skips cleanly when the ``[fast]`` extra is absent).  The suite also
pins the batching itself (one kernel call per epoch instead of one per
table), the legs that do not repair (incompatible tables, trivial diffs),
delay-only chains, and the stateless routing rule that sends wholesale
epochs to one stacked solve.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churn_chains import FlickerChain
from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import NetworkGraph, PathEngine, ShortestPaths
from repro.topology import _kernels
from repro.topology.graph import DELAY_EPSILON_MS
from repro.topology.paths import WHOLESALE_SHARE

#: Every backend the kernel seam offers; the Numba leg skips when the
#: ``[fast]`` extra is not installed instead of failing collection.
BACKENDS = [
    "numpy",
    "python",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            not _kernels.HAVE_NUMBA,
            reason="numba not installed (the optional [fast] extra)",
        ),
    ),
]


@functools.lru_cache(maxsize=None)
def _base_graph(name):
    """The epoch-0 constellation graph and its ground-station sources."""
    if name == "iridium":
        config = dart_configuration(buoy_count=5, sink_count=8, duration_s=600.0)
    else:
        config = west_africa_configuration(duration_s=600.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(0.0)
    sources = tuple(calculation.node_index.ground_station_indices())
    return state.graph, sources


def _assert_distances_identical(table, graph, sources):
    """Distances and reachability must match a cold solve bit for bit."""
    cold = ShortestPaths(graph, sources=list(sources))
    incremental = table._distances
    reference = cold._distances
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(incremental), finite)
    assert np.array_equal(incremental[finite], reference[finite])


def _table_sources(name, rng, extra_tables=6):
    """The main ground-station source set plus satellite single-sources."""
    full, sources = _base_graph(name)
    satellites = np.setdiff1d(
        np.arange(len(full.index)), np.asarray(sources, dtype=np.int64)
    )
    extras = rng.choice(satellites, size=extra_tables, replace=False)
    return [list(sources)] + [[int(node)] for node in extras]


def _run_batched_chain(name, backend, seed, epochs, wholesale_every=0):
    """Advance a multi-table set batched and per-table over one chain.

    The chain is repair-regime flicker (``FlickerChain``); with
    ``wholesale_every``, every that-many-th epoch moves every delay
    instead, which the routing rule sends to the stacked solve.
    """
    full, _ = _base_graph(name)
    rng = np.random.default_rng(seed)
    batched_engine = PathEngine(kernel_backend=backend)
    reference_engine = PathEngine(kernel_backend=backend)
    table_sources = _table_sources(name, rng)
    chain = FlickerChain(full, rng)
    batched = [batched_engine.solve(full, sources=s) for s in table_sources]
    reference = [reference_engine.solve(full, sources=s) for s in table_sources]
    for epoch in range(1, epochs + 1):
        graph = chain.graph
        if wholesale_every and epoch % wholesale_every == 0:
            new_graph = chain.move()
        else:
            new_graph = chain.step()
        diff = new_graph.diff_from(graph)
        batched = batched_engine.advance_all(batched, new_graph, diff)
        reference = [
            reference_engine.advance(table, new_graph, diff)
            for table in reference
        ]
        for sources, batched_table, reference_table in zip(
            table_sources, batched, reference
        ):
            # The batched path must equal the per-table loop bit for bit
            # (infs included — raw bytes), and both equal the cold solve.
            assert (
                batched_table._distances.tobytes()
                == reference_table._distances.tobytes()
            )
            _assert_distances_identical(batched_table, new_graph, sources)
    return batched_engine, reference_engine


class TestAdvanceAllByteIdentity:
    """≥50-epoch randomized churn chains, batched ≡ per-table ≡ cold."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_iridium_flicker_and_handover_churn(self, backend, seed):
        batched, reference = _run_batched_chain(
            "iridium", backend, seed, epochs=50
        )
        # The chain must genuinely exercise the stacked kernel path ...
        assert batched.stats.batched_calls > 0
        assert batched.stats.batched_rows > 0
        assert batched.stats.kernel_calls > 0
        # ... and collapse the per-table kernel calls into per-epoch ones.
        assert batched.stats.kernel_calls < reference.stats.kernel_calls
        assert batched.stats.rows_kernel == reference.stats.rows_kernel

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=1, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_starlink_flicker_and_handover_churn(self, backend, seed):
        batched, _ = _run_batched_chain("starlink", backend, seed, epochs=50)
        assert batched.stats.batched_calls > 0
        assert batched.stats.kernel_calls > 0


def _moving_starlink():
    """Lowest Starlink shell with 2 s epochs: every satellite moves."""
    config = west_africa_configuration(
        duration_s=600.0, shells="lowest", update_interval_s=2.0
    )
    calculation = ConstellationCalculation(config)
    return calculation, calculation.state_at(0.0)


def _assert_paths_resum(table, graph, stride=97):
    """Reconstructed paths exist hop by hop and re-sum to the distance."""
    for source in table.sources:
        for target in range(0, len(graph.index), stride):
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


class TestRoutingRule:
    """The stateless per-epoch rule: wholesale diffs → one stacked solve."""

    def test_single_row_table_on_moving_constellation_skips_the_kernel(self):
        calculation, state = _moving_starlink()
        source = state.node_for(calculation.satellite(0, 7))
        engine = PathEngine()
        tables = [engine.solve(state.graph, sources=[source])]
        for step in range(1, 31):
            state, diff = calculation.diff_since(state, step * 2.0)
            disturbed = diff.topology.links_removed.size
            assert disturbed < WHOLESALE_SHARE * diff.topology.previous.total_links()
            tables = engine.advance_all(tables, state.graph, diff.topology)
            cold = ShortestPaths(state.graph, sources=[source])
            assert tables[0]._distances.tobytes() == cold._distances.tobytes()
        # Handovers alone stay far below the share: it is the raised ISL
        # delays that route all thirty epochs wholesale.
        assert engine.stats.kernel_calls == 0
        assert engine.stats.bypassed_epochs == 30
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
            assert after["bypassed_epochs"] - before["bypassed_epochs"] == 1
            assert after["kernel_calls"] == before["kernel_calls"]
            assert len(state._extra_paths) == 4
            for table in [state.paths, *state._extra_paths.values()]:
                cold = ShortestPaths(state.graph, sources=table.sources)
                assert table._distances.tobytes() == cold._distances.tobytes()
                _assert_paths_resum(table, state.graph)

    def test_rule_is_stateless_across_alternating_epochs(self):
        """No hang-over: each epoch is routed by its own diff alone."""
        full, _ = _base_graph("starlink")
        rng = np.random.default_rng(17)
        table_sources = _table_sources("starlink", rng, extra_tables=2)
        chain = FlickerChain(full, rng)
        engine = PathEngine()
        tables = [engine.solve(full, sources=s) for s in table_sources]
        for epoch in range(8):
            wholesale = epoch % 2 == 0
            graph = chain.graph
            new_graph = chain.move() if wholesale else chain.step()
            before = engine.stats.snapshot()
            tables = engine.advance_all(tables, new_graph, new_graph.diff_from(graph))
            after = engine.stats.snapshot()
            delta = {key: after[key] - before[key] for key in after}
            if wholesale:
                assert (delta["bypassed_epochs"], delta["solver_calls"]) == (1, 1)
                assert delta["kernel_calls"] == 0
            else:
                assert delta["bypassed_epochs"] == 0
                assert delta["kernel_calls"] == 1
            for sources, table in zip(table_sources, tables):
                _assert_distances_identical(table, new_graph, sources)

    @pytest.mark.parametrize("wholesale", [True, False])
    def test_incompatible_tables_fall_back_alone(self, wholesale):
        full, sources = _base_graph("iridium")
        chain = FlickerChain(full, np.random.default_rng(23))
        engine = PathEngine()
        main = engine.solve(full, sources=list(sources))
        floyd = ShortestPaths(full, sources=list(sources[:3]), method="floyd-warshall")
        new_graph = chain.move() if wholesale else chain.step()
        # Bound to the epoch's *current* graph, not the diff's previous one.
        foreign = ShortestPaths(new_graph, sources=[0])
        before = engine.stats.snapshot()
        advanced = engine.advance_all(
            [floyd, main, foreign], new_graph, new_graph.diff_from(full)
        )
        after = engine.stats.snapshot()
        for table, expected in zip(advanced, (sources[:3], sources, [0])):
            assert table.method == "dijkstra"
            _assert_distances_identical(table, new_graph, expected)
        # Only the two misfits cold-solved; the main table took the
        # route the diff chose.
        assert after["cold_solves"] - before["cold_solves"] == 2
        assert after["tables_advanced"] - before["tables_advanced"] == 3
        assert after["bypassed_epochs"] - before["bypassed_epochs"] == int(wholesale)
        assert engine.last_advance_costs[0] == 4.0 * 3
        assert engine.last_advance_costs[2] == 4.0


class TestDelayOnlyChain:
    """Raised and decreased delays on a fixed edge set, below the share."""

    def test_only_the_trees_that_lost_an_edge_are_rewritten(self):
        full, _ = _base_graph("iridium")
        rng = np.random.default_rng(41)
        table_sources = _table_sources("iridium", rng, extra_tables=4)
        chain = FlickerChain(full, rng)
        engine = PathEngine()
        tables = [engine.solve(full, sources=s) for s in table_sources]
        spared_rows = 0
        for _ in range(40):
            graph = chain.graph
            new_graph = chain.jitter()
            diff = new_graph.diff_from(graph)
            assert diff.is_structural_noop and diff.delay_changed.size
            changed = diff.delay_changed
            raised = changed[new_graph.delays_ms[changed] > graph.delays_ms[changed]]
            advanced = engine.advance_all(tables, new_graph, diff)
            for sources, before, after in zip(table_sources, tables, advanced):
                cold = ShortestPaths(new_graph, sources=sources)
                assert after._distances.tobytes() == cold._distances.tobytes()
                _assert_paths_resum(after, new_graph, stride=1)
                for row in range(len(sources)):
                    parents = before._predecessors[row].astype(np.int64)
                    nodes = np.flatnonzero(parents >= 0)
                    tree = graph.edge_ids_between(parents[nodes], nodes)
                    if np.isin(tree, raised).any():
                        continue
                    # Nothing of this tree was invalidated: wherever no
                    # decreased delay improved a distance, the carried
                    # predecessor is still there.
                    kept = after._distances[row] == before._distances[row]
                    assert np.array_equal(
                        after._predecessors[row][kept], before._predecessors[row][kept]
                    )
                    spared_rows += int(kept.all())
            tables = advanced
        assert spared_rows > 0
        assert engine.stats.bypassed_epochs == 0
        assert engine.stats.repaired_epochs == 40
        assert engine.stats.structural_epochs == 0
        assert engine.stats.rows_kernel > 0


class TestAdvanceAllFallbacks:
    """The legs that do not repair must line up per table inside one call."""

    @pytest.mark.parametrize("leg", ["none", "repair"])
    def test_mixed_call_lines_up_per_table(self, leg):
        """[floyd, main, foreign-graph, extra] through one call."""
        full, sources = _base_graph("iridium")
        chain = FlickerChain(full, np.random.default_rng(29))
        if leg == "none":
            new_graph = NetworkGraph.from_edge_arrays(
                full.index, full.node_a, full.node_b, full.distances_km,
                full.delays_ms.copy(), full.bandwidths_kbps,
                full.link_type_codes, structure_from=full,
            )
        else:
            new_graph = chain.step()
        diff = new_graph.diff_from(full)
        assert diff.is_empty == (leg == "none")
        engine = PathEngine()
        floyd = ShortestPaths(full, sources=list(sources[:3]), method="floyd-warshall")
        main = engine.solve(full, sources=list(sources))
        foreign = ShortestPaths(new_graph, sources=[0])  # not the diff's previous
        extra = engine.solve(full, sources=[1])
        tables = [floyd, main, foreign, extra]
        before = engine.stats.snapshot()
        advanced = engine.advance_all(tables, new_graph, diff)
        delta = {
            key: value - before[key] for key, value in engine.stats.snapshot().items()
        }
        costs = engine.last_advance_costs
        for table, result in zip(tables, advanced):
            assert result.graph is new_graph and result.sources == table.sources
            _assert_distances_identical(result, new_graph, table.sources)
        # The two misfits are cold-solved alone, whatever the diff says.
        assert delta["tables_advanced"] == 4
        assert delta["cold_solves"] == 2
        assert (costs[0], costs[2]) == (4.0 * 3, 4.0)
        if leg == "none":
            # Zero copies, zero solver calls for the two that can be carried.
            assert delta["empty_reuses"] == 2
            assert delta["solver_calls"] == 2
            assert delta["batched_calls"] == 0
            assert (costs[1], costs[3]) == (0.0, 0.0)
            for table, result in ((main, advanced[1]), (extra, advanced[3])):
                assert result._distances is table._distances
                assert result._predecessors is table._predecessors
        else:
            assert delta["empty_reuses"] == 0
            assert delta["batched_calls"] == 1
            assert delta["batched_rows"] == len(sources) + 1
            repaired_rows_solved = delta["rows_solved"] - 4  # minus the cold rows
            assert costs[1] + costs[3] == delta["rows_kernel"] + 4.0 * repaired_rows_solved

    def test_mixed_regime_chain_stays_identical(self):
        """Wholesale epochs between flicker epochs: one decision per call."""
        batched, reference = _run_batched_chain(
            "iridium", "numpy", seed=7, epochs=30, wholesale_every=3,
        )
        # Ten epochs moved every delay.  The batched engine routed each
        # once for the whole call, the per-table loop once per table.
        assert batched.stats.bypassed_epochs == 10
        assert reference.stats.bypassed_epochs == 10 * 7
        # The flicker epochs in between still took the repair path.
        assert batched.stats.kernel_calls > 0

    def test_trivial_diff_rebinds_every_table(self):
        """An empty diff reuses every table with zero solver work."""
        full, _ = _base_graph("iridium")
        engine = PathEngine()
        rng = np.random.default_rng(3)
        tables = [
            engine.solve(full, sources=s)
            for s in _table_sources("iridium", rng, extra_tables=3)
        ]
        solver_calls = engine.stats.solver_calls
        advanced = engine.advance_all(tables, full, full.diff_from(full))
        assert engine.stats.solver_calls == solver_calls
        assert engine.stats.batched_calls == 0
        assert engine.last_advance_costs == [0.0] * len(tables)
        for before, after in zip(tables, advanced):
            assert after._distances is before._distances

    def test_advance_costs_attribute_work_per_table(self):
        """last_advance_costs is parallel to the input tables and ≥ 0."""
        batched, _ = _run_batched_chain("iridium", "numpy", seed=5, epochs=5)
        costs = batched.last_advance_costs
        assert len(costs) == 7  # main + 6 satellite tables
        assert all(cost >= 0.0 for cost in costs)

    def test_empty_table_list(self):
        engine = PathEngine()
        full, _ = _base_graph("iridium")
        assert engine.advance_all([], full, full.diff_from(full)) == []
