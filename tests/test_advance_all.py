"""Property suite for the epoch-batched multi-table advance path.

``PathEngine.advance_all`` advances the whole carried table set across
one diff by stacking every table's violated rows into one flat kernel
invocation.  Its contract is byte-identity with the per-table loop:
randomized ISL flicker plus uplink handover churn drives ≥50-epoch
chains on the Iridium and Starlink constellations, and after every epoch
every table's distances must match (a) a second engine advancing the
same tables one at a time through ``advance`` and (b) a cold
``csgraph.dijkstra`` solve — across all three kernel backends (the Numba
leg skips cleanly when the ``[fast]`` extra is absent).  The suite also
pins the batching itself (one kernel call per epoch instead of one per
table), the fallback legs (kernel disabled, incompatible tables, trivial
diffs) and the stateless routing rule that sends wholesale epochs to one
stacked solve.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churn_chains import FlickerChain
from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import PathEngine, ShortestPaths
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


def _churn_engine(backend):
    """An engine tuned so every affected row goes through the kernel."""
    engine = PathEngine(kernel_backend=backend)
    engine.solver_handoff_gain_ms = 0.0
    return engine


def _table_sources(name, rng, extra_tables=6):
    """The main ground-station source set plus satellite single-sources."""
    full, sources = _base_graph(name)
    satellites = np.setdiff1d(
        np.arange(len(full.index)), np.asarray(sources, dtype=np.int64)
    )
    extras = rng.choice(satellites, size=extra_tables, replace=False)
    return [list(sources)] + [[int(node)] for node in extras]


def _run_batched_chain(
    name, backend, seed, epochs, make_engine=_churn_engine, wholesale_every=0
):
    """Advance a multi-table set batched and per-table over one chain.

    The chain is repair-regime flicker (``FlickerChain``); with
    ``wholesale_every``, every that-many-th epoch moves every delay
    instead, which the routing rule sends to the stacked solve.
    """
    full, _ = _base_graph(name)
    rng = np.random.default_rng(seed)
    batched_engine = make_engine(backend)
    reference_engine = make_engine(backend)
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


class TestAdvanceAllFallbacks:
    """The legs that cannot batch must still match the per-table loop."""

    def test_mixed_regime_chain_stays_identical(self):
        """Wholesale epochs between flicker epochs: one decision per call."""
        batched, reference = _run_batched_chain(
            "iridium", "numpy", seed=7, epochs=30,
            make_engine=lambda backend: PathEngine(kernel_backend=backend),
            wholesale_every=3,
        )
        # Ten epochs moved every delay.  The batched engine routed each
        # once for the whole call, the per-table loop once per table.
        assert batched.stats.bypassed_epochs == 10
        assert reference.stats.bypassed_epochs == 10 * 7
        # The flicker epochs in between still took the repair path.
        assert batched.stats.kernel_calls > 0

    def test_kernel_disabled_delegates_per_table(self):
        """kernel_backend=None: advance_all is exactly the advance loop."""
        batched, reference = _run_batched_chain(
            "iridium", None, seed=11, epochs=10
        )
        assert batched.stats.batched_calls == 0
        assert batched.stats.kernel_calls == 0
        assert batched.stats.snapshot() == reference.stats.snapshot()

    def test_trivial_diff_rebinds_every_table(self):
        """An empty diff reuses every table with zero solver work."""
        full, _ = _base_graph("iridium")
        engine = _churn_engine("numpy")
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
        engine = _churn_engine("numpy")
        full, _ = _base_graph("iridium")
        assert engine.advance_all([], full, full.diff_from(full)) == []
