"""§3.1 claim — a constellation-calculation update completes within one second.

"In our tests, these calculations could be completed within one second even
on a standard laptop."  The first benchmark times one full update (satellite
positions, ISL topology with line-of-sight checks, ground-station uplinks
and shortest paths) for the complete 4,409-satellite phase I Starlink
constellation with the §4 ground stations.

The second benchmark exercises the differential pipeline: for steady-state
epochs (consecutive updates at the configured interval, where only a
handful of uplinks appear/disappear) ``diff_since`` must beat the
full-rebuild ``state_at`` path while producing byte-identical state — it
reuses the previous epoch's certified visibility bounds, edge-structure
caches and CSR delay-matrix template instead of recomputing them.

The third benchmark breaks down the incremental shortest-path engine
(PR 3): a cold ``csgraph`` solve versus the engine's none / wholesale
dispatch, measured end-to-end against a full rebuild of every epoch
(``state_at``: fresh visibility, fresh graph, cold solve).  Its hard
properties are functional — quiet steady-state epochs perform **zero**
Dijkstra solver calls, every moving epoch is routed wholesale — and its
wall-clock ratios (steady epochs ≥ 1.5× the rebuild, moving epochs no
worse than 1.25× of it) go through ``_harness.ratio_gate``.  The
measurements land in a ``BENCH_paths.json`` artifact (path via the
``BENCH_PATHS_JSON`` environment variable) so the perf trajectory is
tracked across PRs.

The fourth benchmark targets churn epochs themselves (PR 7): a prebuilt
Starlink ISL-flicker chain (a couple of inter-satellite links drop out
each epoch and the previous epoch's casualties return) walked twice over
identical graphs — once advancing the table through the engine's
bounded regional re-solve kernel (:mod:`repro.topology._kernels`) and
once cold-solving every epoch, which is what a system without the engine
does.  The kernel leg must beat the cold one.  Its measurements merge
into the same ``BENCH_paths.json`` under a ``churn_epochs`` key.

The fifth benchmark scales the table count (PR 8): the same prebuilt
ISL-flicker chain advanced with 64 carried single-source tables plus the
ground-station table — once through one :meth:`PathEngine.advance_all`
call per epoch (shared per-epoch work computed once, every violated row
stacked into one kernel invocation) and once through the per-table
``advance`` loop.  The batched leg must finish its median epoch at least
twice as fast; measurements merge into ``BENCH_paths.json`` under an
``all_pairs`` key.

The sixth is report-only: the crossover sweep behind
``repro.topology.paths.WHOLESALE_SHARE``.  A growing share of ISL delays
is raised by one grid step and the same nine rows are advanced once
through the stacked bounded-repair path and once through the stacked
solve; both legs must equal the cold solve bit for bit, the timings go
to ``BENCH_paths.json`` under ``regime_crossover`` and gate nothing.
"""

import itertools
import time as wallclock

import numpy as np

from _harness import merge_artifact, ratio_gate
from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import NetworkGraph, PathEngine, ShortestPaths
from repro.topology.linkparams import DELAY_GRID_MS
from repro.topology.paths import WHOLESALE_SHARE

_times = itertools.count(start=1)


def test_constellation_update_under_one_second(benchmark):
    config = west_africa_configuration(duration_s=600.0, shells="all")
    calculation = ConstellationCalculation(config)

    def one_update():
        return calculation.state_at(float(next(_times)) * config.update_interval_s)

    state = benchmark(one_update)
    assert state.node_index.satellite_count == 4409
    assert state.graph.total_links() > 8000
    mean_seconds = benchmark.stats["mean"]
    print(f"\nmean update duration for 4,409 satellites: {mean_seconds * 1000:.1f} ms "
          f"(paper claim: < 1 s)")
    assert mean_seconds < 1.0


def test_diff_update_beats_full_rebuild():
    """Steady-state diff epochs must be faster than full rebuilds (full Starlink)."""
    config = west_africa_configuration(duration_s=3600.0, shells="all")
    calculation = ConstellationCalculation(config)
    interval = config.update_interval_s
    rounds = 25

    # Warm-up: first full snapshot plus one epoch of each path so caches,
    # visibility bounds and imports are all primed.
    previous = calculation.state_at(0.0)
    calculation.state_at(interval)
    previous, _ = calculation.diff_since(previous, interval)

    full_seconds = []
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        calculation.state_at(step * interval)
        full_seconds.append(wallclock.perf_counter() - started)

    diff_seconds = []
    churn = []
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        previous, diff = calculation.diff_since(previous, step * interval)
        diff_seconds.append(wallclock.perf_counter() - started)
        churn.append(diff.topology.structural_change_count)

    full_median = float(np.median(full_seconds))
    diff_median = float(np.median(diff_seconds))
    mean_churn = float(np.mean(churn))
    total_links = previous.graph.total_links()
    print(
        f"\nfull rebuild: {full_median * 1000:.2f} ms | diff path: "
        f"{diff_median * 1000:.2f} ms ({full_median / diff_median:.2f}x) | mean churn "
        f"{mean_churn:.1f} of {total_links} links per {interval:.0f} s epoch"
    )
    # Steady state: the structural churn is a tiny fraction of the edge set.
    assert mean_churn < total_links * 0.01
    # The differential path must win on wall-clock time; medians keep the
    # comparison robust to scheduler noise on shared CI runners.
    assert diff_median < full_median


def test_path_engine_breakdown_and_steady_state_speedup():
    """PR 3 path-engine claims: breakdown, zero-solve reuse, ≥1.5× steady state."""
    config = west_africa_configuration(
        duration_s=3600.0, shells="all", update_interval_s=1.0
    )
    interval = config.update_interval_s
    rounds = 20

    engine_calc = ConstellationCalculation(config)
    # The baseline is a fixture of this benchmark, not a production mode:
    # a second calculation that rebuilds every epoch from nothing.
    rebuild_calc = ConstellationCalculation(config)

    # Warm-up: first full snapshot plus one epoch on each side, so
    # caches, visibility bounds and imports are all primed.
    engine_state = engine_calc.state_at(0.0)
    engine_state, _ = engine_calc.diff_since(engine_state, interval)
    rebuild_calc.state_at(0.0)
    rebuild_calc.state_at(interval)
    engine_calc.path_engine.reset_stats()

    engine_seconds, rebuild_seconds = [], []
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        engine_state, _ = engine_calc.diff_since(engine_state, step * interval)
        engine_seconds.append(wallclock.perf_counter() - started)
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        rebuild_calc.state_at(step * interval)
        rebuild_seconds.append(wallclock.perf_counter() - started)
    engine_epoch_ms = float(np.median(engine_seconds)) * 1000.0
    rebuild_epoch_ms = float(np.median(rebuild_seconds)) * 1000.0
    churn_stats = engine_calc.path_engine.stats.snapshot()

    # Steady-state reuse epochs: advancing without observable change (the
    # "none" leg of the dispatch) must perform ZERO Dijkstra solver calls
    # and beat the rebuilt epoch by ≥ 1.5×.
    time_s = (rounds + 1) * interval
    solver_calls_before = engine_calc.path_engine.stats.solver_calls
    reuse_seconds = []
    for _ in range(5):
        started = wallclock.perf_counter()
        engine_state, diff = engine_calc.diff_since(engine_state, time_s)
        reuse_seconds.append(wallclock.perf_counter() - started)
        assert diff.topology.is_empty
    reuse_epoch_ms = float(np.median(reuse_seconds)) * 1000.0
    assert engine_calc.path_engine.stats.solver_calls == solver_calls_before

    # Path-layer breakdown: cold solve vs the engine's empty-diff advance.
    graph = engine_state.graph
    sources = engine_state.paths.sources
    started = wallclock.perf_counter()
    for _ in range(5):
        ShortestPaths(graph, sources=sources)
    cold_solve_ms = (wallclock.perf_counter() - started) / 5 * 1000.0
    engine = engine_calc.path_engine
    clone_diff = graph.diff_from(graph)
    started = wallclock.perf_counter()
    for _ in range(5):
        engine.advance(engine_state.paths, graph, clone_diff)
    empty_advance_ms = (wallclock.perf_counter() - started) / 5 * 1000.0

    results = {
        "scenario": "west-africa meetup, full phase-I Starlink (4,409 satellites)",
        "update_interval_s": interval,
        "path_sources": len(sources),
        "cold_solve_ms": cold_solve_ms,
        "empty_advance_ms": empty_advance_ms,
        "engine_epoch_ms": engine_epoch_ms,
        "rebuild_epoch_ms": rebuild_epoch_ms,
        "steady_reuse_epoch_ms": reuse_epoch_ms,
        "speedup_steady_reuse": rebuild_epoch_ms / reuse_epoch_ms,
        "speedup_full_churn": rebuild_epoch_ms / engine_epoch_ms,
        "engine_stats": churn_stats,
    }
    print()
    print(
        f"cold solve {cold_solve_ms:.2f} ms | empty-diff advance "
        f"{empty_advance_ms:.3f} ms ({cold_solve_ms / empty_advance_ms:.0f}x)"
    )
    print(
        f"epoch update — full rebuild {rebuild_epoch_ms:.2f} ms | engine "
        f"(churn) {engine_epoch_ms:.2f} ms ({results['speedup_full_churn']:.2f}x) "
        f"| engine (steady reuse) {reuse_epoch_ms:.2f} ms "
        f"({results['speedup_steady_reuse']:.2f}x)"
    )
    merge_artifact("steady_state", results)

    # The engine's empty-diff advance is (near-)free compared to a solve.
    assert empty_advance_ms * 5.0 < cold_solve_ms
    # Genuine wholesale route churn (every ISL delay moves every epoch and
    # handovers re-hang whole regions) is solver work no matter what; the
    # routing rule sends every such epoch straight to the solver ...
    assert churn_stats["bypassed_epochs"] == rounds
    # ... so the engine must sit at rebuild parity there, and steady-state
    # epochs beat the rebuild by a clear margin.
    ratio_gate("moving_epoch_vs_rebuild", engine_epoch_ms, rebuild_epoch_ms, 1 / 1.25)
    ratio_gate("steady_epoch_vs_rebuild", reuse_epoch_ms, rebuild_epoch_ms, 1.5)


def test_churn_epoch_flicker_speedup():
    """PR 7 kernel claim: ISL-flicker epochs beat a cold solve per epoch."""
    drops_per_epoch = 2
    epochs = 60

    config = west_africa_configuration(duration_s=600.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    full = calculation.state_at(0.0).graph
    sources = list(calculation.node_index.ground_station_indices())
    index = full.index
    total = full.total_links()
    isl_edges = np.flatnonzero(full.link_type_codes == 0)

    # Prebuild the chain so both legs advance through *identical* graphs
    # and diffs and only the engine dispatch is on the clock.  Each epoch
    # cuts its failures from the full graph, so the previous epoch's
    # failed links come back — link flicker, not monotone decay.
    rng = np.random.default_rng(20220711)
    graphs = [full]
    for _ in range(epochs):
        failed = rng.choice(isl_edges, size=drops_per_epoch, replace=False)
        alive = np.setdiff1d(np.arange(total), failed)
        graphs.append(NetworkGraph.from_edge_arrays(
            index,
            full.node_a[alive], full.node_b[alive],
            full.distances_km[alive], full.delays_ms[alive],
            full.bandwidths_kbps[alive], full.link_type_codes[alive],
        ))
    diffs = [graphs[i + 1].diff_from(graphs[i]) for i in range(epochs)]

    def kernel_leg():
        engine = PathEngine(sources=sources)
        table = engine.solve(graphs[0])
        seconds = []
        for i, diff in enumerate(diffs):
            started = wallclock.perf_counter()
            table = engine.advance(table, graphs[i + 1], diff)
            seconds.append(wallclock.perf_counter() - started)
        return float(np.median(seconds)) * 1000.0, engine

    def cold_leg():
        seconds = []
        for graph in graphs[1:]:
            started = wallclock.perf_counter()
            ShortestPaths(graph, sources=sources)
            seconds.append(wallclock.perf_counter() - started)
        return float(np.median(seconds)) * 1000.0

    # Warm-up pass per leg: the chain's graphs and diffs carry lazy
    # one-time caches (sorted key arrays, edge-id maps, CSR adjacency,
    # the solver's delay matrix) that whichever leg runs first would
    # otherwise pay for both.
    kernel_leg()
    cold_leg()
    kernel_epoch_ms, kernel_engine = kernel_leg()
    cold_epoch_ms = cold_leg()

    results = {
        "scenario": "two-lowest Starlink shells, ISL flicker",
        "nodes": len(full.index),
        "epochs": epochs,
        "isl_drops_per_epoch": drops_per_epoch,
        "kernel_backend": kernel_engine.kernel_backend,
        "kernel_epoch_ms": kernel_epoch_ms,
        "cold_epoch_ms": cold_epoch_ms,
        "speedup_vs_cold": cold_epoch_ms / kernel_epoch_ms,
        "kernel_stats": kernel_engine.stats.snapshot(),
    }
    print()
    print(
        f"churn epoch — cold solve {cold_epoch_ms:.2f} ms | "
        f"{kernel_engine.kernel_backend} kernel {kernel_epoch_ms:.2f} ms "
        f"({results['speedup_vs_cold']:.2f}x)"
    )
    merge_artifact("churn_epochs", results)

    # The chain must exercise the kernel: two dropped links sit far below
    # the wholesale share, so no epoch is routed to the stacked solve.
    assert kernel_engine.stats.bypassed_epochs == 0
    assert kernel_engine.stats.rows_kernel > 0
    # The claim: repairing a flicker epoch beats solving it cold, with
    # any available backend — the NumPy kernel alone must clear the bar.
    ratio_gate("flicker_epoch_kernel_vs_cold", kernel_epoch_ms, cold_epoch_ms, 1.0)


def test_all_pairs_epoch_speedup():
    """PR 8 batching claim: 64-table epochs run ≥ 2× the per-table loop."""
    drops_per_epoch = 2
    epochs = 30
    extra_tables = 64

    config = west_africa_configuration(duration_s=600.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    full = calculation.state_at(0.0).graph
    sources = list(calculation.node_index.ground_station_indices())
    index = full.index
    total = full.total_links()
    isl_edges = np.flatnonzero(full.link_type_codes == 0)

    # The all-pairs working set: the multi-source ground-station table
    # plus 64 single-source satellite tables, the shape the cost-aware
    # cache carries across epochs at its default cap.
    rng = np.random.default_rng(20220711)
    satellites = np.setdiff1d(
        np.arange(len(index)), np.asarray(sources, dtype=np.int64)
    )
    extras = rng.choice(satellites, size=extra_tables, replace=False)
    table_sources = [sources] + [[int(node)] for node in extras]

    # Prebuild the flicker chain (same idiom as the churn benchmark) so
    # both legs advance through identical graphs and diffs.
    graphs = [full]
    for _ in range(epochs):
        failed = rng.choice(isl_edges, size=drops_per_epoch, replace=False)
        alive = np.setdiff1d(np.arange(total), failed)
        graphs.append(NetworkGraph.from_edge_arrays(
            index,
            full.node_a[alive], full.node_b[alive],
            full.distances_km[alive], full.delays_ms[alive],
            full.bandwidths_kbps[alive], full.link_type_codes[alive],
        ))
    diffs = [graphs[i + 1].diff_from(graphs[i]) for i in range(epochs)]

    def batched_leg():
        engine = PathEngine(kernel_backend="auto")
        tables = [engine.solve(graphs[0], sources=s) for s in table_sources]
        seconds = []
        for i, diff in enumerate(diffs):
            started = wallclock.perf_counter()
            tables = engine.advance_all(tables, graphs[i + 1], diff)
            seconds.append(wallclock.perf_counter() - started)
        return float(np.median(seconds)) * 1000.0, engine

    def per_table_leg():
        engine = PathEngine(kernel_backend="auto")
        tables = [engine.solve(graphs[0], sources=s) for s in table_sources]
        seconds = []
        for i, diff in enumerate(diffs):
            started = wallclock.perf_counter()
            tables = [
                engine.advance(table, graphs[i + 1], diff) for table in tables
            ]
            seconds.append(wallclock.perf_counter() - started)
        return float(np.median(seconds)) * 1000.0, engine

    # Warm-up pass per leg (lazy graph/diff caches, imports, JIT).
    batched_leg()
    per_table_leg()
    batched_epoch_ms, batched_engine = batched_leg()
    per_table_epoch_ms, per_table_engine = per_table_leg()

    results = {
        "scenario": "two-lowest Starlink shells, ISL flicker, 65 tables",
        "nodes": len(full.index),
        "epochs": epochs,
        "tables": len(table_sources),
        "isl_drops_per_epoch": drops_per_epoch,
        "kernel_backend": batched_engine.kernel_backend,
        "batched_epoch_ms": batched_epoch_ms,
        "per_table_epoch_ms": per_table_epoch_ms,
        "speedup_vs_per_table": per_table_epoch_ms / batched_epoch_ms,
        "batched_stats": batched_engine.stats.snapshot(),
        "per_table_stats": per_table_engine.stats.snapshot(),
    }
    print()
    print(
        f"all-pairs epoch ({len(table_sources)} tables) — per-table loop "
        f"{per_table_epoch_ms:.2f} ms | batched {batched_epoch_ms:.2f} ms "
        f"({results['speedup_vs_per_table']:.2f}x)"
    )
    merge_artifact("all_pairs", results)

    # The chain must genuinely take the stacked repair path.
    assert batched_engine.stats.batched_calls > 0
    assert batched_engine.stats.batched_rows > 0
    # The tentpole claim: with 64+ carried tables, one batched advance
    # per epoch is at least twice as fast as the per-table loop.
    ratio_gate(
        "all_pairs_batched_vs_per_table", batched_epoch_ms, per_table_epoch_ms, 2.0
    )


def _crossover_rows(graph, table_sources, seed):
    """Repair path vs stacked solve over a growing share of raised ISLs."""
    rng = np.random.default_rng(seed)
    engine = PathEngine()
    tables = [engine.solve(graph, sources=s) for s in table_sources]
    for table in tables:
        # A steady chain arrives with its tree caches warm.
        table._tree_matrix_for(graph)
    isl_edges = np.flatnonzero(graph.link_type_codes == 0)
    rows = []
    for percent in (0.1, 0.5, 1, 2, 5, 10, 25):
        count = max(1, round(isl_edges.size * percent / 100))
        repair_seconds, solve_seconds = [], []
        for _ in range(7):
            delays = graph.delays_ms.copy()
            delays[rng.choice(isl_edges, size=count, replace=False)] += DELAY_GRID_MS
            raised_graph = NetworkGraph.from_edge_arrays(
                graph.index, graph.node_a, graph.node_b, graph.distances_km,
                delays, graph.bandwidths_kbps, graph.link_type_codes,
                structure_from=graph,
            )
            diff = raised_graph.diff_from(graph)
            weights = raised_graph.clamped_delays_ms()
            raised_graph.delay_matrix()  # shared by both legs, off the clock
            raised, decreased = engine._classify_changed(raised_graph, diff, weights)
            # Both legs are called directly, whatever the rule would pick.
            started = wallclock.perf_counter()
            repaired, _ = engine._advance_batch(
                tables, raised_graph, diff, weights, raised, decreased
            )
            repair_seconds.append(wallclock.perf_counter() - started)
            started = wallclock.perf_counter()
            solved = engine._solve_stacked(tables, raised_graph)
            solve_seconds.append(wallclock.perf_counter() - started)
            for sources, repaired_table, solved_table in zip(
                table_sources, repaired, solved
            ):
                cold = ShortestPaths(raised_graph, sources=sources)
                assert repaired_table._distances.tobytes() == cold._distances.tobytes()
                assert solved_table._distances.tobytes() == cold._distances.tobytes()
        rows.append({
            "raised_isl_percent": percent,
            "disturbed_share": count / graph.total_links(),
            "repair_ms": float(np.median(repair_seconds)) * 1000.0,
            "stacked_solve_ms": float(np.median(solve_seconds)) * 1000.0,
        })
    return rows


def test_regime_crossover_sweep():
    """Report-only: where the stacked solve overtakes the repair path."""
    results = {
        "wholesale_share": WHOLESALE_SHARE,
        "kernel_backend": PathEngine().kernel_backend,
    }
    scenarios = {
        "starlink": west_africa_configuration(duration_s=600.0, shells="all"),
        "iridium": dart_configuration("central", 40, 80, update_interval_s=1.0),
    }
    for name, config in scenarios.items():
        calculation = ConstellationCalculation(config)
        graph = calculation.state_at(0.0).graph
        sources = list(calculation.path_engine.sources)
        satellites = np.setdiff1d(np.arange(len(graph.index)), sources)
        extras = np.random.default_rng(20220711).choice(satellites, size=4, replace=False)
        table_sources = [sources] + [[int(node)] for node in extras]
        rows = _crossover_rows(graph, table_sources, seed=20220711)
        results[name] = {
            "nodes": len(graph.index),
            "links": graph.total_links(),
            "rows": sum(len(s) for s in table_sources),
            "sweep": rows,
        }
        print(f"\n{name}: {len(graph.index)} nodes, {graph.total_links()} links, "
              f"{results[name]['rows']} rows")
        for row in rows:
            print(
                f"  {row['raised_isl_percent']:5.1f} % of ISLs raised "
                f"(share {row['disturbed_share']:.4f}): repair "
                f"{row['repair_ms']:6.2f} ms | stacked solve "
                f"{row['stacked_solve_ms']:6.2f} ms"
            )
    merge_artifact("regime_crossover", results)
