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

The third benchmark breaks down the shortest-path engine: paths are solved
on demand, so an epoch (``diff_since``) solves **zero** rows, the first
query of an epoch about a source solves that one row, and asking again
solves nothing; quiet steady-state epochs share every row and perform zero
Dijkstra solver calls.  Those counts are hard asserts.  The wall-clock
ratios (steady epochs ≥ 1.5× the rebuild, moving epochs no worse than 1.25×
of it) go through ``_harness.ratio_gate``.  The measurements, with the rows
solved per epoch on full Starlink (four station↔station queries per epoch)
and on the DART experiment, land in a ``BENCH_paths.json`` artifact (path
via the ``BENCH_PATHS_JSON`` environment variable) so the perf trajectory
is tracked across PRs.
"""

import itertools
import time as wallclock

import numpy as np

from _harness import merge_artifact, ratio_gate
from repro.core import ConstellationCalculation
from repro.scenarios import west_africa_configuration
from repro.topology import ShortestPaths

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

    # The two paths are timed epoch by epoch, alternating which goes first:
    # this class of box flips between a fast and a slow level from one
    # second to the next, and two back-to-back series would compare levels.
    full_seconds, diff_seconds, churn = [], [], []

    def time_full(time_s):
        started = wallclock.perf_counter()
        calculation.state_at(time_s)
        full_seconds.append(wallclock.perf_counter() - started)

    for step in range(2, rounds + 2):
        if step % 2:
            time_full(step * interval)
        started = wallclock.perf_counter()
        previous, diff = calculation.diff_since(previous, step * interval)
        diff_seconds.append(wallclock.perf_counter() - started)
        churn.append(diff.topology.structural_change_count)
        if not step % 2:
            time_full(step * interval)

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


def test_path_engine_breakdown_and_steady_state_speedup(dart_central_run):
    """Path-engine claims: rows on demand, zero-solve reuse, ≥1.5× steady state."""
    config = west_africa_configuration(
        duration_s=3600.0, shells="all", update_interval_s=1.0
    )
    interval = config.update_interval_s
    rounds = 20

    engine_calc = ConstellationCalculation(config)
    # The baseline is a fixture of this benchmark, not a production mode:
    # a second calculation that rebuilds every epoch from nothing.
    rebuild_calc = ConstellationCalculation(config)
    stations = list(engine_calc.node_index.ground_station_indices())
    rng = np.random.default_rng(7)

    # Warm-up: first full snapshot plus one epoch on each side, so
    # caches, visibility bounds and imports are all primed.
    engine_state = engine_calc.state_at(0.0)
    engine_state, _ = engine_calc.diff_since(engine_state, interval)
    rebuild_calc.state_at(0.0)
    rebuild_calc.state_at(interval)
    engine = engine_calc.path_engine
    engine.reset_stats()

    engine_seconds, rebuild_seconds, rows_per_epoch = [], [], []
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        engine_state, _ = engine_calc.diff_since(engine_state, step * interval)
        engine_seconds.append(wallclock.perf_counter() - started)
        # An epoch solves nothing; its queries solve one row per new source.
        assert engine.stats.rows_solved == sum(rows_per_epoch)
        asked = set()
        for _ in range(4):
            # What ConstellationState.delay_ms does, with the row it used.
            pair = rng.choice(stations, 2, replace=False)
            source, target = engine_state.paths.oriented(*pair)
            engine_state.paths.delay_ms(source, target)
            asked.add(source)
        rows_per_epoch.append(engine.stats.rows_solved - sum(rows_per_epoch))
        assert rows_per_epoch[-1] == len(asked)
    for step in range(2, rounds + 2):
        started = wallclock.perf_counter()
        rebuild_calc.state_at(step * interval)
        rebuild_seconds.append(wallclock.perf_counter() - started)
    engine_epoch_ms = float(np.median(engine_seconds)) * 1000.0
    rebuild_epoch_ms = float(np.median(rebuild_seconds)) * 1000.0
    churn_stats = engine.stats.snapshot()

    # Steady-state reuse epochs: advancing without observable change (the
    # share leg) must perform ZERO Dijkstra solver calls, keep the rows the
    # epoch was asked for, and beat the rebuilt epoch by ≥ 1.5×.
    time_s = (rounds + 1) * interval
    held = set(engine_state.paths._row_of)
    solver_calls_before = engine.stats.solver_calls
    reuse_seconds = []
    for _ in range(5):
        started = wallclock.perf_counter()
        engine_state, diff = engine_calc.diff_since(engine_state, time_s)
        reuse_seconds.append(wallclock.perf_counter() - started)
        assert diff.topology.is_empty
        assert set(engine_state.paths._row_of) == held
    reuse_epoch_ms = float(np.median(reuse_seconds)) * 1000.0
    assert engine.stats.solver_calls == solver_calls_before

    # Path-layer breakdown: cold solve of the station rows vs the engine's
    # empty-diff advance.
    graph = engine_state.graph
    sources = engine_state.paths.sources
    started = wallclock.perf_counter()
    for _ in range(5):
        ShortestPaths(graph, sources=sources)
    cold_solve_ms = (wallclock.perf_counter() - started) / 5 * 1000.0
    clone_diff = graph.diff_from(graph)
    started = wallclock.perf_counter()
    for _ in range(5):
        engine.advance_all(engine_state.paths, graph, clone_diff)
    empty_advance_ms = (wallclock.perf_counter() - started) / 5 * 1000.0

    dart = dart_central_run.testbed
    dart_rows = dart.path_engine_statistics()["totals"]["rows_solved"]
    results = {
        "scenario": "west-africa meetup, full phase-I Starlink (4,409 satellites)",
        "update_interval_s": interval,
        "ground_stations": len(sources),
        "cold_solve_ms": cold_solve_ms,
        "empty_advance_ms": empty_advance_ms,
        "engine_epoch_ms": engine_epoch_ms,
        "rebuild_epoch_ms": rebuild_epoch_ms,
        "steady_reuse_epoch_ms": reuse_epoch_ms,
        "speedup_steady_reuse": rebuild_epoch_ms / reuse_epoch_ms,
        "speedup_full_churn": rebuild_epoch_ms / engine_epoch_ms,
        "engine_stats": churn_stats,
        "rows_per_epoch": {
            "starlink_4_station_queries": rows_per_epoch,
            "dart_central_mean": dart_rows / dart.coordinator.stats.count,
        },
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
    print(
        f"rows solved per epoch: Starlink {np.mean(rows_per_epoch):.2f} "
        f"(4 station queries), DART {results['rows_per_epoch']['dart_central_mean']:.2f}"
    )
    merge_artifact("steady_state", results)

    # The engine's empty-diff advance is (near-)free compared to a solve.
    assert empty_advance_ms * 5.0 < cold_solve_ms
    # DART's pairs all contain the central station: about one row per epoch
    # (its first epoch with traffic asks pair by pair, one row per buoy).
    buoys = sum(name.startswith("buoy-") for name in dart.config.ground_station_names)
    assert dart_rows <= buoys + 2 * dart.coordinator.stats.count
    # Without a solve in either, the moving epoch must sit at rebuild
    # parity, and steady-state epochs beat the rebuild by a clear margin.
    ratio_gate("moving_epoch_vs_rebuild", engine_epoch_ms, rebuild_epoch_ms, 1 / 1.25)
    ratio_gate("steady_epoch_vs_rebuild", reuse_epoch_ms, rebuild_epoch_ms, 1.5)
