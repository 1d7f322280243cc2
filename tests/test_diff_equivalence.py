"""Differential-update equivalence suite.

The differential pipeline must be an observable no-op: N consecutive epochs
advanced via ``ConstellationCalculation.diff_since`` (and distributed as
sharded per-host slices through ``Coordinator``/``MachineManager.apply_diff``)
have to produce byte-identical constellation state — link arrays, delays,
bandwidths, shortest-path tables, uplink tables, bounding-box active sets —
and identical suspend/resume behaviour compared to rebuilding every epoch
from scratch with ``state_at`` and replaying it fully via ``apply_state``.
"""

import numpy as np
import pytest

from repro.core import (
    BoundingBox,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    GroundStationConfig,
    MachineManager,
    NetworkParams,
    ShellConfig,
)
from repro.hosts import Host
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import NetworkGraph, NodeIndex


def _assert_states_identical(full, incremental):
    """Byte-identical comparison of every observable state component."""
    g_full, g_inc = full.graph, incremental.graph
    assert np.array_equal(g_full.node_a, g_inc.node_a)
    assert np.array_equal(g_full.node_b, g_inc.node_b)
    assert np.array_equal(g_full.distances_km, g_inc.distances_km)
    assert np.array_equal(g_full.delays_ms, g_inc.delays_ms)
    assert np.array_equal(g_full.bandwidths_kbps, g_inc.bandwidths_kbps)
    assert np.array_equal(g_full.link_type_codes, g_inc.link_type_codes)
    assert full.gmst_rad == incremental.gmst_rad
    assert all(full.uplinks_of(n) == incremental.uplinks_of(n) for n in full.ground_positions_ecef)
    for shell in full.active_satellites:
        assert np.array_equal(
            full.active_satellites[shell], incremental.active_satellites[shell]
        )
        assert np.array_equal(
            full.satellite_positions_ecef[shell],
            incremental.satellite_positions_ecef[shell],
        )
    for source in full.node_index.ground_station_indices():
        assert np.array_equal(
            full.paths.delays_from(source), incremental.paths.delays_from(source)
        )


def _run_equivalence(config, epochs):
    reference = ConstellationCalculation(config)
    incremental = ConstellationCalculation(config)
    state = incremental.state_at(0.0)
    _assert_states_identical(reference.state_at(0.0), state)
    structural_noops = 0
    for step in range(1, epochs + 1):
        time_s = step * config.update_interval_s
        state, diff = incremental.diff_since(state, time_s)
        assert diff.previous_time_s == (step - 1) * config.update_interval_s
        assert diff.time_s == time_s
        structural_noops += diff.topology.is_structural_noop
        _assert_states_identical(reference.state_at(time_s), state)
    return structural_noops


class TestDiffSinceEquivalence:
    def test_iridium_ten_epochs(self):
        config = dart_configuration(buoy_count=6, sink_count=10, duration_s=120.0)
        _run_equivalence(config, epochs=10)

    def test_starlink_ten_epochs(self):
        config = west_africa_configuration(duration_s=60.0, shells="two-lowest")
        _run_equivalence(config, epochs=10)

    def test_cold_and_incremental_graphs_are_the_same_edge_table(self):
        """Both paths assemble the graph alike: equal bytes in all six edge
        arrays and the same canonical order, whether the epoch changed the
        edge set (structure rebuilt) or not (structure shared)."""
        config = dart_configuration(buoy_count=6, sink_count=10, duration_s=120.0)
        reference = ConstellationCalculation(config)
        incremental = ConstellationCalculation(config)
        state = incremental.state_at(0.0)
        seen = set()
        for step in range(1, 30):
            previous, time_s = state, step * config.update_interval_s
            state, diff = incremental.diff_since(previous, time_s)
            structural = not diff.topology.is_structural_noop
            shared = state.graph.sorted_edge_ids is previous.graph.sorted_edge_ids
            assert shared != structural
            cold = reference.state_at(time_s).graph
            for name in (
                "node_a",
                "node_b",
                "distances_km",
                "delays_ms",
                "bandwidths_kbps",
                "link_type_codes",
                "sorted_edge_ids",
            ):
                mine, theirs = getattr(state.graph, name), getattr(cold, name)
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes(), (name, time_s)
            seen.add(structural)
            if seen == {True, False}:
                break
        assert seen == {True, False}

    def test_large_time_gap_falls_back_gracefully(self):
        # A big Δt blows up the certified visibility margins so the diff
        # path degrades to the full evaluation — results must stay identical.
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=120.0)
        calculation = ConstellationCalculation(config)
        reference = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        state, _ = calculation.diff_since(state, 1800.0)
        _assert_states_identical(reference.state_at(1800.0), state)
        # Stepping backwards in time also only widens the margins.
        state, _ = calculation.diff_since(state, 900.0)
        _assert_states_identical(reference.state_at(900.0), state)

    def test_rejects_foreign_state(self):
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=60.0)
        state = ConstellationCalculation(config).state_at(0.0)
        other = ConstellationCalculation(config)
        with pytest.raises(ValueError):
            other.diff_since(state, 5.0)


class TestTopologyDiffPrimitive:
    def _graph(self, index, edges):
        arrays = np.array(edges, dtype=float).reshape(-1, 4)
        return NetworkGraph.from_edge_arrays(
            index,
            arrays[:, 0].astype(np.int64),
            arrays[:, 1].astype(np.int64),
            arrays[:, 2],
            arrays[:, 2],
            arrays[:, 3],
            np.zeros(len(arrays), dtype=np.int8),
        )

    def test_diff_categories(self):
        index = NodeIndex([6], [])
        old = self._graph(index, [(0, 1, 1.0, 10.0), (1, 2, 2.0, 10.0), (2, 3, 3.0, 10.0)])
        new = self._graph(index, [(0, 1, 1.0, 10.0), (1, 2, 2.5, 10.0), (3, 4, 4.0, 20.0)])
        diff = new.diff_from(old)

        def endpoints(graph, edges):
            return np.column_stack((graph.node_a[edges], graph.node_b[edges])).tolist()

        assert endpoints(new, diff.links_added) == [[3, 4]]
        assert endpoints(old, diff.links_removed) == [[2, 3]]
        assert endpoints(new, diff.delay_changed) == [[1, 2]]
        assert new.delays_ms[diff.delay_changed].tolist() == [2.5]
        assert diff.bandwidth_changed.size == 0
        assert not diff.is_empty and not diff.is_structural_noop
        assert diff.change_count == 3

    def test_identical_graphs_diff_empty(self):
        index = NodeIndex([4], [])
        edges = [(0, 1, 1.0, 10.0), (1, 2, 2.0, 10.0)]
        a, b = self._graph(index, edges), self._graph(index, edges)
        diff = b.diff_from(a)
        assert diff.is_empty and diff.is_structural_noop

    def test_from_edge_arrays_shares_structure(self):
        index = NodeIndex([4], [])
        base = self._graph(index, [(0, 1, 1.0, 10.0), (1, 2, 2.0, 10.0)])
        clone = NetworkGraph.from_edge_arrays(
            index,
            base.node_a,
            base.node_b,
            base.distances_km,
            base.delays_ms * 2.0,
            base.bandwidths_kbps,
            base.link_type_codes,
            structure_from=base,
        )
        assert clone.sorted_edge_ids is base.sorted_edge_ids
        assert clone._csr_template is base._csr_template
        dense = clone.delay_matrix().toarray()
        assert dense[0, 1] == 2.0 and dense[1, 2] == 4.0

    def test_from_edge_arrays_rejects_duplicates(self):
        index = NodeIndex([4], [])
        with pytest.raises(ValueError):
            NetworkGraph.from_edge_arrays(
                index,
                np.array([0, 1]),
                np.array([1, 0]),
                np.ones(2),
                np.ones(2),
                np.ones(2),
                np.zeros(2, dtype=np.int8),
            )


def _iridium_box_config(update_interval_s, duration_s):
    return Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(
                station=GroundStation("hawaii", 21.3, -157.9),
                compute=ComputeParams(vcpu_count=8, memory_mib=8192),
            ),
        ),
        bounding_box=BoundingBox(-35.0, 35.0, -180.0, -100.0),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
    )


def _coordinator(config, incremental, host_count=3):
    calculation = ConstellationCalculation(config)
    managers = [
        MachineManager(Host(index=i, allow_memory_overcommit=True))
        for i in range(host_count)
    ]
    coordinator = Coordinator(
        config,
        calculation,
        ConstellationDatabase(),
        managers,
        incremental=incremental,
    )
    coordinator.create_ground_stations(0.0)
    return coordinator, managers


def _suspend_resume_counters(managers):
    return sorted(
        (manager.suspension_count, manager.resume_count) for manager in managers
    )


def _machine_states(managers):
    return {
        name: machine.state
        for manager in managers
        for name, machine in manager.host.machines.items()
    }


class TestShardedCoordinatorEquivalence:
    def test_suspend_resume_and_machine_states_match_full_replay(self):
        # Long enough (two Iridium orbits) that satellites leave the box,
        # get suspended, come back and are resumed again.
        config = _iridium_box_config(update_interval_s=60.0, duration_s=12000.0)
        incremental, managers_inc = _coordinator(config, incremental=True)
        full, managers_full = _coordinator(config, incremental=False)
        for step in range(201):
            time_s = step * 60.0
            state_inc = incremental.update(time_s)
            state_full = full.update(time_s)
            for shell in state_full.active_satellites:
                assert np.array_equal(
                    state_full.active_satellites[shell],
                    state_inc.active_satellites[shell],
                )
        counters_inc = _suspend_resume_counters(managers_inc)
        assert counters_inc == _suspend_resume_counters(managers_full)
        assert sum(suspended for suspended, _ in counters_inc) > 0
        assert sum(resumed for _, resumed in counters_inc) > 0
        assert _machine_states(managers_inc) == _machine_states(managers_full)
        assert incremental.stats.diff_updates == 200
        assert incremental.stats.full_updates == 1

    def test_dirty_machines_reconciled_after_fault_injection(self):
        config = _iridium_box_config(update_interval_s=60.0, duration_s=600.0)
        incremental, managers_inc = _coordinator(config, incremental=True)
        full, managers_full = _coordinator(config, incremental=False)
        for coordinator in (incremental, full):
            coordinator.update(0.0)
        # Reboot a suspended (out-of-box) satellite: it comes back RUNNING
        # even though it is outside the box, and the next update must
        # suspend it again on both paths.
        state = incremental.database.state
        outside = int(np.nonzero(~state.active_satellites[0])[0][0])
        for coordinator in (incremental, full):
            victim = coordinator.calculation.satellite(0, outside)
            if not coordinator.has_machine(victim):
                coordinator.create_machine(victim, 10.0)
            coordinator.manager_for(victim).reboot_machine(victim, 20.0)
        incremental.update(60.0)
        full.update(60.0)
        for coordinator in (incremental, full):
            victim = coordinator.calculation.satellite(0, outside)
            machine = coordinator.manager_for(victim).machine(victim)
            assert machine.state.value == "suspended"


    def test_boot_all_outside_the_box_is_reconciled_like_a_full_replay(self):
        # A machine created unbooted, carried across an update (which clears
        # its dirty mark) and only then booted by boot_all while outside the
        # bounding box: it comes up RUNNING and the next update must suspend
        # it on the diff path exactly as the full replay does.
        config = _iridium_box_config(update_interval_s=60.0, duration_s=600.0)
        incremental, managers_inc = _coordinator(config, incremental=True)
        full, managers_full = _coordinator(config, incremental=False)
        for coordinator in (incremental, full):
            coordinator.update(0.0)
        state = incremental.database.state
        outside = int(np.nonzero(~state.active_satellites[0])[0][0])
        for coordinator in (incremental, full):
            victim = coordinator.calculation.satellite(0, outside)
            assert not coordinator.has_machine(victim)
            coordinator.create_machine(victim, 10.0, boot=False)
            coordinator.update(60.0)
            assert coordinator.manager_for(victim).machine(victim).state.value == "created"
            coordinator.manager_for(victim).boot_all(70.0)
            coordinator.update(120.0)
            assert not coordinator.database.state.is_active(victim)
            machine = coordinator.manager_for(victim).machine(victim)
            assert machine.state.value == "suspended"
        counters_inc = _suspend_resume_counters(managers_inc)
        assert counters_inc == _suspend_resume_counters(managers_full)
        assert sum(suspended for suspended, _ in counters_inc) >= 1
        assert _machine_states(managers_inc) == _machine_states(managers_full)
