"""Differential-update equivalence suite.

The differential pipeline must be an observable no-op: N consecutive epochs
advanced via ``ConstellationCalculation.diff_since`` (and distributed as one
epoch record for every manager through ``Coordinator``/``MachineManager.apply_diff``)
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
    EpochRecord,
    GroundStationConfig,
    MachineManager,
    NetworkParams,
    ShellConfig,
)
from repro.hosts import Host
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import NetworkGraph, NodeIndex
from repro.topology.linkparams import DELAY_GRID_MS


def _assert_states_identical(full, incremental):
    """Byte-identical comparison of every observable state component."""
    g_full, g_inc = full.graph, incremental.graph
    assert np.array_equal(g_full.node_a, g_inc.node_a)
    assert np.array_equal(g_full.node_b, g_inc.node_b)
    assert np.array_equal(g_full.distances_km, g_inc.distances_km)
    assert np.array_equal(g_full.delays_ms, g_inc.delays_ms)
    assert np.array_equal(g_full.bandwidths_kbps, g_inc.bandwidths_kbps)
    assert np.array_equal(g_full.link_type_codes, g_inc.link_type_codes)
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
        assert diff.time_s == time_s
        structural_noops += diff.topology.structural_change_count == 0
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
        arrays, whether the epoch changed the edge set or not; each graph
        derives its own pair keys."""
        config = dart_configuration(buoy_count=6, sink_count=10, duration_s=120.0)
        reference = ConstellationCalculation(config)
        incremental = ConstellationCalculation(config)
        state = incremental.state_at(0.0)
        seen = set()
        for step in range(1, 30):
            previous, time_s = state, step * config.update_interval_s
            state, diff = incremental.diff_since(previous, time_s)
            structural = diff.topology.structural_change_count > 0
            assert state.graph._keys is not previous.graph._keys
            cold = reference.state_at(time_s).graph
            for name in (
                "node_a",
                "node_b",
                "distances_km",
                "delays_ms",
                "bandwidths_kbps",
                "link_type_codes",
            ):
                mine, theirs = getattr(state.graph, name), getattr(cold, name)
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes(), (name, time_s)
            seen.add(structural)
            if seen == {True, False}:
                break
        assert seen == {True, False}

    def test_after_a_gap_and_a_step_back_the_state_equals_the_cold_state(self):
        # diff_since computes the epoch without reading the previous one's
        # geometry, so neither a 30-minute gap nor a step back in time
        # changes a bit of the state.
        config = dart_configuration(buoy_count=4, sink_count=4, duration_s=120.0)
        calculation = ConstellationCalculation(config)
        reference = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        state, _ = calculation.diff_since(state, 1800.0)
        _assert_states_identical(reference.state_at(1800.0), state)
        state, _ = calculation.diff_since(state, 900.0)
        _assert_states_identical(reference.state_at(900.0), state)

    @pytest.mark.parametrize(
        "configuration",
        [
            lambda: west_africa_configuration(duration_s=3600.0, shells="all", use_bounding_box=True),
            lambda: west_africa_configuration(duration_s=3600.0, use_bounding_box=False),
            lambda: dart_configuration(buoy_count=6, sink_count=10, duration_s=3600.0),
            lambda: _iridium_box_config(update_interval_s=60.0, duration_s=3600.0),
        ],
        ids=["starlink_bbox", "starlink_two_lowest", "dart", "iridium_bbox"],
    )
    def test_the_state_does_not_depend_on_the_predecessor(self, configuration):
        # One epoch reached from the epoch before, from a 40-minute gap,
        # from a later epoch and from itself: the same state every time.
        config = configuration()
        time_s = 2400.0
        cold = ConstellationCalculation(config).state_at(time_s)
        calculation = ConstellationCalculation(config)
        for before_s in (time_s - config.update_interval_s, 0.0, time_s + 900.0, time_s):
            state, diff = calculation.diff_since(calculation.state_at(before_s), time_s)
            assert diff.time_s == time_s
            _assert_states_identical(cold, state)

    @pytest.mark.parametrize(
        "before_s", [2220.0, 0.0, 3300.0], ids=["one_epoch", "a_gap", "a_step_back"]
    )
    def test_the_diff_is_the_difference_of_the_two_cold_epochs(self, before_s):
        """The flips are the satellites whose cold box verdict differs
        between the two epochs and the added and removed links the cold
        link sets' differences, however far apart the epochs are."""
        config = _iridium_box_config(update_interval_s=60.0, duration_s=3600.0)
        time_s = 2280.0
        reference = ConstellationCalculation(config)
        was, now = reference.state_at(before_s), reference.state_at(time_s)
        calculation = ConstellationCalculation(config)
        _, diff = calculation.diff_since(calculation.state_at(before_s), time_s)

        for shell, active in now.active_satellites.items():
            expected = np.flatnonzero(active != was.active_satellites[shell])
            assert np.array_equal(diff.flipped[shell], expected)
        assert sum(ids.size for ids in diff.flipped.values()) > 0

        def pairs(graph, edges=slice(None)):
            return set(zip(graph.node_a[edges].tolist(), graph.node_b[edges].tolist()))

        assert pairs(now.graph, diff.topology.links_added) == pairs(now.graph) - pairs(was.graph)
        assert pairs(was.graph, diff.topology.links_removed) == pairs(was.graph) - pairs(now.graph)
        assert diff.topology.structural_change_count > 0

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
            (arrays[:, 2] / DELAY_GRID_MS).astype(np.uint32),
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
        assert not diff.is_empty and diff.structural_change_count > 0
        assert diff.change_count == 3

    def test_identical_graphs_diff_empty(self):
        index = NodeIndex([4], [])
        edges = [(0, 1, 1.0, 10.0), (1, 2, 2.0, 10.0)]
        a, b = self._graph(index, edges), self._graph(index, edges)
        diff = b.diff_from(a)
        assert diff.is_empty and diff.structural_change_count == 0

    def test_from_edge_arrays_takes_a_verified_order(self):
        """A graph stores its edges in the canonical order; a re-weighted
        table built from its columns, which are in that order, is verified
        and kept as given (views, not sorted copies), and builds its own
        matrix structure."""
        index = NodeIndex([4], [])
        base = self._graph(index, [(2, 1, 1.0, 10.0), (0, 1, 2.0, 10.0)])
        assert base.node_a.tolist() == [0, 1] and base.node_b.tolist() == [1, 2]
        assert base.delays_ms.tolist() == [2.0, 1.0]
        clone = NetworkGraph.from_edge_arrays(
            index,
            base.node_a,
            base.node_b,
            base.distances_km,
            base.delay_counts * np.uint32(2),
            base.bandwidths_kbps,
            base.link_type_codes,
        )
        for name in ("node_a", "node_b", "distances_km", "bandwidths_kbps", "link_type_codes"):
            assert np.shares_memory(getattr(clone, name), getattr(base, name)), name
        assert not clone.node_a.flags.writeable
        dense = clone.delay_matrix().toarray()
        assert dense[1, 2] == dense[2, 1] == 2.0 and dense[0, 1] == 4.0
        assert clone.diff_from(base).delay_changed.tolist() == [0, 1]

    def test_from_edge_arrays_rejects_duplicates(self):
        index = NodeIndex([4], [])
        with pytest.raises(ValueError, match="unique node pairs"):
            NetworkGraph.from_edge_arrays(
                index,
                np.array([0, 1]),
                np.array([1, 0]),
                np.ones(2),
                np.ones(2, dtype=np.uint32),
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


#: The coordinators the running test built: closed when it ends.
_built: list[Coordinator] = []


@pytest.fixture(autouse=True)
def _close_coordinators():
    yield
    while _built:
        _built.pop().close()


def _coordinator(config, host_count=3):
    calculation = ConstellationCalculation(config)
    managers = [
        MachineManager(Host(index=i, allow_memory_overcommit=True))
        for i in range(host_count)
    ]
    coordinator = Coordinator(config, calculation, ConstellationDatabase(), managers)
    _built.append(coordinator)
    coordinator.create_ground_stations(0.0)
    return coordinator, managers


def _full_replay(coordinator, time_s):
    """The oracle of one epoch: a cold state, a machine created for every
    active satellite, then a full :meth:`MachineManager.apply_state` sweep on
    every manager.  The coordinator only places machines and holds the
    state; its record path is not used."""
    state = coordinator.calculation.state_at(time_s)
    coordinator.database.set_state(state)
    for shell, active in state.active_satellites.items():
        for identifier in np.flatnonzero(active):
            machine = coordinator.calculation.satellite(shell, int(identifier))
            if not coordinator.has_machine(machine):
                coordinator.create_machine(machine, time_s)
    for manager in coordinator.managers:
        manager.apply_state(state, time_s)
    return state


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
        incremental, managers_inc = _coordinator(config)
        full, managers_full = _coordinator(config)
        for step in range(201):
            time_s = step * 60.0
            state_inc = incremental.update(time_s)
            state_full = _full_replay(full, time_s)
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
        assert len(incremental.stats.fanout_seconds) == incremental.stats.count == 201

    def test_dirty_machines_reconciled_after_fault_injection(self):
        config = _iridium_box_config(update_interval_s=60.0, duration_s=600.0)
        incremental, managers_inc = _coordinator(config)
        full, managers_full = _coordinator(config)
        incremental.update(0.0)
        _full_replay(full, 0.0)
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
        _full_replay(full, 60.0)
        for coordinator in (incremental, full):
            victim = coordinator.calculation.satellite(0, outside)
            machine = coordinator.manager_for(victim).machine(victim)
            assert machine.state.value == "suspended"

    def test_boot_all_outside_the_box_is_reconciled_like_a_full_replay(self):
        # A machine stopped as soon as it was created, carried across an
        # update (which clears its dirty mark) and only then rebooted while
        # outside the bounding box: it comes up RUNNING and the next update
        # must suspend it on the diff path exactly as the full replay does.
        config = _iridium_box_config(update_interval_s=60.0, duration_s=600.0)
        incremental, managers_inc = _coordinator(config)
        full, managers_full = _coordinator(config)
        incremental.update(0.0)
        _full_replay(full, 0.0)
        state = incremental.database.state
        outside = int(np.nonzero(~state.active_satellites[0])[0][0])
        oracle = lambda time_s: _full_replay(full, time_s)  # noqa: E731
        for coordinator, update in ((incremental, incremental.update), (full, oracle)):
            victim = coordinator.calculation.satellite(0, outside)
            assert not coordinator.has_machine(victim)
            coordinator.create_machine(victim, 10.0).stop_machine(victim, 10.0)
            update(60.0)
            assert coordinator.manager_for(victim).machine(victim).state.value == "stopped"
            coordinator.manager_for(victim).reboot_machine(victim, 70.0)
            update(120.0)
            assert not coordinator.database.state.active_satellites[victim.shell][victim.identifier]
            machine = coordinator.manager_for(victim).machine(victim)
            assert machine.state.value == "suspended"
        counters_inc = _suspend_resume_counters(managers_inc)
        assert counters_inc == _suspend_resume_counters(managers_full)
        assert sum(suspended for suspended, _ in counters_inc) >= 1
        assert _machine_states(managers_inc) == _machine_states(managers_full)


def _census(manager):
    """What a record can change on a manager: counters and machine states."""
    return (
        manager.suspension_count,
        manager.resume_count,
        {name: machine.state for name, machine in manager.host.machines.items()},
    )


class TestOneRecordForEveryManager:
    """Every manager gets the same record and applies only its own part."""

    def test_flips_of_other_hosts_change_nothing(self):
        config = _iridium_box_config(update_interval_s=60.0, duration_s=600.0)
        coordinator, managers = _coordinator(config)
        state = coordinator.update(0.0)
        hosted = {
            name: position
            for position, manager in enumerate(managers)
            for name in manager.host.machines
        }
        assert len(set(hosted.values())) == 3
        # Flip every satellite of manager 0, and every satellite no manager
        # hosts, on all three managers.
        flips = [
            identifier
            for identifier in range(state.active_satellites[0].size)
            if hosted.get(coordinator.calculation.satellite(0, identifier).name, 0) == 0
        ]
        active = {0: ~state.active_satellites[0]}
        record = EpochRecord(coordinator.database.epoch + 1, active, {0: np.array(flips)})
        before = [_census(manager) for manager in managers]
        for manager in managers[1:]:
            manager.apply_diff(record, 30.0)
        assert [_census(manager) for manager in managers[1:]] == before[1:]
        managers[0].apply_diff(record, 30.0)
        suspensions, resumes, states = _census(managers[0])
        satellites = [shell for shell in managers[0].host.machines.shells if shell >= 0]
        assert suspensions + resumes - sum(before[0][:2]) == len(satellites)
        assert states.keys() == before[0][2].keys()  # a record creates nothing

    def test_each_flip_is_applied_exactly_once_across_the_fleet(self):
        config = _iridium_box_config(update_interval_s=60.0, duration_s=6000.0)
        coordinator, managers = _coordinator(config)
        coordinator.update(0.0)
        applied = 0
        for step in range(1, 60):
            existing = {
                name: position
                for position, manager in enumerate(managers)
                for name in manager.host.machines
            }
            before = [_census(manager)[:2] for manager in managers]
            state = coordinator.update(step * 60.0)
            record = EpochRecord.of(
                coordinator.database.epoch, state, coordinator.database.latest_diff
            )
            expected = [0] * len(managers)
            for identifier in record.flips[0]:
                name = coordinator.calculation.satellite(0, int(identifier)).name
                if name in existing:  # a new machine boots running: no flip
                    expected[existing[name]] += 1
            transitions = [
                sum(_census(manager)[:2]) - sum(counts)
                for manager, counts in zip(managers, before)
            ]
            assert transitions == expected, step
            applied += sum(expected)
        assert applied > 20, "scenario too static to tell flips apart"
