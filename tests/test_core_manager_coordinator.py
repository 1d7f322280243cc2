"""Unit tests for the machine manager, coordinator and fault injection."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundingBox,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    FaultInjector,
    GroundStationConfig,
    MachineManager,
    NetworkParams,
    RadiationModel,
    ShellConfig,
)
from repro.core.coordinator import STATS_SERIES_LENGTH, UpdateStats, least_reserved_placement
from repro.hosts import Host
from repro.microvm import MachineBatch, MachineState, MachineTable
from repro.orbits import GroundStation, ShellGeometry
from repro.sim import Simulation


def _config(bounding_box=None):
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
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9),
                                compute=ComputeParams(vcpu_count=8, memory_mib=8192)),
        ),
        bounding_box=bounding_box,
        update_interval_s=5.0,
        duration_s=60.0,
    )


#: The coordinators the running test built: closed when it ends.
_built: list[Coordinator] = []


@pytest.fixture(autouse=True)
def _close_coordinators():
    yield
    while _built:
        _built.pop().close()


def _coordinator(bounding_box=None, host_count=2):
    config = _config(bounding_box)
    calculation = ConstellationCalculation(config)
    database = ConstellationDatabase()
    managers = [MachineManager(Host(index=i, allow_memory_overcommit=True)) for i in range(host_count)]
    coordinator = Coordinator(config, calculation, database, managers)
    _built.append(coordinator)
    return config, calculation, database, managers, coordinator


def _create(manager, machine_id, compute, boot_s):
    """Create one machine on ``manager``, booted at ``boot_s``; returns its view."""
    manager.create_machines(
        MachineBatch.single(machine_id.name, machine_id.shell, machine_id.identifier, compute),
        boot_s,
    )
    return manager.machine(machine_id)


class TestMachineManager:
    def test_create_and_boot(self):
        config, calculation, _, managers, _ = _coordinator()
        manager = managers[0]
        machine_id = calculation.satellite(0, 5)
        microvm = _create(manager, machine_id, config.shells[0].compute, 1.0)
        assert microvm.state is MachineState.RUNNING
        assert microvm.state_at(1.01) is MachineState.BOOTING
        finished = microvm.boot_finished_at_s
        assert 1.0 < finished < 2.0
        assert manager.has_machine(machine_id)
        assert manager.is_running_at(machine_id, finished + 0.1)
        assert not manager.is_running_at(machine_id, 1.0 + 0.01)

    def test_boot_all(self):
        config, calculation, _, managers, _ = _coordinator()
        manager = managers[0]
        # One batch of three is one append, every row booted at its boot time.
        batch = MachineBatch(
            [calculation.satellite(0, identifier).name for identifier in range(3)],
            np.zeros(3, int), np.arange(3), np.zeros(3, int), (config.shells[0].compute,),
        )
        manager.create_machines(batch, 0.0)
        finished = max(manager.host.machines[name].boot_finished_at_s for name in batch.names)
        assert finished < 1.0
        assert manager.host.booted_machine_count() == 3

    def test_apply_state_suspends_out_of_box_satellites(self):
        box = BoundingBox(-20.0, 20.0, -180.0, -140.0)
        config, calculation, _, managers, coordinator = _coordinator(bounding_box=box)
        manager = managers[0]
        state = calculation.state_at(0.0)
        inside = int(np.nonzero(state.active_satellites[0])[0][0])
        outside = int(np.nonzero(~state.active_satellites[0])[0][0])
        for identifier in (inside, outside):
            _create(manager, calculation.satellite(0, identifier), config.shells[0].compute, 0.0)
        manager.apply_state(state, 10.0)
        assert manager.machine(calculation.satellite(0, inside)).state is MachineState.RUNNING
        assert manager.machine(calculation.satellite(0, outside)).state is MachineState.SUSPENDED
        assert manager.suspension_count == 1
        # When the satellite comes back into the box it is resumed: emulate a
        # later state in which the same satellite is active again.
        resumed_state = calculation.state_at(0.0)
        resumed_state.active_satellites[0][:] = True
        manager.apply_state(resumed_state, 20.0)
        assert manager.machine(calculation.satellite(0, outside)).state is MachineState.RUNNING
        assert manager.resume_count == 1

    def test_runtime_control(self):
        config, calculation, _, managers, _ = _coordinator()
        manager = managers[0]
        machine_id = calculation.satellite(0, 2)
        _create(manager, machine_id, config.shells[0].compute, 0.0)
        manager.set_cpu_quota(machine_id, 0.5)
        assert manager.machine(machine_id).cpu_quota.quota_fraction == 0.5
        manager.set_busy_fraction(machine_id, 0.8)
        manager.stop_machine(machine_id, 5.0)
        assert not manager.is_running_at(machine_id, 6.0)
        manager.reboot_machine(machine_id, 7.0)
        assert manager.is_running_at(machine_id, 8.5)
        sample = manager.sample_usage(10.0)
        assert sample.firecracker_processes == 1


class TestCoordinator:
    def test_lazy_satellite_creation_without_box(self):
        _, _, database, managers, coordinator = _coordinator()
        coordinator.create_ground_stations(0.0)
        coordinator.update(0.0)
        assert database.has_state
        created = sum(len(manager.host.machines) for manager in managers)
        # All 66 satellites plus the ground station get microVMs.
        assert created == 67

    def test_lazy_satellite_creation_with_box(self):
        box = BoundingBox(-20.0, 20.0, -180.0, -140.0)
        _, _, _, managers, coordinator = _coordinator(bounding_box=box)
        coordinator.create_ground_stations(0.0)
        state = coordinator.update(0.0)
        created = sum(len(manager.host.machines) for manager in managers)
        assert created == state.active_count() + 1
        assert created < 67

    def test_machines_spread_across_hosts(self):
        _, _, _, managers, coordinator = _coordinator(host_count=2)
        coordinator.create_ground_stations(0.0)
        coordinator.update(0.0)
        counts = [len(manager.host.machines) for manager in managers]
        assert all(count > 0 for count in counts)
        assert sum(counts) == 67
        # Placement balances reserved memory, not machine counts.
        memory = [manager.host.reserved_memory_mib() for manager in managers]
        assert abs(memory[0] - memory[1]) <= 8192.0

    def test_placement_reads_running_totals(self, monkeypatch):
        # Two shells with different machine sizes: 120 + 80 satellites.
        shells = tuple(
            ShellConfig(
                name=name,
                geometry=ShellGeometry(planes, 10, altitude, 53.0, 360.0),
                network=NetworkParams(min_elevation_deg=25.0),
                compute=ComputeParams(vcpu_count=1, memory_mib=memory),
            )
            for name, planes, altitude, memory in (("a", 12, 550.0, 1024), ("b", 8, 600.0, 768))
        )
        config = Configuration(shells=shells, update_interval_s=5.0, duration_s=60.0)
        calculation = ConstellationCalculation(config)

        walks = []
        monkeypatch.setattr(MachineTable, "__iter__", lambda table: walks.append(table) or iter(()))
        managers = [MachineManager(Host(index=i, memory_mib=1 << 20)) for i in range(4)]
        coordinator = Coordinator(config, calculation, ConstellationDatabase(), managers)
        _built.append(coordinator)
        # Interleave the shells so machine sizes alternate.
        order = [
            calculation.satellite(shell, identifier)
            for identifier in range(120)
            for shell in (0, 1)
            if identifier < (120, 80)[shell]
        ]
        assert len(order) == 200
        reference_memory = [0] * 4
        for machine in order:
            expected = min(range(4), key=lambda i: reference_memory[i])
            reference_memory[expected] += config.shells[machine.shell].compute.memory_mib
            manager = coordinator.create_machine(machine, 0.0)
            assert manager.host.index == expected
        assert walks == []
        for manager, reserved in zip(managers, reference_memory):
            assert manager.host.reserved_memory_mib() == float(reserved)
            assert reserved == sum(manager.host.machines.memory_mib)

    def test_manager_for_unknown_machine(self):
        _, calculation, _, _, coordinator = _coordinator()
        with pytest.raises(KeyError):
            coordinator.manager_for(calculation.satellite(0, 0))

    def test_run_updates_process(self):
        config, _, database, _, coordinator = _coordinator()
        sim = Simulation()
        coordinator.create_ground_stations(0.0)
        sim.process(coordinator.run_updates(sim, duration_s=20.0))
        sim.run()
        # Updates at t = 0, 5, 10, 15, 20.
        assert coordinator.stats.count == len(coordinator.stats.fanout_seconds) == 5
        assert database.state.time_s == 20.0
        assert min(coordinator.stats.fanout_seconds) > 0.0

    def test_update_stats_series_are_bounded_and_totals_cover_the_run(self):
        """A long serving run keeps the latest 4,096 entries per series;
        the count still covers every epoch."""
        stats = UpdateStats()
        durations = [((step * 37) % 101 + 1) * 1e-4 for step in range(5000)]
        for step, seconds in enumerate(durations):
            stats.record_update(seconds)
            stats.sample_seconds.append(seconds)
            stats.worker_ack_seconds[step % 2].append(seconds)
            stats.worker_ack_seconds[step % 2].append(seconds)
        assert STATS_SERIES_LENGTH == 4096
        for series in (
            stats.fanout_seconds,
            stats.sample_seconds,
            *stats.worker_ack_seconds.values(),
        ):
            assert len(series) == 4096
        assert list(stats.fanout_seconds) == durations[-4096:]
        assert stats.count == 5000


def _per_machine_placement(reserved, memories):
    """The rule one machine at a time: least reserved memory, ties to the lowest position."""
    reserved = list(reserved)
    positions = []
    for memory in memories:
        position = min(range(len(reserved)), key=reserved.__getitem__)
        positions.append(position)
        reserved[position] += memory
    return positions


class TestBatchPlacement:
    @settings(max_examples=300, deadline=None)
    @given(
        reserved=st.lists(st.integers(0, 16).map(lambda units: 512 * units), min_size=1, max_size=4),
        # Runs of satellites of one shell (512 / 1,024 MiB) among ground
        # stations (4,096 / 8,192 MiB).
        runs=st.lists(
            st.tuples(st.sampled_from([512, 1024, 4096, 8192]), st.integers(1, 40)), max_size=8
        ),
    )
    def test_batch_placement_equals_the_per_machine_rule(self, reserved, runs):
        memories = [memory for memory, count in runs for _ in range(count)]
        placed = least_reserved_placement(reserved, np.array(memories, dtype=np.int64))
        assert placed.tolist() == _per_machine_placement(reserved, memories)

    @pytest.mark.parametrize("host_count", [1, 3, 4])
    def test_a_batch_is_the_machines_created_one_by_one(self, host_count):
        # The set-up epoch's one batch against the same machines created one
        # at a time, in the batch's order: same hosts, rows, seeds and states.
        batched = _coordinator(host_count=host_count)[-1]
        single = _coordinator(host_count=host_count)[-1]
        batched.create_ground_stations(0.0)
        batched.update(0.0)
        for machine in batched.calculation.machines():
            if machine.is_ground_station:
                single.create_machine(machine, 0.0)
        for machine in batched.calculation.machines():
            if not machine.is_ground_station:
                single.create_machine(machine, 0.0)
        single.update(0.0)

        def rows(coordinator):
            return [
                (
                    manager.host.index,
                    list(manager.host.machines.names),
                    list(manager.host.machines.seeds),
                    list(manager.host.machines.states),
                    list(manager.host.machines.boot_counts),
                )
                for manager in coordinator.managers
            ]

        assert rows(batched) == rows(single)
        assert sum(len(manager.host.machines) for manager in batched.managers) == 67


class TestCoordinatorClose:
    def test_the_default_backend_starts_no_thread(self):
        """Hosts are accounting: ``parallelism="threads"`` is a loop over
        the managers, so a whole run leaves ``threading.enumerate()`` as it
        found it, and ``close`` has nothing to join."""
        before = threading.enumerate()
        *_, managers, coordinator = _coordinator()
        assert coordinator.parallelism == "threads" and len(managers) >= 2
        coordinator.create_ground_stations(0.0)
        for step in range(3):
            coordinator.update(5.0 * step)
            assert len(coordinator.sample_all_usage(5.0 * step)) == len(managers)
            assert threading.enumerate() == before
        coordinator.close()
        coordinator.close()  # idempotent
        assert threading.enumerate() == before
        # Use after close is answered like the process backend answers it.
        with pytest.raises(RuntimeError, match="closed"):
            coordinator.sample_all_usage(15.0)
        with pytest.raises(RuntimeError, match="closed"):
            coordinator.update(15.0)


class TestFaultInjection:
    def test_terminate_and_reboot(self):
        config, calculation, _, managers, coordinator = _coordinator()
        coordinator.create_ground_stations(0.0)
        coordinator.update(0.0)
        injector = FaultInjector(manager_resolver=coordinator.manager_for)
        victim = calculation.satellite(0, 7)
        injector.terminate(victim, 10.0)
        assert not coordinator.manager_for(victim).is_running_at(victim, 11.0)
        back_up = injector.reboot(victim, 12.0)
        assert coordinator.manager_for(victim).is_running_at(victim, back_up + 0.1)
        injector.degrade_cpu(victim, 0.25, 13.0)
        assert coordinator.manager_for(victim).machine(victim).cpu_quota.quota_fraction == 0.25
        injector.restore_cpu(victim, 14.0)
        kinds = [event.kind for event in injector.events]
        assert kinds == ["terminate", "reboot", "degrade-cpu", "restore-cpu"]

    def test_packet_loss_requires_network(self):
        _, calculation, _, _, coordinator = _coordinator()
        injector = FaultInjector(manager_resolver=coordinator.manager_for, network=None)
        with pytest.raises(RuntimeError):
            injector.inject_packet_loss(
                calculation.satellite(0, 0), calculation.satellite(0, 1), 0.5, 0.0
            )

    def test_radiation_model_injects_upsets(self):
        config, calculation, _, managers, coordinator = _coordinator()
        coordinator.create_ground_stations(0.0)
        coordinator.update(0.0)
        injector = FaultInjector(manager_resolver=coordinator.manager_for)
        model = RadiationModel(events_per_machine_hour=2.0, rng=np.random.default_rng(3))
        sim = Simulation()
        machines = [calculation.satellite(0, identifier) for identifier in range(10)]
        sim.process(model.process(sim, machines, injector))
        sim.run(until=3600.0)
        # Expectation: 2 events/hour/machine * 10 machines * 1 hour = ~20 upsets.
        assert 5 <= len(model.upsets) <= 60
        assert all(event.kind == "single-event-upset" for event in model.upsets)

    def test_radiation_model_zero_rate(self):
        model = RadiationModel(0.0)
        sim = Simulation()
        injector = FaultInjector(manager_resolver=lambda m: None)
        sim.process(model.process(sim, [], injector))
        sim.run()
        assert model.upsets == []
        with pytest.raises(ValueError):
            RadiationModel(-1.0)
