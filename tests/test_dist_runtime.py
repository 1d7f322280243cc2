"""Process-backend equivalence and supervision tests.

The contract: ``Coordinator(parallelism="processes")`` is an observable
no-op relative to the default thread backend — suspend/resume counters,
dirty-machine reconciliation, machine states and usage samples are
byte/count-identical over many epochs, **including** a worker crash that is
recovered by replaying the durable control ledger plus the constellation
database's keyframe + diff chain.  Every process-backend test runs over the
one worker seam: length-prefixed frames on loopback TCP, handshake, reconnect
after SIGKILL — the path a remote worker takes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BoundingBox,
    Celestial,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    FaultInjector,
    GroundStationConfig,
    MachineManager,
    NetworkParams,
    ShellConfig,
)
from repro.dist.backend import ProcessFanoutBackend, WorkerDesyncError
from repro.dist.supervisor import WorkerCrashError, WorkerRemoteError
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import FrameKind
from repro.dist.worker import _Worker
from repro.hosts import Host
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import west_africa_configuration


def _iridium_box_config(update_interval_s=60.0, duration_s=1200.0):
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


def _coordinator(config, parallelism, host_count=3, worker_count=2, transport=None):
    calculation = ConstellationCalculation(config)
    managers = [
        MachineManager(
            Host(index=i, allow_memory_overcommit=True),
            rng=np.random.default_rng(1000 + i),
        )
        for i in range(host_count)
    ]
    coordinator = Coordinator(
        config,
        calculation,
        ConstellationDatabase(),
        managers,
        parallelism=parallelism,
        worker_count=worker_count,
        transport=transport,
    )
    coordinator.create_ground_stations(0.0)
    return coordinator


def _counters(coordinator):
    return sorted(
        (manager.suspension_count, manager.resume_count, manager.applied_diffs)
        for manager in coordinator.managers
    )


def _machine_states(coordinator):
    return {
        name: manager.host.machines[name].state
        for manager in coordinator.managers
        for name in manager.host.machines
    }


def _assert_equivalent(threads, processes):
    assert _counters(threads) == _counters(processes)
    assert _machine_states(threads) == _machine_states(processes)
    # Even sub-second boot jitter is backend-invariant: machines created
    # mid-run (after usage samples) seed from lockstepped RNG streams.
    for backend_coordinator in (threads, processes):
        boot_times = {
            name: manager.host.machines[name]._boot_finished_at_s
            for manager in backend_coordinator.managers
            for name in manager.host.machines
        }
        if backend_coordinator is threads:
            reference_boot_times = boot_times
    assert boot_times == reference_boot_times
    # The worker-side counters (not just the in-process shadows) must agree
    # with the thread backend too — they are the authoritative copies.
    worker_counters = processes._backend.worker_counters()
    for position, shadow in enumerate(processes._backend.shadows):
        snapshot = worker_counters[position]
        assert snapshot["suspension_count"] == shadow.suspension_count
        assert snapshot["resume_count"] == shadow.resume_count
        assert snapshot["applied_diffs"] == shadow.applied_diffs


class TestProcessBackendEquivalence:
    def test_iridium_counters_states_and_samples(self):
        # Long enough that satellites leave the box, are suspended, come
        # back and are resumed; usage sampled every epoch.
        config = _iridium_box_config(duration_s=1200.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for step in range(13):
                now = step * 60.0
                state_t = threads.update(now)
                state_p = processes.update(now)
                for shell in state_t.active_satellites:
                    assert np.array_equal(
                        state_t.active_satellites[shell],
                        state_p.active_satellites[shell],
                    )
                samples_t = threads.sample_all_usage(now, applying_update=True)
                samples_p = processes.sample_all_usage(now, applying_update=True)
                assert samples_t == samples_p  # byte-identical dataclasses
            _assert_equivalent(threads, processes)
            assert sum(c[0] for c in _counters(processes)) > 0
            assert processes.stats.diff_updates == 12
            # The parent-side traces recorded the streamed samples.
            trace_lengths = [
                len(shadow.host.trace) for shadow in processes._backend.shadows
            ]
            assert trace_lengths == [13, 13, 13]
        finally:
            threads.close()
            processes.close()

    def test_starlink_epochs_match(self):
        # Starlink (two lowest shells, West-Africa bounding box), ≥ 10
        # epochs through the differential pipeline on both backends.
        config = west_africa_configuration(duration_s=60.0, shells="two-lowest")
        threads = _coordinator(config, "threads", host_count=4, worker_count=2)
        processes = _coordinator(config, "processes", host_count=4, worker_count=2)
        try:
            for step in range(11):
                now = step * config.update_interval_s
                threads.update(now)
                processes.update(now)
            samples_t = threads.sample_all_usage(20.0, applying_update=True)
            samples_p = processes.sample_all_usage(20.0, applying_update=True)
            assert samples_t == samples_p
            _assert_equivalent(threads, processes)
            assert processes.stats.diff_updates == 10
        finally:
            threads.close()
            processes.close()

    def test_quota_and_busy_changes_reach_the_next_sample(self):
        # The workers keep their usage reading between samples; a quota or
        # busy-fraction change made through the proxy must drop it there.
        config = _iridium_box_config()
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for coordinator in (threads, processes):
                coordinator.update(0.0)
            before = threads.sample_all_usage(0.0)
            assert before == processes.sample_all_usage(0.0)
            # A running satellite and the ground station, on different hosts.
            throttled = threads.calculation.ground_station("hawaii")
            busy = next(
                machine
                for machine in (
                    threads.calculation.satellite(0, int(identifier))
                    for identifier in np.nonzero(threads.database.state.active_satellites[0])[0]
                )
                if threads.manager_for(machine) is not threads.manager_for(throttled)
            )
            for coordinator in (threads, processes):
                coordinator.manager_for(busy).set_busy_fraction(busy, 1.0)
                coordinator.manager_for(throttled).set_cpu_quota(throttled, 0.25)
            # No lifecycle transition in between: only the two changes can
            # have dropped the kept readings, each on its own host.
            changed = threads.sample_all_usage(30.0)
            assert changed == processes.sample_all_usage(30.0)
            owners = {
                threads.managers.index(threads.manager_for(machine))
                for machine in (busy, throttled)
            }
            assert owners == {
                position
                for position, (old, new) in enumerate(zip(before, changed))
                if old.microvm_cpu_percent != new.microvm_cpu_percent
            }
            for coordinator in (threads, processes):
                coordinator.update(60.0)
            assert threads.sample_all_usage(60.0) == processes.sample_all_usage(60.0)
        finally:
            threads.close()
            processes.close()

    def test_dirty_machine_reconciliation_after_fault_injection(self):
        config = _iridium_box_config()
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for coordinator in (threads, processes):
                coordinator.update(0.0)
            # Reboot a suspended (out-of-box) satellite through the
            # fault-injection API: it comes back RUNNING although it is
            # outside the box, and the next update must suspend it again on
            # both backends (the process backend ships it in dirty_active).
            state = processes.database.state
            outside = int(np.nonzero(~state.active_satellites[0])[0][0])
            for coordinator in (threads, processes):
                injector = FaultInjector(manager_resolver=coordinator.manager_for)
                victim = coordinator.calculation.satellite(0, outside)
                if not coordinator.has_machine(victim):
                    coordinator.create_machine(victim, 10.0)
                injector.reboot(victim, 20.0)
                injector.degrade_cpu(victim, 0.25, 21.0)
            for coordinator in (threads, processes):
                coordinator.update(60.0)
                victim = coordinator.calculation.satellite(0, outside)
                machine = coordinator.manager_for(victim).machine(victim)
                assert machine.state.value == "suspended"
                assert machine.cpu_quota.quota_fraction == 0.25
            _assert_equivalent(threads, processes)
            # boot_all marks what it boots dirty too: a machine created
            # unbooted, carried across an update and then booted outside
            # the box travels in the next slice's dirty_active and is
            # suspended by shadow and worker alike (counters verified on
            # the ack, reconciled states compared).
            state = processes.database.state
            late = next(
                int(identifier)
                for identifier in np.nonzero(~state.active_satellites[0])[0]
                if not processes.has_machine(processes.calculation.satellite(0, int(identifier)))
            )
            for coordinator in (threads, processes):
                sleeper = coordinator.calculation.satellite(0, late)
                coordinator.create_machine(sleeper, 70.0, boot=False)
                coordinator.update(120.0)
                coordinator.manager_for(sleeper).boot_all(130.0)
                coordinator.update(180.0)
                assert not coordinator.database.state.is_active(sleeper)
                machine = coordinator.manager_for(sleeper).machine(sleeper)
                assert machine.state.value == "suspended"
            _assert_equivalent(threads, processes)
        finally:
            threads.close()
            processes.close()

    def test_worker_crash_recovered_by_keyframe_diff_replay(self):
        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for step in range(7):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            # Kill one worker the hard way (SIGKILL).  The next fan-out's
            # heartbeat sweep detects the death, respawns the worker (the
            # successor reconnects to the same listener), replays
            # its control ledger and restores activity from the database's
            # keyframe + diff chain plus the last checkpoint.
            processes._backend.crash_worker(0)
            for step in range(7, 11):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            # A second crash later in the run recovers just the same (the
            # successor's ledger/checkpoint lineage stays intact).
            processes._backend.crash_worker(1)
            for step in range(11, 15):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert processes._backend.restart_count == 2
            _assert_equivalent(threads, processes)
            assert sum(c[0] for c in _counters(processes)) > 0
        finally:
            threads.close()
            processes.close()

    def test_crash_with_dirty_machines_skips_them_in_restore(self):
        # A machine rebooted outside the protocol right before the crash:
        # the restore must leave it to the next slice's dirty_active
        # reconciliation (with counting), exactly like the thread backend.
        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for step in range(6):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
            state = processes.database.state
            outside = int(np.nonzero(~state.active_satellites[0])[0][0])
            for coordinator in (threads, processes):
                victim = coordinator.calculation.satellite(0, outside)
                if not coordinator.has_machine(victim):
                    coordinator.create_machine(victim, 310.0)
                coordinator.manager_for(victim).reboot_machine(victim, 320.0)
            # Crash the worker that owns the dirty machine.
            victim = processes.calculation.satellite(0, outside)
            position = processes.manager_for(victim).position
            processes._backend.crash_worker(position % 2)
            for step in range(6, 12):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert processes._backend.restart_count == 1
            _assert_equivalent(threads, processes)
            machine = processes.manager_for(victim).machine(victim)
            assert machine.state.value == "suspended"
        finally:
            threads.close()
            processes.close()

    def test_crash_after_shadows_applied_still_counts_dirty_once(self):
        # Worst-case detection point: the worker dies mid-epoch, after the
        # shadows already reconciled the dirty machines and cleared their
        # dirty sets.  The restore skip-set must then come from the
        # in-flight slices' dirty_active maps, so the re-sent slice redoes
        # the counting reconcile exactly once (a desync otherwise).
        from repro.dist import wire
        from repro.dist.wire import FrameKind

        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for step in range(6):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
            state = processes.database.state
            outside = int(np.nonzero(~state.active_satellites[0])[0][0])
            for coordinator in (threads, processes):
                victim = coordinator.calculation.satellite(0, outside)
                if not coordinator.has_machine(victim):
                    coordinator.create_machine(victim, 310.0)
                coordinator.manager_for(victim).reboot_machine(victim, 320.0)
            threads.update(360.0)
            # Drive the process backend's epoch by hand so the crash lands
            # deterministically between the shadow apply and the collect.
            now = 360.0
            state, diff = processes.calculation.diff_since(
                processes.database.state, now
            )
            processes.database.set_state(state, diff=diff)
            processes._ensure_activated_satellites(diff, now)
            slices = processes._shard(state, diff)
            backend = processes._backend
            for shadow, state_slice in zip(backend.shadows, slices):
                shadow.apply_diff(state_slice, now)
            victim = processes.calculation.satellite(0, outside)
            backend.crash_worker(
                backend._worker_of[processes.manager_for(victim).position]
            )
            for position, state_slice in enumerate(slices):
                meta, arrays = wire.slice_payload(state_slice)
                backend.supervisor.begin_request(
                    backend._worker_of[position],
                    FrameKind.APPLY_SLICE,
                    {**meta, "now_s": now, "position": position},
                    arrays,
                )
            acks = {}
            for position in range(len(slices)):
                worker = backend._worker_of[position]
                acks[worker] = backend.supervisor.finish_request(worker)
            backend._verify_counters(acks)  # desynced before the skip fix
            assert backend.restart_count == 1
            for step in range(7, 12):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            _assert_equivalent(threads, processes)
        finally:
            threads.close()
            processes.close()

    def test_crash_detected_during_sampling(self):
        config = _iridium_box_config()
        processes = _coordinator(config, "processes")
        try:
            processes.update(0.0)
            processes.update(60.0)
            before = processes.sample_all_usage(60.0)
            processes._backend.crash_worker(1)
            after = processes.sample_all_usage(65.0)
            assert len(after) == len(before)
            assert processes._backend.restart_count == 1
        finally:
            processes.close()


def _rng_states(coordinator):
    """Per-position manager RNG states: the managers' own, or the workers'."""
    if coordinator.parallelism == "processes":
        counters = coordinator._backend.worker_counters()
        return [counters[position]["rng_state"] for position in sorted(counters)]
    return [manager._rng.bit_generator.state for manager in coordinator.managers]


def _ledger_lengths(coordinator):
    return [len(handle.ledger) for handle in coordinator._backend.supervisor._handles]


class TestBatchedControlFrames:
    """Lifecycle operations reach a worker as one CONTROL frame per flush."""

    def test_crash_recovery_replays_one_frame_per_flush(self):
        # 1,589 microVMs on 4 hosts / 2 workers.  A worker killed after the
        # set-up epoch is rebuilt from one ledger frame, not 795 pairs of
        # CREATE/BOOT frames; one killed right after fault-injection ops is
        # found by the sample that flushes them, so its rebuild replays the
        # flush after the checkpoint on top of the restored streams.
        config = west_africa_configuration(
            duration_s=600.0, shells="lowest", use_bounding_box=False
        )
        threads = _coordinator(config, "threads", host_count=4, worker_count=2)
        processes = _coordinator(config, "processes", host_count=4, worker_count=2)
        try:
            for coordinator in (threads, processes):
                coordinator.update(0.0)
            assert sum(len(m.host.machines) for m in processes.managers) >= 1000
            assert _ledger_lengths(processes) == [1, 1]
            assert threads.sample_all_usage(0.0) == processes.sample_all_usage(0.0)
            processes._backend.crash_worker(0)
            fault_workers = set()
            for step in range(1, 9):
                now = step * config.update_interval_s
                for coordinator in (threads, processes):
                    coordinator.update(now)
                if step == 4:
                    stopped, rebooted, throttled = (
                        processes.calculation.satellite(0, identifier)
                        for identifier in (3, 400, 1200)
                    )
                    for coordinator in (threads, processes):
                        injector = FaultInjector(manager_resolver=coordinator.manager_for)
                        injector.terminate(stopped, now)
                        injector.reboot(rebooted, now)
                        injector.degrade_cpu(throttled, 0.5, now)
                    fault_workers = {
                        processes.manager_for(machine).position % 2
                        for machine in (stopped, rebooted, throttled)
                    }
                    assert 1 in fault_workers  # its flush follows its checkpoint
                    processes._backend.crash_worker(1)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert processes._backend.restart_count == 2
            _assert_equivalent(threads, processes)
            assert _rng_states(processes) == _rng_states(threads)
            assert _ledger_lengths(processes) == [
                1 + (worker in fault_workers) for worker in range(2)
            ]
        finally:
            threads.close()
            processes.close()

    def test_creates_flushed_after_the_checkpoint_draw_after_the_restore(self):
        # Machines created between an update and a sample, on a worker that
        # dies meanwhile: the sample's flush never reaches it, recovery
        # restores the checkpoint's RNG streams and only then replays the
        # flush, so the CREATE draws are not rewound away.
        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            for step in range(3):
                now = step * 60.0
                for coordinator in (threads, processes):
                    coordinator.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            state = processes.database.state
            absent = [
                processes.calculation.satellite(0, int(identifier))
                for identifier in np.nonzero(~state.active_satellites[0])[0]
                if not processes.has_machine(
                    processes.calculation.satellite(0, int(identifier))
                )
            ][:2]
            assert absent
            for coordinator in (threads, processes):
                for machine in absent:
                    coordinator.create_machine(machine, 150.0)
            processes._backend.crash_worker(
                processes.manager_for(absent[0]).position % 2
            )
            assert threads.sample_all_usage(150.0) == processes.sample_all_usage(150.0)
            assert processes._backend.restart_count == 1
            for step in range(3, 8):
                now = step * 60.0
                for coordinator in (threads, processes):
                    coordinator.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            _assert_equivalent(threads, processes)
            assert _rng_states(processes) == _rng_states(threads)
        finally:
            threads.close()
            processes.close()

    def test_rows_run_a_flush_late_are_a_desync_at_set_up(self, monkeypatch):
        # Counters cannot see it (no bounding box: nothing is suspended), but
        # a worker that holds each CONTROL frame back until the next one
        # acknowledges the set-up epoch with its streams short of every
        # CREATE draw.
        dispatch = _Worker._dispatch

        def one_flush_late(self, kind, meta, arrays):
            if kind is not FrameKind.CONTROL:
                return dispatch(self, kind, meta, arrays)
            held, self.held = getattr(self, "held", None), (meta, arrays)
            if held is not None:
                dispatch(self, kind, *held)
            return None

        monkeypatch.setattr(_Worker, "_dispatch", one_flush_late)  # before the fork
        config = dataclasses.replace(_iridium_box_config(), bounding_box=None)
        processes = _coordinator(config, "processes")
        try:
            with pytest.raises(WorkerDesyncError, match="RNG stream"):
                processes.update(0.0)
        finally:
            processes.close()

    def test_reversed_rows_fail_typed_at_set_up(self, monkeypatch):
        # Reversed, each BOOT row runs before its machine's CREATE: the failed
        # rows are reported with the set-up epoch's acknowledgement.  (The
        # RNG check alone could not tell: each CREATE draws one variate, so
        # a reordering moves no stream.)
        run_control = _Worker._run_control
        monkeypatch.setattr(
            _Worker,
            "_run_control",
            lambda self, rows, table: run_control(self, rows[::-1], table),
        )
        processes = _coordinator(_iridium_box_config(), "processes")
        try:
            with pytest.raises(WorkerRemoteError, match=r"CONTROL row \d+ \(BOOT\)"):
                processes.update(0.0)
        finally:
            processes.close()


def test_thread_backend_rejects_worker_transport():
    # Worker deployment settings without parallelism="processes" must fail
    # loudly: silently running in-process would fake a passing remote-path run.
    config = _iridium_box_config()
    with pytest.raises(ValueError, match="parallelism='processes'"):
        _coordinator(config, "threads", transport=TcpTransportFactory())
    # ... and a transport *name* selects nothing: there is one transport.
    with pytest.raises(TypeError, match="TcpTransportFactory"):
        _coordinator(config, "processes", transport="tcp")


class TestSupervision:
    def test_heartbeat_ping(self):
        config = _iridium_box_config()
        processes = _coordinator(config, "processes")
        try:
            processes.update(0.0)
            supervisor = processes._backend.supervisor
            for worker in range(supervisor.worker_count):
                meta = supervisor.ping(worker)
                assert "counters" in meta
            assert supervisor.check() == 0
        finally:
            processes.close()

    def test_max_restarts_bound(self):
        config = _iridium_box_config()
        calculation = ConstellationCalculation(config)
        managers = [MachineManager(Host(index=0, allow_memory_overcommit=True))]
        backend = ProcessFanoutBackend(
            managers, ConstellationDatabase(), worker_count=1, max_restarts=0
        )
        try:
            backend.supervisor.start()
            backend.supervisor.ping(0)
            backend.crash_worker(0)
            with pytest.raises(WorkerCrashError, match="restarts"):
                backend.supervisor.ping(0)
        finally:
            backend.close()
        assert calculation is not None

    def test_close_is_idempotent_and_joins_workers(self):
        config = _iridium_box_config()
        processes = _coordinator(config, "processes")
        processes.update(0.0)
        handles = processes._backend.supervisor._handles
        assert all(handle.process.is_alive() for handle in handles)
        processes.close()
        assert all(not handle.process.is_alive() for handle in handles)
        processes.close()  # idempotent
        threads = _coordinator(config, "threads")
        threads.update(0.0)
        threads.close()
        threads.close()  # idempotent for the thread backend too


class TestTestbedProcessBackend:
    def test_celestial_runs_and_matches_thread_traces(self):
        config = _iridium_box_config(update_interval_s=30.0, duration_s=120.0)
        testbed_t = Celestial(config)
        testbed_p = Celestial(config, parallelism="processes", worker_count=2)
        try:
            testbed_t.run()
            testbed_p.run()
            traces_t = testbed_t.resource_traces()
            traces_p = testbed_p.resource_traces()
            assert set(traces_t) == set(traces_p)
            for host_index in traces_t:
                assert traces_t[host_index].samples == traces_p[host_index].samples
            assert testbed_t.booted_machines() == testbed_p.booted_machines()
        finally:
            testbed_t.close()
            testbed_p.close()
