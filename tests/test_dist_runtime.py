"""Process-backend equivalence and supervision tests.

The contract: ``Coordinator(parallelism="processes")`` is an observable
no-op relative to the default thread backend — suspend/resume counters,
dirty-machine reconciliation, machine states and usage samples are
byte/count-identical over many epochs, **including** a worker crash that is
recovered by replaying the durable control ledger and restoring the
checkpoint epoch's activity masks, derived from the last epoch record sent.
Every process-backend test runs over the one worker seam: length-prefixed
frames on loopback TCP, handshake, reconnect after SIGKILL — the path a
remote worker takes.
"""

import dataclasses
import gc
import random

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
from repro.dist.backend import MachineRecord, ProcessFanoutBackend, WorkerDesyncError
from repro.dist.supervisor import WorkerCrashError, WorkerRemoteError
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import FrameKind
from repro.dist.worker import _Worker
from repro.hosts import Host
from repro.microvm import MachineResources, MachineState, MicroVM
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


def _boot_times(coordinator):
    """Every machine's latest boot finish: the microVMs', or the driver's ledger's."""
    if coordinator.parallelism == "processes":
        return {
            name: record.boot_finished_at_s
            for manager in coordinator.managers
            for name, record in manager.host.machines.items()
        }
    return {
        name: machine._boot_finished_at_s
        for manager in coordinator.managers
        for name, machine in manager.host.machines.items()
    }


def _assert_equivalent(threads, processes):
    assert _counters(threads) == _counters(processes)
    # The ledger's states (what the operations made of each machine plus
    # the suspends and resumes the workers reported) are the microVMs'.
    assert _machine_states(threads) == _machine_states(processes)
    # Even sub-second boot jitter is backend-invariant: machines created
    # mid-run (after usage samples) seed from lockstepped RNG streams, and
    # the ledger draws a boot's finish from the seed its worker's microVM got.
    assert _boot_times(processes) == _boot_times(threads)
    # The worker checkpoints the mirrored managers' counters read agree with
    # the thread backend's managers, host by host.
    worker_counters = processes._backend.worker_counters()
    for position, manager in enumerate(threads.managers):
        snapshot = worker_counters[position]
        assert snapshot["suspension_count"] == manager.suspension_count
        assert snapshot["resume_count"] == manager.resume_count
        assert snapshot["applied_diffs"] == manager.applied_diffs


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
            trace_lengths = [len(manager.host.trace) for manager in processes.managers]
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
            # both backends (on the process backend the worker reconciles
            # it and reports the transition).
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
            # the box is reconciled by the next record and suspended on the
            # worker, whose ack carries the transition into the ledger.
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

    def test_crash_mid_epoch_still_counts_dirty_once(self):
        # Worst-case detection point: the worker dies mid-epoch, after its
        # checkpoint took in the reboot, and the crash is found while the
        # record's acknowledgement is collected.  The restore must then
        # leave the machines the checkpoint held dirty as the ledger rebuilt
        # them, so the re-sent record redoes the counting reconcile exactly
        # once: otherwise the victim is suspended uncounted and unreported,
        # and the counters and ledger states compared below differ.
        from repro.core import EpochRecord

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
            # deterministically between the checkpoint and the collect.
            now = 360.0
            backend = processes._backend
            victim = processes.calculation.satellite(0, outside)
            worker = backend._worker_of[processes.manager_for(victim).position]
            # The reboot's CONTROL frame goes out and is acknowledged: the
            # victim is dirty in the checkpoint the recovery restores.
            backend.supervisor.ping(worker)
            previous = processes.database.state
            state, diff = processes.calculation.diff_since(previous, now)
            processes.database.set_state(state, diff=diff)
            record = EpochRecord.of(processes.database.epoch, state, previous)
            processes._ensure_activated_satellites(record, now)
            backend.crash_worker(worker)
            backend.supervisor.begin_epoch(record, now)
            acks = {
                worker: backend.supervisor.finish_request(worker)
                for worker in range(backend.worker_count)
            }
            backend._settle(acks)
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


class TestOneRecordPerEpoch:
    def test_one_encode_per_epoch_and_one_ack_per_worker(self, monkeypatch):
        # Three hosts on two workers: worker 0 owns two managers, yet every
        # epoch is one record encode, one frame and one ack per worker.
        from repro.dist import wire

        encodes = []
        slice_payload = wire.slice_payload

        def counted(record):
            encodes.append(record.epoch)
            return slice_payload(record)

        monkeypatch.setattr(wire, "slice_payload", counted)
        config = _iridium_box_config()
        processes = _coordinator(config, "processes", host_count=3, worker_count=2)
        try:
            for step in range(5):
                processes.update(step * 60.0)
            assert encodes == [1, 2, 3, 4, 5]
            acks = processes.stats.worker_ack_seconds
            assert sorted(acks) == [0, 1]
            assert [len(acks[worker]) for worker in (0, 1)] == [5, 5]
            assert [manager.applied_diffs for manager in processes.managers] == [4, 4, 4]
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
        backend = ProcessFanoutBackend(managers, worker_count=1, max_restarts=0)
        try:
            backend.supervisor.start()
            backend.supervisor.ping(0)
            backend.crash_worker(0)
            with pytest.raises(WorkerCrashError, match="restarts"):
                backend.supervisor.ping(0)
        finally:
            backend.close()
        assert calculation is not None

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_an_error(self, workers):
        managers = [MachineManager(Host(index=0, allow_memory_overcommit=True))]
        with pytest.raises(ValueError, match="worker_count must be at least 1"):
            ProcessFanoutBackend(managers, worker_count=workers)
        # More workers than hosts still clamps to one per host.
        backend = ProcessFanoutBackend(managers, worker_count=5)
        try:
            assert backend.worker_count == 1
        finally:
            backend.close()

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
            # Celestial.machine is the driver's read-only view of a worker's
            # microVM: the same state, quota and compute-task duration.
            for testbed in (testbed_t, testbed_p):
                hawaii = testbed.ground_station("hawaii")
                testbed.fault_injector.degrade_cpu(hawaii, 0.25, testbed.sim.now)
            machines = [
                machine
                for machine in testbed_t.calculation.machines()
                if testbed_t.coordinator.has_machine(machine)
            ]
            assert len(machines) == testbed_t.booted_machines() > 1
            for machine in machines:
                view, microvm = testbed_p.machine(machine), testbed_t.machine(machine)
                assert view.state is microvm.state
                assert view.cpu_quota == microvm.cpu_quota
                assert testbed_p.processing_delay_s(
                    machine, 0.01, parallelism=4
                ) == testbed_t.processing_delay_s(machine, 0.01, parallelism=4)
        finally:
            testbed_t.close()
            testbed_p.close()


def _satellites_and_station(coordinator):
    calculation = coordinator.calculation
    return [calculation.ground_station("hawaii")] + [
        calculation.satellite(0, identifier) for identifier in range(66)
    ]


def _bench_reads(coordinator):
    """What ``bench/workloads.py`` reads off the coordinator's managers."""
    return [
        (
            manager.host.index,
            len(manager.host.machines),
            manager.suspension_count,
            manager.resume_count,
            manager.applied_diffs,
        )
        for manager in coordinator.managers
    ]


def _lifecycle_step(program, threads, processes, now):
    """One random operation on both coordinators; returns what it answered."""
    machines = _satellites_and_station(threads)
    present = [machine for machine in machines if threads.has_machine(machine)]
    absent = [machine for machine in machines if not threads.has_machine(machine)]
    kind = program.choice(
        ["create", "create", "boot_all", "stop", "reboot", "reboot", "quota", "busy"]
    )
    if kind == "create" and absent:
        machine, boot = program.choice(absent), program.random() < 0.7
        for coordinator in (threads, processes):
            coordinator.create_machine(machine, now, boot=boot)
    elif kind == "boot_all":
        position = program.randrange(len(threads.managers))
        for coordinator in (threads, processes):
            coordinator.managers[position].boot_all(now)
    elif kind == "stop":
        stoppable = [
            machine
            for machine in present
            if threads.manager_for(machine).machine(machine).state
            not in (MachineState.STOPPED, MachineState.CREATED)
        ]
        if stoppable:
            machine = program.choice(stoppable)
            for coordinator in (threads, processes):
                coordinator.manager_for(machine).stop_machine(machine, now)
    elif kind == "reboot" and present:
        machine = program.choice(present)
        return [
            coordinator.manager_for(machine).reboot_machine(machine, now)
            for coordinator in (threads, processes)
        ]
    elif kind == "quota" and present:
        machine, quota = program.choice(present), program.choice([0.25, 0.5, 1.0])
        for coordinator in (threads, processes):
            coordinator.manager_for(machine).set_cpu_quota(machine, quota)
    elif kind == "busy" and present:
        machine, fraction = program.choice(present), program.random()
        for coordinator in (threads, processes):
            coordinator.manager_for(machine).set_busy_fraction(machine, fraction)
    return None


class TestLedgerEquivalence:
    """With worker processes the driver's ledger answers as microVMs do."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_lifecycle_programs_agree_step_by_step(self, seed):
        # Iridium through a bounding box, so satellites flip in and out
        # while machines are created, booted, stopped, rebooted, throttled
        # and kept busy between updates and usage sweeps.  Steps of 50 ms to
        # 0.6 s put reboots inside boot windows; the queries at now + 0.1 …
        # 0.6 land inside the windows of the boots just made.
        program = random.Random(seed)
        config = _iridium_box_config(duration_s=7200.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        try:
            now = 0.0
            for coordinator in (threads, processes):
                coordinator.update(now)
            for _ in range(80):
                roll = program.random()
                if roll < 0.15:
                    now += program.choice([30.0, 60.0, 120.0])
                    for coordinator in (threads, processes):
                        coordinator.update(now)
                elif roll < 0.3:
                    applying_update = program.random() < 0.5
                    assert threads.sample_all_usage(
                        now, applying_update=applying_update
                    ) == processes.sample_all_usage(now, applying_update=applying_update)
                else:
                    now += program.choice([0.05, 0.1, 0.3, 0.6])
                    answers = _lifecycle_step(program, threads, processes, now)
                    if answers is not None:  # a reboot's "up at" time
                        assert answers[0] == answers[1]
                for machine in _satellites_and_station(threads):
                    assert threads.has_machine(machine) == processes.has_machine(machine)
                    if not threads.has_machine(machine):
                        continue
                    for later in (0.0, 0.1, 0.4, 0.6):
                        assert threads.is_running_at(
                            machine, now + later
                        ) == processes.is_running_at(machine, now + later), (machine, later)
                    view = processes.manager_for(machine).machine(machine)
                    microvm = threads.manager_for(machine).machine(machine)
                    assert view.state is microvm.state
                    assert view.cpu_quota == microvm.cpu_quota
                assert _bench_reads(threads) == _bench_reads(processes)
                assert [
                    manager.host.rng.bit_generator.state for manager in processes.managers
                ] == [manager._rng.bit_generator.state for manager in threads.managers]
            # One more sweep flushes the last rows, so the checkpoints count them.
            assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert sum(c[0] for c in _counters(processes)) > 0
            _assert_equivalent(threads, processes)
            assert _rng_states(processes) == _rng_states(threads)
        finally:
            threads.close()
            processes.close()

    def test_a_record_reads_like_the_microvm_log(self):
        # MachineRecord.state_at against MicroVM.state_at for every time at
        # or after the latest operation, over seeded boot/stop/reboot runs.
        # A reboot that starts inside a boot window and finishes before it
        # reads BOOTING until the older boot's finish: "RUNNING once the
        # latest boot finished" alone would not.
        held_back = 0
        for seed in range(40):
            program = random.Random(seed)
            microvm = MicroVM(
                "m", MachineResources(1, 512), rng=np.random.default_rng(seed)
            )
            record = MachineRecord(seed, ComputeParams())
            now = 0.0
            for _ in range(12):
                now += program.choice([0.02, 0.05, 0.1, 0.6])
                operation = program.choice(["boot", "stop", "reboot", "reboot"])
                if operation == "boot" and microvm.state in (
                    MachineState.CREATED,
                    MachineState.STOPPED,
                ):
                    microvm.boot(now)
                    record.boot(now)
                elif operation == "stop" and microvm.state not in (
                    MachineState.CREATED,
                    MachineState.STOPPED,
                ):
                    microvm.stop(now)
                    record.stop()
                elif operation == "reboot":
                    finished = microvm.reboot(now)
                    record.reboot(now)
                    assert record.boot_finished_at_s == finished
                assert record.state is microvm.state
                for step in range(70):
                    later = now + step / 100.0
                    assert record.state_at(later) is microvm.state_at(later), (seed, later)
                    held_back += (
                        record.state is MachineState.RUNNING
                        and later >= record.boot_finished_at_s
                        and microvm.state_at(later) is MachineState.BOOTING
                    )
            assert record.boot_finished_at_s == microvm._boot_finished_at_s
        assert held_back  # the runs reached the corner


class TestSingleCopy:
    """Under worker processes the workers are the only owners of microVMs."""

    @pytest.mark.parametrize("parallelism", ["threads", "processes"])
    def test_the_driver_builds_microvms_only_in_process(self, parallelism):
        # Those of earlier tests may still be alive: count what this set-up adds.
        gc.collect()
        earlier = [item for item in gc.get_objects() if isinstance(item, MicroVM)]
        held = {id(item) for item in earlier}
        coordinator = _coordinator(_iridium_box_config(), parallelism)
        try:
            coordinator.update(0.0)
            coordinator.sample_all_usage(0.0)
            machines = sum(len(manager.host.machines) for manager in coordinator.managers)
            built = [
                item
                for item in gc.get_objects()
                if isinstance(item, MicroVM) and id(item) not in held
            ]
            assert machines > 1
            assert len(built) == (machines if parallelism == "threads" else 0)
        finally:
            coordinator.close()

    def test_an_unknown_attribute_of_a_mirrored_manager_is_an_attribute_error(self):
        backend = ProcessFanoutBackend(
            [MachineManager(Host(index=0, allow_memory_overcommit=True))], worker_count=1
        )
        try:
            manager = backend.managers[0]
            for name in ("machine_ids", "apply_diff", "sample_usage", "_dirty", "_shadow"):
                with pytest.raises(AttributeError):
                    getattr(manager, name)
            assert not backend.supervisor.started  # nothing reached for a worker
        finally:
            backend.close()
