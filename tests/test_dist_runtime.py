"""Process-backend equivalence and supervision tests.

The contract: ``Coordinator(parallelism="processes")`` is an observable
no-op relative to the default thread backend — suspend/resume counters,
dirty-machine reconciliation, machine states and usage samples are
byte/count-identical over many epochs, **including** a worker crash, after
which the successor starts from the driver's replica — one ``SPEC`` frame,
no replay — and the requests in flight are dropped, not re-sent.  The driver
computes every answer and checks each worker's one request late: before the
next record, at ``close()`` and in ``worker_counters()``, so a desync or a
crash shows there rather than in the call that sent the request.  Every
process-backend test runs over the one worker seam: length-prefixed frames
on loopback TCP, handshake, reconnect after SIGKILL — the path a remote
worker takes.
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
from repro.core.constellation import MachineId
from repro.dist import backend as backend_module
from repro.dist.backend import (
    MAX_IN_FLIGHT,
    ProcessFanoutBackend,
    WorkerCrashError,
    WorkerDesyncError,
    WorkerRemoteError,
)
from repro.dist.transport import SocketTransport, TcpTransportFactory
from repro.dist.wire import ControlOp, FrameKind
from repro.dist.worker import _Worker
from repro.hosts import Host, HostError
from repro.microvm import CPUQuota, MachineBatch, MachineState, MachineTable
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import west_africa_configuration
from repro.sim.rng import key_root, keyed


def _ping(backend, worker):
    """One ``PING`` sent to the pool and ``worker``'s requests in flight
    collected, uncompared: the ``PING``'s checkpoint, or None.

    None when the worker died with the ``PING`` in flight: its successor
    starts from the replica and is sent nothing again.
    """
    handle = backend._handles[worker]
    backend._request(FrameKind.PING, {})
    pending = len(handle.inflight)
    acks = backend._collect_from(handle)
    return acks[-1][0] if len(acks) == pending else None


def _crash(backend, worker):
    """Hard-kill a worker process (SIGKILL), as a real crash would."""
    process = backend._handles[worker].process
    process.kill()
    process.join(timeout=5.0)


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


#: The coordinators the running test built: closed when it ends.
_built: list[Coordinator] = []


@pytest.fixture(autouse=True)
def _close_coordinators():
    yield
    while _built:
        _built.pop().close()


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
    _built.append(coordinator)
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
    """Every machine's latest boot finish, read off the driver's rows either way."""
    return {
        name: machine.boot_finished_at_s
        for manager in coordinator.managers
        for name, machine in manager.host.machines.items()
    }


def _position(coordinator, machine):
    """The host position of the manager that holds a machine."""
    return coordinator.managers.index(coordinator.manager_for(machine))


def _assert_equivalent(threads, processes):
    assert _counters(threads) == _counters(processes)
    # The replica managers' states are the in-process rows'.
    assert _machine_states(threads) == _machine_states(processes)
    # Even sub-second boot jitter is backend-invariant: seeds are keyed by
    # identity, and the replica draws a boot's finish from the seed its
    # worker's row holds.
    assert _boot_times(processes) == _boot_times(threads)
    # Each worker's whole checkpoint — rows, counters, dirty set, states —
    # is the thread backend's manager's, host by host.
    worker_counters = processes._backend.worker_counters()
    assert [worker_counters[position] for position in range(len(threads.managers))] == [
        manager.counters_snapshot() for manager in threads.managers
    ]


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
            assert processes.stats.count == 13  # the first epoch and 12 diffs
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
            assert processes.stats.count == 11  # the first epoch and 10 diffs
        finally:
            threads.close()
            processes.close()

    def test_quota_and_busy_changes_reach_the_next_sample(self):
        # The workers keep their usage reading between samples; a quota or
        # busy-fraction change made on the driver must drop it there.
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
            # both backends (on the process backend the worker and the
            # replica manager both reconcile it).
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
            # A reboot marks what it boots dirty too: a machine stopped as
            # soon as it was created, carried across an update and then
            # rebooted outside the box is reconciled by the next record and
            # suspended on the worker and on the replica alike.
            state = processes.database.state
            late = next(
                int(identifier)
                for identifier in np.nonzero(~state.active_satellites[0])[0]
                if not processes.has_machine(processes.calculation.satellite(0, int(identifier)))
            )
            for coordinator in (threads, processes):
                sleeper = coordinator.calculation.satellite(0, late)
                coordinator.create_machine(sleeper, 70.0).stop_machine(sleeper, 70.0)
                coordinator.update(120.0)
                coordinator.manager_for(sleeper).reboot_machine(sleeper, 130.0)
                coordinator.update(180.0)
                assert not coordinator.database.state.active_satellites[sleeper.shell][
                    sleeper.identifier
                ]
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
            # heartbeat sweep detects the death and respawns the worker (the
            # successor reconnects to the same listener) from the driver's
            # replica: tables, counters and dirty sets.
            _crash(processes._backend, 0)
            for step in range(7, 11):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            # A second crash later in the run recovers just the same.
            _crash(processes._backend, 1)
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
        # the successor holds it dirty, as the replica does, so the next
        # record reconciles it (with counting), exactly like the thread
        # backend.
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
            _crash(processes._backend, _position(processes, victim) % 2)
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
        # Worst-case detection point: the worker dies mid-epoch, after it
        # acknowledged the reboot and with the record in flight, and the
        # crash is found when the record's acknowledgement is collected.
        # The replica applied the record before sending it — the victim's
        # counting reconcile done once — so the successor starts from there
        # and the record is not re-sent: sent again, it would reconcile
        # nothing, but count a second applied diff, and the checkpoint
        # compared with the replica's would differ.
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
            # The coordinator's own epoch, with the crash landing
            # deterministically between the record's send and its collect.
            now = 360.0
            backend = processes._backend
            victim = processes.calculation.satellite(0, outside)
            worker = _position(processes, victim) % 2
            # The reboot's CONTROL frame goes out and is acknowledged: the
            # victim is dirty on the worker and on the replica.
            _ping(backend, worker)
            apply_slices = backend.apply_slices

            def send_then_kill(record, now_s):
                apply_slices(record, now_s)
                _crash(backend, worker)

            backend.apply_slices = send_then_kill
            processes.update(now)
            backend.apply_slices = apply_slices
            assert backend.restart_count == 0  # found when the ack is collected
            for step in range(7, 12):
                now = step * 60.0
                threads.update(now)
                processes.update(now)
                assert backend.restart_count == 1
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            _assert_equivalent(threads, processes)
        finally:
            threads.close()
            processes.close()

    def test_crash_detected_during_sampling(self):
        # A sweep sent to a dead worker still answers from the replica; the
        # crash is found when the next record collects the sweep's ack.
        config = _iridium_box_config()
        processes = _coordinator(config, "processes")
        try:
            processes.update(0.0)
            processes.update(60.0)
            before = processes.sample_all_usage(60.0)
            _crash(processes._backend, 1)
            after = processes.sample_all_usage(65.0)
            assert len(after) == len(before)
            assert processes._backend.restart_count == 0
            processes.update(120.0)
            assert processes._backend.restart_count == 1
        finally:
            processes.close()


class _SentFrames:
    """The kind of every frame the driver sends, by the transport it went out on."""

    def __init__(self, monkeypatch):
        self.sent: list[tuple[SocketTransport, FrameKind]] = []
        send_bytes = SocketTransport.send_bytes

        def logged(transport, data):
            self.sent.append((transport, FrameKind(data[6])))  # the header's kind byte
            send_bytes(transport, data)

        monkeypatch.setattr(SocketTransport, "send_bytes", logged)  # before the fork

    def to(self, coordinator, worker):
        """The kinds sent to the worker's current incarnation, in order."""
        conn = coordinator._backend._handles[worker].conn
        return [kind for transport, kind in self.sent if transport is conn]


class TestBatchedControlFrames:
    """Lifecycle operations reach a worker as one CONTROL frame per flush."""

    def test_one_control_frame_per_flush_and_a_spec_per_recovery(self, monkeypatch):
        # 1,589 microVMs on 4 hosts / 2 workers.  The set-up epoch's
        # lifecycle rows are one CONTROL frame per worker.  A worker killed
        # after the set-up epoch, and one killed right after fault-injection
        # ops (found when the next record collects the sample that flushed
        # them), each restart from one SPEC frame holding the replica's
        # tables; the requests in flight are not re-sent.
        frames = _SentFrames(monkeypatch)
        config = west_africa_configuration(
            duration_s=600.0, shells="lowest", use_bounding_box=False
        )
        threads = _coordinator(config, "threads", host_count=4, worker_count=2)
        processes = _coordinator(config, "processes", host_count=4, worker_count=2)
        try:
            for coordinator in (threads, processes):
                coordinator.update(0.0)
            assert sum(len(m.host.machines) for m in processes.managers) >= 1000
            assert [frames.to(processes, worker) for worker in range(2)] == [
                [FrameKind.SPEC, FrameKind.CONTROL, FrameKind.APPLY_EPOCH]
            ] * 2
            assert threads.sample_all_usage(0.0) == processes.sample_all_usage(0.0)
            _crash(processes._backend, 0)
            fault_workers = set()
            for step in range(1, 9):
                now = step * config.update_interval_s
                for coordinator in (threads, processes):
                    coordinator.update(now)
                if step == 1:
                    # Found before the record went out.
                    assert frames.to(processes, 0) == [FrameKind.SPEC, FrameKind.APPLY_EPOCH]
                if step == 5:
                    # The fault rows went to the dead worker; its successor
                    # holds them in its SPEC and is sent the next record only.
                    assert frames.to(processes, 1) == [FrameKind.SPEC, FrameKind.APPLY_EPOCH]
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
                        _position(processes, machine) % 2
                        for machine in (stopped, rebooted, throttled)
                    }
                    assert 1 in fault_workers
                    _crash(processes._backend, 1)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert processes._backend.restart_count == 2
            _assert_equivalent(threads, processes)
            # Worker 0's successor gets the fault rows it owns as a flush;
            # worker 1's got them in its SPEC.
            assert [frames.to(processes, worker).count(FrameKind.CONTROL) for worker in range(2)] == [
                int(0 in fault_workers), 0
            ]
        finally:
            threads.close()
            processes.close()

    def test_a_successor_is_sent_one_spec_and_nothing_else(self, monkeypatch):
        # Fifty flushes with lifecycle rows, then a crash with one more row
        # and a PING in flight: the successor is sent its SPEC, nothing
        # else.  The replica ran every row, so the SPEC holds them.
        frames = _SentFrames(monkeypatch)
        processes = _coordinator(_iridium_box_config(), "processes", host_count=1, worker_count=1)
        try:
            processes.update(0.0)
            backend = processes._backend
            hawaii = processes.calculation.ground_station("hawaii")
            manager = processes.manager_for(hawaii)
            for flush in range(50):
                manager.set_busy_fraction(hawaii, flush / 50)
                _ping(backend, 0)
            assert frames.to(processes, 0).count(FrameKind.CONTROL) == 51
            manager.set_cpu_quota(hawaii, 0.5)
            _crash(backend, 0)
            assert _ping(backend, 0) is None  # dropped with its worker
            assert frames.to(processes, 0) == [FrameKind.SPEC]
            assert backend.restart_count == 1
            # The successor holds the pending quota and the last busy share:
            # its checkpoints and its sample's checksum are the replica's.
            processes.update(60.0)
            (sample,) = processes.sample_all_usage(60.0)
            assert sample.microvm_cpu_percent == manager.host.microvm_cpu_percent()
            processes._backend.worker_counters()  # collects and compares both
        finally:
            processes.close()

    def test_creates_pending_at_a_crash_reach_the_successor_in_its_spec(self):
        # Machines created between an update and a sample, on a worker that
        # dies meanwhile: the sample's flush never reaches it, and its
        # successor starts from the replica, which holds them dirty, so the
        # next record reconciles them as in process.
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
            _crash(processes._backend, _position(processes, absent[0]) % 2)
            assert threads.sample_all_usage(150.0) == processes.sample_all_usage(150.0)
            for step in range(3, 8):
                now = step * 60.0
                for coordinator in (threads, processes):
                    coordinator.update(now)
                assert processes._backend.restart_count == 1
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            _assert_equivalent(threads, processes)
        finally:
            threads.close()
            processes.close()

    def test_rows_run_a_flush_late_are_a_desync_at_set_up(self, monkeypatch):
        # Counters cannot see it (no bounding box: nothing is suspended), but
        # a worker that holds each CONTROL frame back until the next one
        # acknowledges the set-up epoch without a single machine, which the
        # next update finds.
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
            processes.update(0.0)
            with pytest.raises(
                WorkerDesyncError, match=r"the worker holds 0 machines, the driver's replica \d+"
            ):
                processes.update(60.0)
        finally:
            processes.close()

    def test_a_dropped_create_row_is_a_desync_at_set_up(self, monkeypatch):
        # A worker that silently skips the first CREATE row it is sent: no
        # error is reported and, without a bounding box, no record moves a
        # machine, so only the row counts of the set-up acknowledgement show
        # that its host lacks the batch — compared at close at the latest.
        run_control = _Worker._run_control

        def drop_first_create(self, rows):
            if not getattr(self, "dropped", False):
                first = next(i for i, row in enumerate(rows) if row[0] is ControlOp.CREATE)
                rows, self.dropped = rows[:first] + rows[first + 1 :], True
            run_control(self, rows)

        monkeypatch.setattr(_Worker, "_run_control", drop_first_create)  # before the fork
        config = dataclasses.replace(_iridium_box_config(), bounding_box=None)
        processes = _coordinator(config, "processes", host_count=1, worker_count=1)
        try:
            processes.update(0.0)
            with pytest.raises(WorkerDesyncError, match="the worker holds 66 machines"):
                processes.close()
            assert not processes._backend._handles[0].process.is_alive()
        finally:
            processes.close()

    def test_a_row_the_replica_never_ran_is_a_desync_at_the_next_update(self):
        # A STOP row for the ground station reaches its worker but not the
        # replica manager.  The row count, the counters and the dirty set
        # (the record clears it on both sides) cannot tell; the states can,
        # once the record that carried the row is collected.
        processes = _coordinator(_iridium_box_config(), "processes", host_count=3, worker_count=2)
        try:
            processes.update(0.0)
            hawaii = processes.calculation.ground_station("hawaii")
            position = _position(processes, hawaii)
            backend = processes._backend
            backend._handles[position % 2].control.append(position, ControlOp.STOP, hawaii, 10.0)
            processes.update(60.0)
            with pytest.raises(WorkerDesyncError, match=rf"host {position}: the worker's states"):
                processes.update(120.0)
        finally:
            processes.close()

    def test_reversed_rows_fail_typed_at_set_up(self, monkeypatch):
        # A machine created and stopped before the first epoch: in
        # reversed rows its STOP runs before its CREATE, and the failed row
        # is reported with the set-up epoch's acknowledgement, collected at
        # close.  (The row count alone could not tell: a reordering keeps it.)
        run_control = _Worker._run_control
        monkeypatch.setattr(
            _Worker, "_run_control", lambda self, rows: run_control(self, rows[::-1])
        )
        processes = _coordinator(_iridium_box_config(), "processes")
        try:
            late = processes.calculation.satellite(0, 0)
            processes.create_machine(late, 0.0).stop_machine(late, 0.0)
            processes.update(0.0)
            with pytest.raises(WorkerRemoteError, match=r"CONTROL row \d+ \(STOP\)"):
                processes.close()
        finally:
            processes.close()


class TestOneRecordPerEpoch:
    def test_one_encode_per_epoch_and_one_ack_per_worker(self, monkeypatch):
        # Three hosts on two workers: worker 0 owns two managers, yet every
        # epoch is one record encode, one frame and one ack per worker.  The
        # last record's ack is still in flight: it is collected before the
        # next record or at close.
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
            assert [len(acks[worker]) for worker in (0, 1)] == [4, 4]
            handles = processes._backend._handles
            assert [len(handle.inflight) for handle in handles] == [1, 1]
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
            backend = processes._backend
            for worker in range(len(backend._handles)):
                meta = _ping(backend, worker)
                assert "counters" in meta
            backend._heartbeat()  # every worker alive: nothing restarts
            assert backend.restart_count == 0
        finally:
            processes.close()

    def test_max_restarts_bound(self, monkeypatch):
        config = _iridium_box_config()
        calculation = ConstellationCalculation(config)
        managers = [MachineManager(Host(index=0, allow_memory_overcommit=True))]
        backend = ProcessFanoutBackend(managers, worker_count=1)
        monkeypatch.setattr(backend_module, "MAX_RESTARTS", 0)
        try:
            _ping(backend, 0)
            _crash(backend, 0)
            with pytest.raises(WorkerCrashError, match="restarts"):
                _ping(backend, 0)
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
            assert len(backend._handles) == 1
        finally:
            backend.close()

    def test_close_is_idempotent_and_joins_workers(self):
        config = _iridium_box_config()
        processes = _coordinator(config, "processes")
        processes.update(0.0)
        handles = processes._backend._handles
        assert all(handle.process.is_alive() for handle in handles)
        processes.close()
        assert all(not handle.process.is_alive() for handle in handles)
        processes.close()  # idempotent
        threads = _coordinator(config, "threads")
        threads.update(0.0)
        threads.close()
        threads.close()  # idempotent for the thread backend too

    def test_close_joins_a_dead_worker_without_respawning_it(self):
        # A sweep in flight, then the only worker dies: close() drops the
        # sweep unverified and joins the dead process; no successor is
        # spawned from the replica only to be shut down.
        managers = [MachineManager(Host(index=0, allow_memory_overcommit=True))]
        backend = ProcessFanoutBackend(managers, worker_count=1)
        handle = backend._handles[0]
        backend.sample_all(0.0)
        process = handle.process
        _crash(backend, 0)
        backend.close()
        assert backend.restart_count == 0
        assert handle.process is process and not process.is_alive()
        assert not handle.inflight

    @pytest.mark.parametrize("parallelism", ["threads", "processes"])
    def test_a_closed_backend_refuses_work_and_spawns_nothing(self, parallelism):
        from repro.core import EpochRecord
        from repro.dist.backend import ThreadFanoutBackend

        managers = [MachineManager(Host(index=0, allow_memory_overcommit=True))]
        if parallelism == "threads":
            backend = ThreadFanoutBackend(managers)
        else:
            backend = ProcessFanoutBackend(managers, worker_count=1)
        backend.close()
        record = EpochRecord(epoch=1, active={}, flips={}, first=True)
        calls = [lambda: backend.apply_slices(record, 0.0), lambda: backend.sample_all(0.0)]
        if parallelism == "processes":
            calls.append(backend.worker_counters)
        for call in calls:
            with pytest.raises(RuntimeError, match="the fan-out backend has been closed"):
                call()
        if parallelism == "processes":
            assert backend.restart_count == 0
            assert not backend._handles[0].process.is_alive()
        assert [len(manager.host.trace) for manager in managers] == [0]


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
                view, row = testbed_p.machine(machine), testbed_t.machine(machine)
                assert view.state is row.state
                assert view.cpu_quota == row.cpu_quota
                assert testbed_p.processing_delay_s(
                    machine, 0.01, parallelism=4
                ) == testbed_t.processing_delay_s(machine, 0.01, parallelism=4)
        finally:
            testbed_t.close()
            testbed_p.close()

    def test_machine_views_agree_after_a_fault_program(self):
        # terminate → reboot → a reboot inside that boot's window → degrade:
        # Celestial.machine reads the same row under both backends, down to
        # the boot finish and the held-boot window.
        config = _iridium_box_config(update_interval_s=30.0, duration_s=120.0)
        testbeds = [Celestial(config), Celestial(config, parallelism="processes", worker_count=2)]
        try:
            reads = []
            for testbed in testbeds:
                hawaii = testbed.ground_station("hawaii")
                injector = testbed.fault_injector
                testbed.run(until=10.0)
                injector.terminate(hawaii, 10.0)
                testbed.run(until=12.0)
                injector.reboot(hawaii, 12.0)
                testbed.run(until=12.2)
                injector.reboot(hawaii, 12.2)
                injector.degrade_cpu(hawaii, 0.5, 12.2)
                view = testbed.machine(hawaii)
                machines = testbed.coordinator.manager_for(hawaii).host.machines
                reads.append(
                    (
                        view.state,
                        view.cpu_quota,
                        machines.boot_counts[machines.names.index(hawaii.name)],
                        view.boot_finished_at_s,
                        [view.state_at(12.2 + step / 20) for step in range(14)],
                        injector.events,
                    )
                )
            assert reads[0] == reads[1]
            state, quota, boots, finished, states, _ = reads[0]
            assert (state, quota, boots) == (MachineState.RUNNING, CPUQuota(8, 0.5), 3)
            assert states[0] is MachineState.BOOTING and states[-1] is MachineState.RUNNING
            assert 12.2 + 0.35 <= finished < 12.2 + 0.5
        finally:
            for testbed in testbeds:
                testbed.close()


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
    kind = program.choice(["create", "create", "stop", "reboot", "reboot", "quota", "busy"])
    if kind == "create" and absent:
        machine = program.choice(absent)
        for coordinator in (threads, processes):
            coordinator.create_machine(machine, now)
    elif kind == "stop":
        stoppable = [
            machine
            for machine in present
            if threads.manager_for(machine).machine(machine).state is not MachineState.STOPPED
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
    """With worker processes the driver's replica answers as the in-process rows do."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_lifecycle_programs_agree_step_by_step(self, seed):
        # Iridium through a bounding box, so satellites flip in and out
        # while machines are created, stopped, rebooted, throttled
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
                    row = threads.manager_for(machine).machine(machine)
                    assert view.state is row.state
                    assert view.cpu_quota == row.cpu_quota
                    assert view.boot_finished_at_s == row.boot_finished_at_s
                assert _bench_reads(threads) == _bench_reads(processes)
            # One more sweep flushes the last rows, so the checkpoints count them.
            assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
            assert sum(c[0] for c in _counters(processes)) > 0
            _assert_equivalent(threads, processes)
        finally:
            threads.close()
            processes.close()

    def test_a_refused_placement_draws_no_seed_on_either_side(self):
        # Host memory 1,536 MiB: satellite 0 (1,024) fits, 1 (1,024) is
        # refused and 2 (512) fits.  The refusal leaves no row, in process and on the
        # driver's replica alike; every seed is keyed by the machine's
        # identity, and the worker holds the same two rows.
        big, small = ComputeParams(1, 1024), ComputeParams(1, 512)
        in_process, replica = (
            MachineManager(Host(index=0, memory_mib=1536), rng=np.random.default_rng(7))
            for _ in range(2)
        )
        backend = ProcessFanoutBackend([replica], worker_count=1)
        try:
            for manager in (in_process, replica):
                manager.create_machines(MachineBatch.single("0.0.celestial", 0, 0, big), 0.0)
                with pytest.raises(HostError, match="cannot fit machine '1.0.celestial'"):
                    manager.create_machines(MachineBatch.single("1.0.celestial", 0, 1, big), 0.0)
                assert not manager.has_machine(MachineId(0, 1, "1.0.celestial"))
                manager.create_machines(MachineBatch.single("2.0.celestial", 0, 2, small), 0.0)
                assert manager.host.reserved_memory_mib() == 1536.0
            root = key_root(np.random.default_rng(7))
            seeds = [keyed(root, 0, identifier) >> 1 for identifier in (0, 2)]
            for manager in (in_process, replica):
                machines = manager.host.machines
                assert [machines[name].seed for name in ("0.0.celestial", "2.0.celestial")] == seeds
            assert backend.sample_all(0.0) == [in_process.sample_usage(0.0)]
            assert backend.worker_counters()[0]["rows"] == 2
        finally:
            backend.close()


class TestCrashSchedule:
    """Workers killed at seeded points recover to the thread backend's results."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_kills_keep_every_epoch_equal_to_the_thread_backend(self, seed, monkeypatch):
        # Iridium through a box, 3 hosts on 2 workers, 20 epochs with
        # lifecycle operations between them.  Before each epoch the schedule
        # picks one SIGKILL point, or none: with rows pending before the
        # update, right after the record went out, or before the sample.  A
        # kill is found when the acknowledgements are next collected — at
        # the latest by the checks of the same step, which collect.
        schedule = random.Random(seed)
        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        backend = processes._backend
        # No healthy streak decays the budget here.
        monkeypatch.setattr(backend_module, "MAX_RESTARTS", 20)
        apply_slices = backend.apply_slices
        kills = 0
        try:
            for step in range(20):
                now = step * 60.0
                point = schedule.choice(["pending", "in-flight", "sample", None])
                victim = schedule.randrange(2)
                kills += point is not None
                if point == "pending":
                    _crash(backend, victim)
                if point == "in-flight":
                    def send_then_kill(record, now_s, victim=victim):
                        apply_slices(record, now_s)
                        _crash(backend, victim)

                    backend.apply_slices = send_then_kill
                for coordinator in (threads, processes):
                    coordinator.update(now)
                backend.apply_slices = apply_slices
                _assert_equivalent(threads, processes)
                if point == "sample":
                    _crash(backend, victim)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
                _assert_equivalent(threads, processes)
                for offset in (1.0, 1.2, 1.5):
                    answers = _lifecycle_step(schedule, threads, processes, now + offset)
                    if answers is not None:
                        assert answers[0] == answers[1]
            assert kills >= 10
            assert backend.restart_count == kills
        finally:
            threads.close()
            processes.close()


class TestVerifiedOneEpochLate:
    """The driver answers every call itself; a worker is checked one request late."""

    def test_a_kill_between_send_and_collect_restarts_from_the_replica(self):
        # SIGKILL a worker after the epoch's record and sweep went out and
        # before the next record collects them.  The driver already answered
        # from its replica, which is ahead of both requests, so the successor
        # starts from it and neither request is sent again.
        config = _iridium_box_config(duration_s=2400.0)
        threads = _coordinator(config, "threads")
        processes = _coordinator(config, "processes")
        backend = processes._backend
        try:
            for step in range(8):
                now = step * 60.0
                for coordinator in (threads, processes):
                    coordinator.update(now)
                assert backend.restart_count == int(step > 2) + int(step > 5)
                assert threads.sample_all_usage(now) == processes.sample_all_usage(now)
                if step in (2, 5):
                    _crash(backend, step % 2)
            _assert_equivalent(threads, processes)
            assert sum(c[0] for c in _counters(processes)) > 0
        finally:
            threads.close()
            processes.close()

    @pytest.mark.parametrize("found_by", ["update", "close"])
    def test_a_forged_sample_is_a_desync_at_the_next_update_or_at_close(
        self, monkeypatch, found_by
    ):
        dispatch = _Worker._dispatch

        def forged(self, kind, meta, arrays):
            answer = dispatch(self, kind, meta, arrays)
            if kind is FrameKind.SAMPLE_USAGE and 0 in answer["sample_crc"]:
                answer["sample_crc"][0] ^= 1
            return answer

        monkeypatch.setattr(_Worker, "_dispatch", forged)  # before the fork
        processes = _coordinator(_iridium_box_config(), "processes")
        try:
            processes.update(0.0)
            processes.sample_all_usage(0.0)  # answered by the driver: no error yet
            with pytest.raises(WorkerDesyncError, match="host 0: the worker's sample_crc is"):
                if found_by == "update":
                    processes.update(60.0)
                else:
                    processes.close()
        finally:
            processes.close()

    def test_the_requests_in_flight_are_the_record_and_the_sweeps_since(self):
        program = random.Random(5)
        processes = _coordinator(_iridium_box_config(), "processes")
        handles = processes._backend._handles
        try:
            records = sweeps = 0
            now = 0.0
            for _ in range(30):
                if program.random() < 0.4:
                    processes.update(now)
                    records, sweeps = 1, 0
                    now += 60.0
                else:
                    processes.sample_all_usage(now)
                    sweeps += 1
                assert [len(handle.inflight) for handle in handles] == [records + sweeps] * 2
            processes._backend.worker_counters()
            assert [len(handle.inflight) for handle in handles] == [0, 0]
        finally:
            processes.close()

    def test_sweeps_without_a_record_keep_a_bounded_number_in_flight(self):
        # A testbed that samples on after its last update: no worker ever
        # holds more than MAX_IN_FLIGHT requests.
        processes = _coordinator(_iridium_box_config(), "processes")
        handles = processes._backend._handles
        try:
            processes.update(0.0)
            for sweep in range(50):
                processes.sample_all_usage(float(sweep))
                assert max(len(handle.inflight) for handle in handles) <= MAX_IN_FLIGHT
        finally:
            processes.close()

    def test_a_forged_sweep_among_them_is_a_desync_within_the_bound(self, monkeypatch):
        dispatch = _Worker._dispatch

        def forged(self, kind, meta, arrays):
            answer = dispatch(self, kind, meta, arrays)
            if kind is FrameKind.SAMPLE_USAGE and meta["sample_index"][0] == 20:
                if 0 in answer["sample_crc"]:
                    answer["sample_crc"][0] ^= 1
            return answer

        monkeypatch.setattr(_Worker, "_dispatch", forged)  # before the fork
        processes = _coordinator(_iridium_box_config(), "processes")
        trace = processes.managers[0].host.trace
        forged_at = None
        try:
            processes.update(0.0)
            with pytest.raises(WorkerDesyncError, match="host 0: the worker's sample_crc is"):
                for sweep in range(50):
                    if len(trace) == 20:
                        forged_at = sweep
                    processes.sample_all_usage(float(sweep))
            assert forged_at is not None and sweep - forged_at <= MAX_IN_FLIGHT
        finally:
            processes.close()


class TestSingleCopy:
    """The driver holds one machine table per host under either backend."""

    @pytest.mark.parametrize("parallelism", ["threads", "processes"])
    def test_the_driver_holds_one_row_per_machine(self, parallelism):
        # Those of earlier tests may still be alive: count what this set-up adds.
        gc.collect()
        held = {id(item) for item in gc.get_objects() if isinstance(item, MachineTable)}
        coordinator = _coordinator(_iridium_box_config(), parallelism)
        try:
            coordinator.update(0.0)
            coordinator.sample_all_usage(0.0)
            machines = sum(len(manager.host.machines) for manager in coordinator.managers)
            tables = [
                item
                for item in gc.get_objects()
                if isinstance(item, MachineTable) and id(item) not in held
            ]
            assert machines > 1
            assert len(tables) == len(coordinator.managers)
            assert sum(len(table) for table in tables) == machines
        finally:
            coordinator.close()
