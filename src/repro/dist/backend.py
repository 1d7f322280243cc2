"""The fan-out seam behind the coordinator: in process, or over workers.

The coordinator publishes one
:class:`~repro.core.machine_manager.EpochRecord` per epoch — per shell the
activity mask and the mask of satellites that flipped — and every manager
applies the same record, picking out its own machines.  The network half of
an update stays on the coordinator's side (``VirtualNetwork.apply_diff``,
``ConstellationDatabase.pair_rule``) and crosses no seam.  *How* the record
reaches the managers is a backend concern; both backends answer the same
calls (``managers``, ``apply_slices``, ``sample_all``,
``drain_transport_latencies``, ``close``):

* :class:`ThreadFanoutBackend` — the managers live in the coordinator
  process and are handed the record object in a loop (the default; despite
  the name it starts no thread — a record is microseconds of pure-Python
  work per host, which a pool under the GIL would not parallelise).
* :class:`ProcessFanoutBackend` — the authoritative managers live in
  supervised worker processes (:mod:`repro.dist.worker`), each reached over
  its own TCP connection.  The record is encoded once per epoch and sent as
  one :mod:`repro.dist.wire` frame per worker; the workers apply it, take
  the per-host usage samples, and stream samples, counters and dirty-machine
  reconciliation results back, one acknowledgement per worker per epoch.  It
  exists to exercise the remote-worker protocol, not to make one box faster.

Shadow managers
---------------

In process mode the coordinator keeps the managers it was constructed with
as in-process **shadows**: they perform placement (reserved-memory balance),
dirty-machine tracking and the cheap O(flips) record bookkeeping, so
every parent-side query (``manager_for``, ``is_running_at``, fault
injection, the virtual network's running-check) stays a local call.  Usage
is sampled worker-side only (an O(1) reading of the host's kept accounting,
see :mod:`repro.hosts.host`); the shadows merely consume the same RNG draws
a sample performs
(:meth:`~repro.core.machine_manager.MachineManager.advance_sample_stream`),
which keeps both streams in lockstep with a single-process run — machines
created after a sample seed identically everywhere, so even sub-second boot
jitter is backend-invariant.  Returned usage samples are recorded into the
shadow hosts' traces so observability (``resource_traces()``) is
backend-agnostic.  After every fan-out the backend verifies the workers'
counters, RNG stream positions and reconciliation results against the
shadows and raises :class:`WorkerDesyncError` on any divergence, which turns
the backend-equivalence guarantee (and the correctness of crash recovery
from the checkpoint epoch's activity masks) into a runtime invariant.

Lifecycle operations arriving through :class:`MirroredManager` (the proxy
the coordinator hands out in process mode) are applied to the shadow and
buffered per worker, in program order, as rows of a
:class:`~repro.dist.wire.ControlBatch`; the batch is flushed as one durable
``CONTROL`` frame before that worker's next request.  The worker runs the
rows in the same order, which is what keeps its RNG streams in lockstep
with what a single-process run would have drawn.
"""

from __future__ import annotations

from typing import Optional

from repro.core.machine_manager import EpochRecord, MachineManager
from repro.hosts.resources import UsageSample
from repro.dist.supervisor import WorkerSupervisor
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import ControlBatch, ControlOp, FrameKind
from repro.dist.worker import HostSpec, WorkerSpec


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from its in-process shadow."""


class ThreadFanoutBackend:
    """In-process managers, visited in a loop: no thread is started.

    The name and the ``"threads"`` literal are what the CLI, the experiment
    specs and the benchmark spell.
    """

    parallelism = "threads"

    def __init__(self, managers: list[MachineManager]):
        self._managers = list(managers)
        self._closed = False

    @property
    def managers(self) -> list[MachineManager]:
        """The manager objects the coordinator hands out."""
        return self._managers

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the fan-out backend has been closed")

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on every manager."""
        self._check_open()
        for manager in self._managers:
            manager.apply_diff(record, now_s)

    # The benchmark's tracer still patches this name; ROADMAP item 1 (the
    # benchmark catch-up) deletes the alias together with that patch point.
    apply_full_state = apply_slices

    def sample_all(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ) -> list[UsageSample]:
        """One usage-sampling sweep across every host, in position order."""
        self._check_open()
        return [
            manager.sample_usage(
                now_s, setup_phase=setup_phase, applying_update=applying_update
            )
            for manager in self._managers
        ]

    def drain_transport_latencies(self) -> dict[int, list[float]]:
        """Empty: there is no transport to measure in process."""
        return {}

    def close(self) -> None:
        """Refuse further sweeps (idempotent; there is nothing to release)."""
        self._closed = True


class MirroredManager:
    """Coordinator-side proxy of a worker-owned manager.

    Lifecycle operations are applied to the in-process shadow (placement,
    dirty tracking, machine states) *and* appended as rows to the owning
    worker's :class:`~repro.dist.wire.ControlBatch`; reads delegate to the
    shadow.  Records and usage sweeps do not go through the proxy but through
    the backend (:meth:`ProcessFanoutBackend.apply_slices` / ``sample_all``):
    a sample is drawn from the worker's RNG stream and recorded into the
    shadow host's trace.
    """

    def __init__(
        self, shadow: MachineManager, supervisor: WorkerSupervisor, worker: int, position: int
    ):
        self._shadow = shadow
        self._supervisor = supervisor
        self._worker = worker
        self.position = position

    def __getattr__(self, name):
        return getattr(self._shadow, name)

    def _control(self) -> ControlBatch:
        return self._supervisor.control(self._worker)

    def create_machine(self, machine_id, compute, kernel=None, rootfs=None):
        machine = self._shadow.create_machine(machine_id, compute, kernel, rootfs)
        # The images ride the frame too, so the worker's authoritative copy
        # (and every ledger replay) is built from the shadow's images.
        self._control().create(self.position, machine_id, compute, kernel, rootfs)
        return machine

    def boot(self, machine_id, now_s: float) -> float:
        finished = self._shadow.boot(machine_id, now_s)
        self._control().append(ControlOp.BOOT, self.position, machine_id, now_s)
        return finished

    def boot_all(self, now_s: float) -> float:
        finished = self._shadow.boot_all(now_s)
        self._control().append(ControlOp.BOOT_CREATED, self.position, value=now_s)
        return finished

    def stop_machine(self, machine_id, now_s: float) -> None:
        self._shadow.stop_machine(machine_id, now_s)
        self._control().append(ControlOp.STOP, self.position, machine_id, now_s)

    def reboot_machine(self, machine_id, now_s: float) -> float:
        finished = self._shadow.reboot_machine(machine_id, now_s)
        self._control().append(ControlOp.REBOOT, self.position, machine_id, now_s)
        return finished

    def set_cpu_quota(self, machine_id, quota_fraction: float) -> None:
        self._shadow.set_cpu_quota(machine_id, quota_fraction)
        self._control().append(ControlOp.CPU_QUOTA, self.position, machine_id, quota_fraction)

    def set_busy_fraction(self, machine_id, fraction: float) -> None:
        self._shadow.set_busy_fraction(machine_id, fraction)
        self._control().append(ControlOp.BUSY, self.position, machine_id, fraction)

    def apply_state(self, *args, **kwargs) -> None:
        raise NotImplementedError(
            "record application and usage sampling are routed through the "
            "coordinator's fan-out backend in process mode"
        )

    # Not delegated to the shadow: a shadow that applied or sampled on its
    # own would leave the worker's counters and RNG stream behind.
    apply_diff = sample_usage = apply_state


class ProcessFanoutBackend:
    """Supervised worker processes behind the coordinator's fan-out seam.

    Frames reach every worker over its own TCP connection.  ``transport``
    takes a ready :class:`~repro.dist.transport.TcpTransportFactory` with the
    deployment settings — e.g. an external-mode factory whose workers are
    started by hand on other machines; ``None`` spawns loopback workers.
    """

    parallelism = "processes"

    def __init__(
        self,
        managers: list[MachineManager],
        worker_count: Optional[int] = None,
        max_restarts: int = 3,
        ack_timeout_s: float = 120.0,
        restart_decay_acks: int = 64,
        transport: Optional[TcpTransportFactory] = None,
    ):
        self._shadows = list(managers)
        if worker_count is None:
            worker_count = len(self._shadows)
        elif worker_count < 1:
            raise ValueError(f"worker_count must be at least 1, got {worker_count}")
        # Never more workers than hosts: the rest would own no manager.
        self.worker_count = worker_count = min(worker_count, len(self._shadows))
        # Hosts are partitioned round-robin over the workers; the worker
        # manager RNG streams start from the shadows' states *now*, before
        # any draw, so they replay exactly what a single-process run draws.
        self._worker_of = [
            position % worker_count for position in range(len(self._shadows))
        ]
        specs = [
            WorkerSpec(
                worker_index=index,
                hosts=tuple(
                    HostSpec(
                        position=position,
                        host_index=shadow.host.index,
                        cpu_cores=shadow.host.cpu_cores,
                        memory_mib=shadow.host.memory_mib,
                        allow_memory_overcommit=shadow.host.allow_memory_overcommit,
                        rng_state=shadow._rng.bit_generator.state,
                    )
                    for position, shadow in enumerate(self._shadows)
                    if position % worker_count == index
                ),
            )
            for index in range(worker_count)
        ]
        self.supervisor = WorkerSupervisor(
            specs,
            max_restarts=max_restarts,
            ack_timeout_s=ack_timeout_s,
            restart_decay_acks=restart_decay_acks,
            transport=transport,
        )
        self._proxies = [
            MirroredManager(shadow, self.supervisor, self._worker_of[position], position)
            for position, shadow in enumerate(self._shadows)
        ]
        self._closed = False

    # -- plumbing -----------------------------------------------------------

    @property
    def managers(self) -> list[MirroredManager]:
        return self._proxies

    @property
    def shadows(self) -> list[MachineManager]:
        """The in-process shadow managers (placement and bookkeeping)."""
        return self._shadows

    def _verify_counters(self, acks_by_worker: dict[int, dict]) -> None:
        """Check the workers' counter and RNG checkpoints against the shadows.

        Every lifecycle row was flushed before the request these acks answer,
        so a worker's manager streams must stand exactly where the shadows'
        do: a lost, duplicated or replayed-out-of-place ``CREATE`` row (one
        draw each) shows here, not when a usage sample later drifts.
        """
        for ack in acks_by_worker.values():
            for position, snapshot in ack["counters"].items():
                shadow = self._shadows[position]
                observed = (
                    snapshot["suspension_count"],
                    snapshot["resume_count"],
                    snapshot["applied_diffs"],
                )
                expected = (
                    shadow.suspension_count,
                    shadow.resume_count,
                    shadow.applied_diffs,
                )
                if observed != expected:
                    raise WorkerDesyncError(
                        f"host {shadow.host.index}: worker counters "
                        f"(suspensions, resumes, diffs) = {observed} diverged "
                        f"from the shadow's {expected}"
                    )
                if snapshot["rng_state"] != shadow._rng.bit_generator.state:
                    raise WorkerDesyncError(
                        f"host {shadow.host.index}: the worker's RNG stream "
                        f"diverged from the shadow's"
                    )

    # -- the calls the coordinator drives ------------------------------------

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on every manager: one frame per worker."""
        supervisor = self.supervisor
        supervisor.start()
        supervisor.check()  # heartbeat sweep: restart idle-crashed workers
        supervisor.begin_epoch(record, now_s)
        # The cheap O(flips) bookkeeping runs on the shadows while the
        # workers apply the record in parallel.
        for shadow in self._shadows:
            shadow.apply_diff(record, now_s)
        acks = {
            worker: supervisor.finish_request(worker)
            for worker in range(self.worker_count)
        }
        self._verify_counters(acks)
        for ack in acks.values():
            for position, outcomes in ack["reconciled"].items():
                shadow = self._shadows[position]
                for name, state_value in outcomes.items():
                    machine = shadow.host.machines.get(name)
                    if machine is None:
                        raise WorkerDesyncError(
                            f"the worker reconciled dirty machine {name!r}, which "
                            f"the shadow of host {shadow.host.index} does not host"
                        )
                    if machine.state.value != state_value:
                        raise WorkerDesyncError(
                            f"dirty machine {name!r} reconciled to {state_value!r} "
                            f"on the worker but {machine.state.value!r} on the shadow"
                        )

    # The benchmark's tracer still patches this name; ROADMAP item 1 (the
    # benchmark catch-up) deletes the alias together with that patch point.
    apply_full_state = apply_slices

    def sample_all(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ) -> list[UsageSample]:
        """One usage-sampling sweep across every host, in position order."""
        supervisor = self.supervisor
        supervisor.start()
        meta = {
            "now_s": now_s,
            "setup_phase": setup_phase,
            "applying_update": applying_update,
        }
        for worker in range(self.worker_count):
            supervisor.begin_request(worker, FrameKind.SAMPLE_USAGE, meta)
        # While the workers sample, the shadows consume the same RNG draws
        # (without sampling) so later machine creations seed identically on
        # both sides of the seam — see MachineManager.advance_sample_stream.
        for shadow in self._shadows:
            shadow.advance_sample_stream(
                setup_phase=setup_phase, applying_update=applying_update
            )
        samples: dict[int, UsageSample] = {}
        for worker in range(self.worker_count):
            ack = supervisor.finish_request(worker)
            for position, fields in ack["samples"].items():
                samples[position] = UsageSample(**fields)
        ordered = [samples[position] for position in sorted(samples)]
        for position in sorted(samples):
            self._shadows[position].host.trace.record(samples[position])
        return ordered

    # -- observability / fault injection -------------------------------------

    def worker_counters(self) -> dict[int, dict]:
        """Latest acknowledged per-position counters, straight from the workers."""
        counters: dict[int, dict] = {}
        for worker in range(self.worker_count):
            checkpoint = self.supervisor.checkpoint(worker)
            if checkpoint is not None:
                counters.update(checkpoint["counters"])
        return counters

    def drain_transport_latencies(self) -> dict[int, list[float]]:
        """Per-worker ack round-trip seconds, drained from the supervisor."""
        return self.supervisor.drain_ack_latencies()

    def crash_worker(self, worker: int) -> None:
        """Test hook: hard-kill one worker process."""
        self.supervisor.crash_worker(worker)

    @property
    def restart_count(self) -> int:
        """Number of worker restarts performed by the supervisor."""
        return self.supervisor.restart_count

    def close(self) -> None:
        """Drain and join the worker pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.supervisor.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
