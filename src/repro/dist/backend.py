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
* :class:`ProcessFanoutBackend` — the managers live in supervised worker
  processes (:mod:`repro.dist.worker`), each reached over its own TCP
  connection, and own every microVM.  The record is encoded once per epoch
  and sent as one :mod:`repro.dist.wire` frame per worker; the workers apply
  it, take the per-host usage samples, and stream samples, counters and the
  machines a record suspended or resumed back, one acknowledgement per
  worker per epoch.  It exists to exercise the remote-worker protocol, not
  to make one box faster.

The driver's ledger
-------------------

With worker processes the coordinator's side holds no microVM.  It keeps one
:class:`HostLedger` per host, which answers every parent-side query
(placement, ``is_running_at``, fault injection, the virtual network's
running check, ``Celestial.machine``) with a local read:

* per host, the reserved memory placement balances, the host's
  :class:`~repro.hosts.resources.ResourceTrace` the acknowledged usage
  samples are recorded into, and the host's manager RNG stream in lockstep
  with the worker's: one ``integers(0, 2**63)`` draw per created machine
  (its seed), and per usage sample the draws the worker's sample takes
  (:meth:`~repro.hosts.Host.sample_rng_draws`) skipped.  A machine created
  after a sample therefore seeds identically on both sides of the seam and
  in either backend, down to its sub-second boot jitter;
* per machine, one :class:`MachineRecord`: its seed, vCPUs and CPU quota,
  lifecycle state and boot times.  A boot's finish time is drawn from the
  machine's own generator (``default_rng(seed)``, one draw per boot) only
  when somebody asks — a query inside a boot window, a reboot's return
  value — so a set-up that nobody queries builds no generator here.

What only a worker decides comes back in its acknowledgement: the machines
an epoch record suspended or resumed, with their new states
(:meth:`~repro.core.machine_manager.MachineManager.apply_diff` on the worker
stays the one implementation of the reconcile rule), and the
suspend/resume/record counters of its checkpoint, which
:class:`MirroredManager` reads.  After every record the backend checks each
worker's RNG stream positions against the ledger's and that every reported
transition starts from the state the ledger holds, and raises
:class:`WorkerDesyncError` otherwise: a ``CREATE`` row lost, duplicated or
replayed out of place shows there, not when a usage sample later drifts.

Lifecycle operations arriving through :class:`MirroredManager` (the manager
the coordinator hands out in process mode) update the ledger and are
buffered per worker, in program order, as rows of a
:class:`~repro.dist.wire.ControlBatch`; the batch is flushed as one durable
``CONTROL`` frame before that worker's next request.  The worker runs the
rows in the same order, which is what keeps its RNG streams in lockstep
with what a single-process run would have drawn.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import ComputeParams
from repro.core.constellation import MachineId
from repro.core.machine_manager import EpochRecord, MachineManager
from repro.hosts import Host, HostError
from repro.hosts.resources import UsageSample
from repro.dist.supervisor import WorkerSupervisor
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import ControlBatch, ControlOp, FrameKind
from repro.dist.worker import HostSpec, WorkerSpec
from repro.microvm import CPUQuota, KernelImage, MachineState, MicroVMError, RootFilesystemImage
from repro.microvm.machine import (
    BOOTABLE_STATES,
    DOWN_STATES,
    MAX_BOOT_TIME_S,
    UNSTOPPABLE_STATES,
    boot_time_s,
)


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from the driver's ledger."""


#: The one transition an epoch record makes, either way round.
_SUSPEND_RESUME = {MachineState.RUNNING, MachineState.SUSPENDED}


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


class MachineRecord:
    """The ledger's row of one worker-owned machine, and a read-only view of it.

    ``state`` is the machine's current lifecycle state: what the operations
    sent made of it, and the suspends and resumes its worker reported.
    :meth:`state_at` answers for times at or after the latest lifecycle
    operation — the only times the discrete-event simulation asks about —
    exactly as :meth:`~repro.microvm.MicroVM.state_at` does: ``BOOTING``
    until every boot so far has finished, the current state after.
    ``cpu_quota`` is a copy; change the quota through the manager.
    """

    __slots__ = (
        "seed",
        "vcpu_count",
        "quota_fraction",
        "state",
        "boot_count",
        "boot_started_s",
        "_finished_s",
        "_held_s",
    )

    def __init__(self, seed: int, compute: ComputeParams):
        self.seed = seed
        self.vcpu_count = compute.vcpu_count
        self.quota_fraction = compute.cpu_quota
        self.state = MachineState.CREATED
        #: Boots so far; the k-th boot's duration is the k-th draw of the
        #: machine's generator.
        self.boot_count = 0
        self.boot_started_s = 0.0
        # The latest boot's finish time, once drawn.
        self._finished_s: Optional[float] = None
        # The latest finish of the earlier boots still running when the
        # latest one started: a microVM's log reads BOOTING until then.
        self._held_s = 0.0

    @property
    def cpu_quota(self) -> CPUQuota:
        """A copy of the machine's CPU quota."""
        return CPUQuota(self.vcpu_count, self.quota_fraction)

    @property
    def boot_finished_at_s(self) -> Optional[float]:
        """When the latest boot finishes (``None`` before the first boot)."""
        if self.boot_count and self._finished_s is None:
            draws = np.random.default_rng(self.seed).random(self.boot_count)
            self._finished_s = self.boot_started_s + boot_time_s(float(draws[-1]))
        return self._finished_s

    def state_at(self, time_s: float) -> MachineState:
        """The machine's state at ``time_s`` (no earlier than its latest operation)."""
        if (
            self.boot_count
            and time_s < self.boot_started_s + MAX_BOOT_TIME_S
            and (time_s < self._held_s or time_s < self.boot_finished_at_s)
        ):
            return MachineState.BOOTING
        return self.state

    def boot(self, now_s: float) -> None:
        """Start a boot (:meth:`~repro.microvm.MicroVM.boot`'s rule).

        Its finish time is drawn when first asked for, except that a boot
        started inside the previous one's window draws the previous finish
        now: the machine reads BOOTING until the later of the two.
        """
        if self.state not in BOOTABLE_STATES:
            raise MicroVMError(f"cannot boot machine in state {self.state.value}")
        if self.boot_count and now_s < self.boot_started_s + MAX_BOOT_TIME_S:
            self._held_s = max(self._held_s, self.boot_finished_at_s)
        self.state = MachineState.RUNNING
        self.boot_count += 1
        self.boot_started_s = now_s
        self._finished_s = None

    def stop(self) -> None:
        """Shut the machine down (:meth:`~repro.microvm.MicroVM.stop`'s rule)."""
        if self.state in UNSTOPPABLE_STATES:
            raise MicroVMError(f"cannot stop machine in state {self.state.value}")
        self.state = MachineState.STOPPED

    def reboot(self, now_s: float) -> None:
        """Stop unless down, then boot (:meth:`~repro.microvm.MicroVM.reboot`)."""
        if self.state not in DOWN_STATES:
            self.state = MachineState.STOPPED
        self.boot(now_s)


class HostLedger:
    """What the driver keeps of one worker-owned host.

    It stands where the :class:`~repro.hosts.Host` stands in process for
    every read of the coordinator's side: ``index``, ``machines`` (name →
    :class:`MachineRecord`, in creation order), ``reserved_memory_mib()``
    for placement and ``trace``, the host's resource trace the acknowledged
    usage samples are recorded into.  ``rng`` is the host's manager stream,
    kept in lockstep with the worker's.
    """

    def __init__(self, host: Host, rng: np.random.Generator):
        self.index = host.index
        self.memory_mib = host.memory_mib
        self.allow_memory_overcommit = host.allow_memory_overcommit
        self.trace = host.trace
        self.rng = rng
        self.machines: dict[str, MachineRecord] = {}
        self._reserved_memory_mib = 0

    def reserved_memory_mib(self) -> float:
        """Memory reserved by all placed machines (booted or not)."""
        return float(self._reserved_memory_mib)

    def place(self, name: str, compute: ComputeParams) -> MachineRecord:
        """Record a new machine: the placement checks of :meth:`Host.place`, then its seed."""
        if name in self.machines:
            raise HostError(f"machine {name!r} is already placed on host {self.index}")
        needed = self._reserved_memory_mib + compute.memory_mib
        if not self.allow_memory_overcommit and needed > self.memory_mib:
            raise HostError(
                f"host {self.index} cannot fit machine {name!r}: {needed:.0f} MiB "
                f"needed, {self.memory_mib} MiB available"
            )
        record = self.machines[name] = MachineRecord(
            int(self.rng.integers(0, 2**63)), compute
        )
        self._reserved_memory_mib = needed
        return record

    def machine(self, name: str) -> MachineRecord:
        """The record of a placed machine."""
        record = self.machines.get(name)
        if record is None:
            raise HostError(f"machine {name!r} is not placed on host {self.index}")
        return record


class MirroredManager:
    """Coordinator-side stand-in for a worker-owned manager.

    Lifecycle operations update the host's :class:`HostLedger` and are
    appended as rows to the owning worker's
    :class:`~repro.dist.wire.ControlBatch`; reads answer from the ledger,
    and the suspend/resume/record counters from the worker's last
    acknowledged checkpoint.  Records and usage sweeps do not go through the
    proxy but through the backend (:meth:`ProcessFanoutBackend.apply_slices`
    / ``sample_all``).  Unlike a ``MachineManager``'s, ``boot`` and
    ``boot_all`` return nothing: a finish time is drawn when somebody asks
    for it (``machine(m).boot_finished_at_s``), and the coordinator's
    set-up, which boots every machine it creates, asks for none.
    """

    def __init__(
        self, manager: MachineManager, supervisor: WorkerSupervisor, worker: int, position: int
    ):
        self.host = HostLedger(manager.host, manager._rng)
        self._supervisor = supervisor
        self._worker = worker
        self.position = position

    def _control(self) -> ControlBatch:
        return self._supervisor.control(self._worker)

    def _counter(self, name: str) -> int:
        checkpoint = self._supervisor.checkpoint(self._worker)
        return 0 if checkpoint is None else checkpoint["counters"][self.position][name]

    @property
    def suspension_count(self) -> int:
        return self._counter("suspension_count")

    @property
    def resume_count(self) -> int:
        return self._counter("resume_count")

    @property
    def applied_diffs(self) -> int:
        return self._counter("applied_diffs")

    def machine(self, machine_id: MachineId) -> MachineRecord:
        """The ledger's read-only view of a machine of this host."""
        return self.host.machine(machine_id.name)

    def is_running_at(self, machine_id: MachineId, now_s: float) -> bool:
        """Whether a machine is running (boot finished, not suspended) at a time."""
        record = self.host.machines.get(machine_id.name)
        return record is not None and record.state_at(now_s) is MachineState.RUNNING

    def create_machine(
        self,
        machine_id: MachineId,
        compute: ComputeParams,
        kernel: Optional[KernelImage] = None,
        rootfs: Optional[RootFilesystemImage] = None,
    ) -> MachineRecord:
        record = self.host.place(machine_id.name, compute)
        # The images ride the frame, so the worker's microVM (and every
        # ledger replay) is built from them.
        self._control().create(self.position, machine_id, compute, kernel, rootfs)
        return record

    def boot(self, machine_id: MachineId, now_s: float) -> None:
        self.machine(machine_id).boot(now_s)
        self._control().append(ControlOp.BOOT, self.position, machine_id, now_s)

    def boot_all(self, now_s: float) -> None:
        for record in self.host.machines.values():
            if record.state is MachineState.CREATED:
                record.boot(now_s)
        self._control().append(ControlOp.BOOT_CREATED, self.position, value=now_s)

    def stop_machine(self, machine_id: MachineId, now_s: float) -> None:
        self.machine(machine_id).stop()
        self._control().append(ControlOp.STOP, self.position, machine_id, now_s)

    def reboot_machine(self, machine_id: MachineId, now_s: float) -> float:
        record = self.machine(machine_id)
        record.reboot(now_s)
        self._control().append(ControlOp.REBOOT, self.position, machine_id, now_s)
        return record.boot_finished_at_s

    def set_cpu_quota(self, machine_id: MachineId, quota_fraction: float) -> None:
        record = self.machine(machine_id)
        record.quota_fraction = CPUQuota(record.vcpu_count, quota_fraction).quota_fraction
        self._control().append(ControlOp.CPU_QUOTA, self.position, machine_id, quota_fraction)

    def set_busy_fraction(self, machine_id: MachineId, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("busy fraction must be in [0, 1]")
        self.machine(machine_id)
        self._control().append(ControlOp.BUSY, self.position, machine_id, fraction)


class ProcessFanoutBackend:
    """Supervised worker processes behind the coordinator's fan-out seam.

    Frames reach every worker over its own TCP connection.  ``transport``
    takes a ready :class:`~repro.dist.transport.TcpTransportFactory` with the
    deployment settings — e.g. an external-mode factory whose workers are
    started by hand on other machines; ``None`` spawns loopback workers.
    ``managers`` are the hosts' blueprints: each one's host and RNG stream,
    before any machine exists.
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
        managers = list(managers)
        if worker_count is None:
            worker_count = len(managers)
        elif worker_count < 1:
            raise ValueError(f"worker_count must be at least 1, got {worker_count}")
        # Never more workers than hosts: the rest would own no manager.
        self.worker_count = worker_count = min(worker_count, len(managers))
        # Hosts are partitioned round-robin over the workers; the worker
        # manager RNG streams start from the managers' states *now*, before
        # any draw, so they replay exactly what a single-process run draws.
        self._worker_of = [position % worker_count for position in range(len(managers))]
        specs = [
            WorkerSpec(
                worker_index=index,
                hosts=tuple(
                    HostSpec(
                        position=position,
                        host_index=manager.host.index,
                        cpu_cores=manager.host.cpu_cores,
                        memory_mib=manager.host.memory_mib,
                        allow_memory_overcommit=manager.host.allow_memory_overcommit,
                        rng_state=manager._rng.bit_generator.state,
                    )
                    for position, manager in enumerate(managers)
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
            MirroredManager(manager, self.supervisor, self._worker_of[position], position)
            for position, manager in enumerate(managers)
        ]
        self._closed = False

    # -- plumbing -----------------------------------------------------------

    @property
    def managers(self) -> list[MirroredManager]:
        return self._proxies

    def _settle(self, acks_by_worker: dict[int, dict]) -> None:
        """Check an epoch's acknowledgements against the ledger, then take them in.

        Every lifecycle row was flushed before the record these acks answer,
        so a worker's manager streams must stand exactly where the ledger's
        do: a lost, duplicated or replayed-out-of-place ``CREATE`` row (one
        draw each) shows here.  Each machine the record suspended (resumed)
        must be one the ledger holds as running (suspended).
        """
        for ack in acks_by_worker.values():
            for position, snapshot in ack["counters"].items():
                host = self._proxies[position].host
                if snapshot["rng_state"] != host.rng.bit_generator.state:
                    raise WorkerDesyncError(
                        f"host {host.index}: the worker's RNG stream diverged "
                        f"from the driver's"
                    )
            for position, transitions in ack["transitions"].items():
                host = self._proxies[position].host
                for name, state_value in transitions.items():
                    record = host.machines.get(name)
                    state = MachineState(state_value)
                    if record is None or {record.state, state} != _SUSPEND_RESUME:
                        held = "absent" if record is None else record.state.value
                        raise WorkerDesyncError(
                            f"host {host.index}: the worker took machine {name!r} "
                            f"to {state_value!r}; the driver's ledger holds it {held}"
                        )
                    record.state = state

    # -- the calls the coordinator drives ------------------------------------

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on every manager: one frame per worker."""
        supervisor = self.supervisor
        supervisor.start()
        supervisor.check()  # heartbeat sweep: restart idle-crashed workers
        supervisor.begin_epoch(record, now_s)
        self._settle(
            {worker: supervisor.finish_request(worker) for worker in range(self.worker_count)}
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
        # While the workers sample, the ledger skips the same draws of every
        # host's stream, so later machine creations seed identically on both
        # sides of the seam.
        draws = Host.sample_rng_draws(setup_phase=setup_phase, applying_update=applying_update)
        for proxy in self._proxies:
            proxy.host.rng.random(draws)
        samples: dict[int, UsageSample] = {}
        for worker in range(self.worker_count):
            ack = supervisor.finish_request(worker)
            for position, fields in ack["samples"].items():
                samples[position] = UsageSample(**fields)
        ordered = [samples[position] for position in sorted(samples)]
        for position in sorted(samples):
            self._proxies[position].host.trace.record(samples[position])
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
