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
  connection, and apply the records to their hosts' machine tables.  The record is encoded once per epoch
  and sent as one :mod:`repro.dist.wire` frame per worker; the workers apply
  it, take the per-host usage samples, and stream samples, counters and the
  machines a record suspended or resumed back, one acknowledgement per
  worker per epoch.  It exists to exercise the remote-worker protocol, not
  to make one box faster.

The driver's replica
--------------------

With worker processes the driver keeps a replica of every worker's
:class:`~repro.microvm.MachineTable`, on its own :class:`~repro.hosts.Host`,
and answers every parent-side query (placement, ``is_running_at``, fault
injection, the virtual network's running check, ``Celestial.machine``) from
it.  :class:`MirroredManager` runs the same lifecycle operations
(:class:`~repro.core.machine_manager.MachineControl`) on the replica as the
worker's manager runs on its table, so both hold the same rows: the same
placement checks, the same boot, stop and quota rules, and boot finishes
drawn from ``default_rng(seed)`` only when somebody asks.  A machine's seed
is keyed by the manager's key root and the machine's identity, and a usage
sample's noise by the host and the sample's index
(:func:`repro.sim.rng.keyed`), so no random stream has to be replayed in
step on the two sides: the driver sends each sample's index (its replica
trace's length) with the ``SAMPLE_USAGE`` frame.

What only a worker decides comes back in its acknowledgement: the machines
an epoch record suspended or resumed
(:meth:`~repro.core.machine_manager.MachineManager.apply_diff` on the worker
stays the one implementation of the reconcile rule), which the replica then
applies, and the suspend/resume/record counters of its checkpoint, which
:class:`MirroredManager` reads.  After every record the backend checks each
worker's row count per host against the replica's and that every reported
transition starts from the state the replica holds, and raises
:class:`WorkerDesyncError` otherwise: a ``CREATE`` row lost, duplicated or
run late shows there, not when a usage sample later drifts.

Each operation the mirror runs is also buffered per worker, in program
order, as a row of a :class:`~repro.dist.wire.ControlBatch`; the batch is
flushed as one durable ``CONTROL`` frame before that worker's next request,
and the worker runs the rows in the same order.
"""

from __future__ import annotations

from typing import Optional

from repro.core.machine_manager import EpochRecord, MachineControl, MachineManager
from repro.hosts.resources import UsageSample
from repro.dist.supervisor import WorkerSupervisor
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import FrameKind
from repro.dist.worker import HostSpec, WorkerSpec
from repro.microvm import MachineState


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from the driver's replica."""


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


class MirroredManager(MachineControl):
    """Coordinator-side stand-in for a worker-owned manager.

    ``host`` is the driver's host, whose table is the replica of the
    worker's.  Lifecycle operations run on the replica (the same
    :class:`~repro.core.machine_manager.MachineControl` the worker's manager
    runs) and are appended as rows to the owning worker's
    :class:`~repro.dist.wire.ControlBatch`; reads answer from the replica,
    and the suspend/resume/record counters from the worker's last
    acknowledged checkpoint.  Records and usage sweeps do not go through the
    proxy but through the backend (:meth:`ProcessFanoutBackend.apply_slices`
    / ``sample_all``).
    """

    def __init__(
        self, manager: MachineManager, supervisor: WorkerSupervisor, worker: int, position: int
    ):
        super().__init__(manager.host, manager.key_root)
        self._supervisor = supervisor
        self._worker = worker
        self.position = position

    def _record(self, op, machine, value, changed) -> None:
        self._supervisor.control(self._worker).append(op, self.position, machine, value)

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


class ProcessFanoutBackend:
    """Supervised worker processes behind the coordinator's fan-out seam.

    Frames reach every worker over its own TCP connection.  ``transport``
    takes a ready :class:`~repro.dist.transport.TcpTransportFactory` with the
    deployment settings — e.g. an external-mode factory whose workers are
    started by hand on other machines; ``None`` spawns loopback workers.
    ``managers`` are the hosts' blueprints: each one's host and key root,
    before any machine exists.
    """

    parallelism = "processes"

    def __init__(
        self,
        managers: list[MachineManager],
        worker_count: Optional[int] = None,
        transport: Optional[TcpTransportFactory] = None,
    ):
        managers = list(managers)
        if worker_count is None:
            worker_count = len(managers)
        elif worker_count < 1:
            raise ValueError(f"worker_count must be at least 1, got {worker_count}")
        # Never more workers than hosts: the rest would own no manager.
        self.worker_count = worker_count = min(worker_count, len(managers))
        # Hosts are partitioned round-robin over the workers.
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
                        key_root=manager.key_root,
                    )
                    for position, manager in enumerate(managers)
                    if position % worker_count == index
                ),
            )
            for index in range(worker_count)
        ]
        self.supervisor = WorkerSupervisor(specs, transport=transport)
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
        """Check an epoch's acknowledgements against the replica, then take them in.

        Every lifecycle row was flushed before the record these acks answer,
        so a worker's hosts must hold exactly as many machines as the
        replica's: a lost, duplicated or late ``CREATE`` row shows here.
        Each machine the record suspended (resumed) must be one the replica
        holds as running (suspended).
        """
        for ack in acks_by_worker.values():
            for position, snapshot in ack["counters"].items():
                host = self._proxies[position].host
                if snapshot["rows"] != len(host.machines):
                    raise WorkerDesyncError(
                        f"host {host.index}: the worker holds {snapshot['rows']} "
                        f"machines, the driver's replica {len(host.machines)}"
                    )
            for position, transitions in ack["transitions"].items():
                host = self._proxies[position].host
                machines = host.machines
                for name, state_value in transitions.items():
                    held = machines.state(name) if name in machines else None
                    state = MachineState(state_value)
                    if held is None or {held, state} != _SUSPEND_RESUME:
                        raise WorkerDesyncError(
                            f"host {host.index}: the worker took machine {name!r} "
                            f"to {state_value!r}; the driver's replica holds it "
                            f"{'absent' if held is None else held.value}"
                        )
                    if state is MachineState.SUSPENDED:
                        machines.suspend(name)
                    else:
                        machines.resume(name)

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
            "sample_index": [len(proxy.host.trace) for proxy in self._proxies],
        }
        for worker in range(self.worker_count):
            supervisor.begin_request(worker, FrameKind.SAMPLE_USAGE, meta)
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
