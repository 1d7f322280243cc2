"""The fan-out seam behind the coordinator: in process, or over workers.

The coordinator publishes one
:class:`~repro.core.machine_manager.EpochRecord` per epoch — per shell the
activity mask and the mask of satellites that flipped — and every manager
applies the same record, picking out its own machines.  The network half of
an update stays on the coordinator's side (``VirtualNetwork.apply_diff``,
``ConstellationDatabase.pair_rule``) and crosses no seam.  *How* the record
reaches the managers is a backend concern; both backends answer the same
calls (``apply_slices``, ``sample_all``, ``drain_transport_latencies``,
``close``):

* :class:`ThreadFanoutBackend` — the managers live in the coordinator
  process and are handed the record object in a loop (the default; despite
  the name it starts no thread — a record is microseconds of pure-Python
  work per host, which a pool under the GIL would not parallelise).
* :class:`ProcessFanoutBackend` — every host's machines also live in a
  supervised worker process (:mod:`repro.dist.worker`), each reached over
  its own TCP connection.  The record is encoded once per epoch and sent as
  one :mod:`repro.dist.wire` frame per worker; the workers apply it, take
  the per-host usage samples and stream samples and checkpoints back, one
  acknowledgement per worker per request.  It exists to exercise the
  remote-worker protocol, not to make one box faster.

The driver's replica
--------------------

With worker processes the managers the coordinator was given stay its
managers: each runs on the driver's own :class:`~repro.hosts.Host`, whose
table is the replica of the worker's, and answers every parent-side query
(placement, ``is_running_at``, fault injection, the virtual network's
running check, ``Celestial.machine``).  The backend points each manager's
:attr:`~repro.core.machine_manager.MachineManager.sink` at its worker's
:class:`~repro.dist.wire.ControlBatch`, so every lifecycle operation runs on
the replica and is buffered for the worker in program order; the batch is
flushed as one ``CONTROL`` frame before that worker's next request, and the
worker runs the rows in the same order.  Each record is applied to the
replica managers once every worker acknowledged it, so both sides run one
reconcile rule on the same rows, and a worker restarted meanwhile starts
from the replica as the record found it (:mod:`repro.dist.supervisor`).
The pool starts with the backend, from the replica's tables as they are
then.  Usage samples come from the workers: a
``SAMPLE_USAGE`` frame carries each host's sample index, the length of its
replica's trace, which keys the sample's noise.

The seam decides no machine state: it moves rows and compares checkpoints.
Every acknowledgement of a record or a usage sweep carries each of the
worker's hosts' :meth:`~repro.core.machine_manager.MachineManager.counters_snapshot`,
and the backend compares it key by key with the replica manager's — row
count, counters, dirty set and a checksum of every machine's state — and
raises :class:`WorkerDesyncError` at the first difference: a ``CONTROL`` row
lost, duplicated, run late or run on one side only shows there, not when a
usage sample later drifts.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core.machine_manager import EpochRecord, MachineManager
from repro.hosts.resources import UsageSample
from repro.dist.supervisor import WorkerSupervisor
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import FrameKind


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from the driver's replica."""


def _forward(supervisor: WorkerSupervisor, worker: int, position: int, op, machine, value):
    """Buffer one lifecycle row a replica manager ran for its worker.

    A replica manager's sink holds the supervisor, not the backend, so a
    dropped backend is still finalised (and its workers joined) while the
    managers live on.
    """
    supervisor.control(worker).append(op, position, machine, value)


class ThreadFanoutBackend:
    """In-process managers, visited in a loop: no thread is started.

    The name and the ``"threads"`` literal are what the CLI, the experiment
    specs and the benchmark spell.
    """

    parallelism = "threads"

    def __init__(self, managers: list[MachineManager]):
        self._managers = list(managers)
        self._closed = False

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


class ProcessFanoutBackend:
    """Supervised worker processes behind the coordinator's fan-out seam.

    Frames reach every worker over its own TCP connection.  ``transport``
    takes a ready :class:`~repro.dist.transport.TcpTransportFactory` with the
    deployment settings — e.g. an external-mode factory whose workers are
    started by hand on other machines; ``None`` spawns loopback workers.
    Each of ``managers`` becomes the driver's replica of its host, and the
    workers start from them as they are.
    """

    parallelism = "processes"

    def __init__(
        self,
        managers: list[MachineManager],
        worker_count: Optional[int] = None,
        transport: Optional[TcpTransportFactory] = None,
    ):
        self._managers = managers = list(managers)
        if worker_count is None:
            worker_count = len(managers)
        elif worker_count < 1:
            raise ValueError(f"worker_count must be at least 1, got {worker_count}")
        # Never more workers than hosts: the rest would own no manager.
        self.worker_count = worker_count = min(worker_count, len(managers))
        # Hosts are partitioned round-robin over the workers.
        self._worker_of = [position % worker_count for position in range(len(managers))]
        workers = [
            {
                position: manager
                for position, manager in enumerate(managers)
                if self._worker_of[position] == index
            }
            for index in range(worker_count)
        ]
        self.supervisor = WorkerSupervisor(workers, transport=transport)
        for position, manager in enumerate(managers):
            manager.sink = partial(_forward, self.supervisor, self._worker_of[position], position)
        self._closed = False
        self.supervisor.start()

    # -- plumbing -----------------------------------------------------------

    def _compare(self, ack: dict) -> None:
        """Compare every host checkpoint of an acknowledgement with its replica manager's.

        Every lifecycle row was flushed before the request this ack answers
        and every record was applied on both sides, so the two snapshots are
        equal; the first key that differs is a :class:`WorkerDesyncError`.
        """
        for position, checkpoint in ack["counters"].items():
            manager = self._managers[position]
            for key, value in manager.counters_snapshot().items():
                held = checkpoint.get(key)
                if held == value:
                    continue
                if key == "rows":
                    difference = f"the worker holds {held} machines, the driver's replica {value}"
                else:
                    difference = f"the worker's {key} is {held!r}, the driver's replica's {value!r}"
                raise WorkerDesyncError(f"host {manager.host.index}: {difference}")

    # -- the calls the coordinator drives ------------------------------------

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on every manager: one frame per worker."""
        supervisor = self.supervisor
        supervisor.check()  # heartbeat sweep: restart idle-crashed workers
        supervisor.begin_epoch(record, now_s)
        acks = [supervisor.finish_request(worker) for worker in range(self.worker_count)]
        # Only now the replica applies the record: a worker restarted while
        # its ack was awaited started from the replica as the record found it.
        for manager in self._managers:
            manager.apply_diff(record, now_s)
        for ack in acks:
            self._compare(ack)

    # The benchmark's tracer still patches this name; ROADMAP item 1 (the
    # benchmark catch-up) deletes the alias together with that patch point.
    apply_full_state = apply_slices

    def sample_all(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ) -> list[UsageSample]:
        """One usage-sampling sweep across every host, in position order."""
        supervisor = self.supervisor
        meta = {
            "now_s": now_s,
            "setup_phase": setup_phase,
            "applying_update": applying_update,
            "sample_index": [len(manager.host.trace) for manager in self._managers],
        }
        for worker in range(self.worker_count):
            supervisor.begin_request(worker, FrameKind.SAMPLE_USAGE, meta)
        samples: dict[int, UsageSample] = {}
        for worker in range(self.worker_count):
            ack = supervisor.finish_request(worker)
            self._compare(ack)
            for position, fields in ack["samples"].items():
                samples[position] = UsageSample(**fields)
        ordered = [samples[position] for position in sorted(samples)]
        for position in sorted(samples):
            self._managers[position].host.trace.record(samples[position])
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
