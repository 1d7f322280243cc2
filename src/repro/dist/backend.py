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
  its own TCP connection.  The coordinator's own managers compute every
  answer; the workers repeat the work and check it.  It exists to exercise
  the remote-worker protocol, not to make one box faster.

The driver computes, the workers verify
---------------------------------------

With worker processes the managers the coordinator was given stay its
managers: each runs on the driver's own :class:`~repro.hosts.Host`, whose
table is the replica of the worker's, and answers every parent-side query
(placement, ``is_running_at``, fault injection, the virtual network's
running check, ``Celestial.machine``).  Each manager's
:attr:`~repro.core.machine_manager.MachineManager.sink` is its worker's
:class:`~repro.dist.wire.ControlBatch`: a lifecycle operation runs on the
replica and is buffered, flushed as one ``CONTROL`` frame before that
worker's next request.  A record is applied to the replica, then sent as one
``APPLY_EPOCH`` frame per worker; a usage sweep is taken on the replica (its
samples recorded into the hosts' traces, their noise keyed by the traces'
lengths, as in process), then sent as ``SAMPLE_USAGE``.  Neither call waits.

Each request keeps what its worker must answer, taken at send time: per host
the replica's :meth:`~repro.core.machine_manager.MachineManager.counters_snapshot`
and, for a sweep, its sample's CRC.  The acknowledgements in flight — the
last record's and the sweeps' since — are compared before the next record
goes out, before a request that would make :data:`MAX_IN_FLIGHT` of them, at
an explicit ``close()`` and in ``worker_counters()`` (never in a finaliser):
a :class:`WorkerDesyncError` — a ``CONTROL`` row lost, duplicated, run late
or on one side only, a sample computed differently — is raised one epoch or
:data:`MAX_IN_FLIGHT` requests late at most.  The replica is ahead of every
request in flight, so a crashed worker restarts from it and drops them.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core.machine_manager import EpochRecord, MachineManager
from repro.hosts.resources import UsageSample
from repro.dist.supervisor import WorkerSupervisor
from repro.dist.transport import TcpTransportFactory
from repro.dist import wire
from repro.dist.wire import FrameKind


#: Requests a worker may have in flight: a request sent while this many are
#: waiting collects them first, so a testbed that keeps sampling after its
#: last record holds acknowledgements back, not the socket buffers.
MAX_IN_FLIGHT = 8


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from the driver's replica."""


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
        self._hosts = workers = [
            dict(list(enumerate(managers))[index::worker_count]) for index in range(worker_count)
        ]
        self.supervisor = WorkerSupervisor(workers, transport=transport)
        # A sink holds its worker's batch only, so a dropped backend is still
        # finalised (and its workers joined) while the managers live on.
        for worker, hosts in enumerate(workers):
            for position, manager in hosts.items():
                manager.sink = partial(self.supervisor.control(worker).append, position)
        self._closed = False
        self._in_flight = 0
        self.supervisor.start()

    # -- plumbing -----------------------------------------------------------

    def _request(self, kind: FrameKind, meta: dict, arrays=(), samples=None) -> None:
        """Send one frame to every worker with what each must answer.

        That is, per host, the replica's checkpoint now and, for a sweep, the
        CRC of the replica's sample.  Once :data:`MAX_IN_FLIGHT` requests
        wait, they are collected first.
        """
        if self._in_flight >= MAX_IN_FLIGHT:
            self._collect()
        self._in_flight += 1
        expected = {}
        for worker, hosts in enumerate(self._hosts):
            expected[worker] = answers = {}
            for position, manager in hosts.items():
                answers[position] = manager.counters_snapshot()
                if samples is not None:
                    answers[position]["sample_crc"] = wire.sample_checksum(samples[position])
        self.supervisor.begin_request(kind, meta, arrays, expected=expected)

    def _collect(self) -> list[tuple[dict, dict]]:
        """Collect every acknowledgement in flight and compare it with its expectation."""
        workers = range(self.worker_count)
        acks = [ack for worker in workers for ack in self.supervisor.collect(worker)]
        self._in_flight = 0
        for ack, expected in acks:
            for position, answer in expected.items():
                held = dict(ack["counters"].get(position, {}))
                held["sample_crc"] = ack["sample_crc"].get(position)
                self._compare(self._managers[position].host.index, held, answer)
        return acks

    @staticmethod
    def _compare(host: int, held: dict, expected: dict) -> None:
        """The first key ``held`` differs in from ``expected`` is a :class:`WorkerDesyncError`."""
        for key, value in expected.items():
            theirs = held.get(key)
            if theirs == value:
                continue
            if key == "rows":
                difference = f"the worker holds {theirs} machines, the driver's replica {value}"
            else:
                difference = f"the worker's {key} is {theirs!r}, the driver's replica's {value!r}"
            raise WorkerDesyncError(f"host {host}: {difference}")

    # -- the calls the coordinator drives ------------------------------------

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on the replica, then send it to every worker.

        The acknowledgements of the requests before it are collected and
        compared first; the record's own is collected before the next one.
        """
        self._collect()
        self.supervisor.check()  # heartbeat sweep: restart idle-crashed workers
        for manager in self._managers:
            manager.apply_diff(record, now_s)
        meta, arrays = wire.slice_payload(record)
        meta["now_s"] = now_s
        self._request(FrameKind.APPLY_EPOCH, meta, arrays)

    # The benchmark's tracer still patches this name; ROADMAP item 1 (the
    # benchmark catch-up) deletes the alias together with that patch point.
    apply_full_state = apply_slices

    def sample_all(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ) -> list[UsageSample]:
        """One usage-sampling sweep on the replica, in position order, sent to the workers."""
        meta = {
            "now_s": now_s,
            "setup_phase": setup_phase,
            "applying_update": applying_update,
            "sample_index": [len(manager.host.trace) for manager in self._managers],
        }
        samples = [
            manager.sample_usage(now_s, setup_phase=setup_phase, applying_update=applying_update)
            for manager in self._managers
        ]
        self._request(FrameKind.SAMPLE_USAGE, meta, samples=samples)
        return samples

    # -- observability / fault injection -------------------------------------

    def worker_counters(self) -> dict[int, dict]:
        """Every host's checkpoint by position, fresh from its worker.

        The acknowledgements in flight are compared first; then every worker
        answers a ``PING``, sent again if a restart dropped it.
        """
        self._collect()
        counters: dict[int, dict] = {}
        while len(counters) < len(self._managers):
            self._request(FrameKind.PING, {})
            for ack, _expected in self._collect():
                counters.update(ack["counters"])
        return counters

    def drain_transport_latencies(self) -> dict[int, list[float]]:
        """Per-worker seconds from a request's send to its collect, drained from the supervisor."""
        return self.supervisor.drain_ack_latencies()

    @property
    def restart_count(self) -> int:
        """Number of worker restarts performed by the supervisor."""
        return self.supervisor.restart_count

    def close(self) -> None:
        """Collect and compare what is in flight, then join the worker pool (idempotent).

        A desync or a worker error found here is raised after the pool is joined.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._collect()
        finally:
            self.supervisor.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        # A finaliser never waits: the acknowledgements in flight are left.
        try:
            self._closed = True
            self.supervisor.close()
        except Exception:
            pass
