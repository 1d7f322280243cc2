"""The fan-out seam behind the coordinator: in process, or over workers.

The coordinator publishes one
:class:`~repro.core.machine_manager.EpochRecord` per epoch — per shell the
activity mask and the mask of satellites that flipped — and every manager
applies the same record, picking out its own machines.  The network half of
an update stays on the coordinator's side (``VirtualNetwork.apply_diff``,
``ConstellationDatabase.pair_rule``) and crosses no seam.  *How* the record
reaches the managers is a backend concern; both backends answer the same
calls (``apply_slices``, ``sample_all``, ``drain_transport_latencies``,
``close``) and refuse the first two once closed:

* :class:`ThreadFanoutBackend` — the managers live in the coordinator
  process and are handed the record object in a loop (the default; despite
  the name it starts no thread — a record is microseconds of pure-Python
  work per host, which a pool under the GIL would not parallelise).
* :class:`ProcessFanoutBackend` — every host's machines also live in a
  worker process (:mod:`repro.dist.worker`) of a pool the backend spawns,
  watches and restarts, each reached over its own TCP connection obtained
  from a :class:`~repro.dist.transport.TcpTransportFactory` — loopback
  workers it spawned or operator-started remote ones alike.  The
  coordinator's own managers compute every answer; the workers repeat the
  work and check it.  It exists to exercise the remote-worker protocol, not
  to make one box faster.

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

Each request keeps, per worker, what that worker must answer, taken at send
time: per host the replica's
:meth:`~repro.core.machine_manager.MachineManager.counters_snapshot` and,
for a sweep, its sample's CRC.  The acknowledgements in flight — the last
record's and the sweeps' since — are compared before the next record goes
out, before a request that would make :data:`MAX_IN_FLIGHT` of them, at an
explicit ``close()`` and in ``worker_counters()`` (never in the finaliser or
the interpreter-exit hook): a :class:`WorkerDesyncError` — a ``CONTROL`` row
lost, duplicated, run late or on one side only, a sample computed
differently — is raised one epoch or :data:`MAX_IN_FLIGHT` requests late at
most.  Before each record a heartbeat sweep restarts the workers found dead.

Start and crash recovery
------------------------

Every worker, at pool start and after every crash, starts the same way: its
``SPEC`` frame carries each of its hosts as the replica holds it at that
moment — machine table, counters, dirty set, key root (empty tables at pool
start).  A crash is detected four ways: a broken/EOF transport while sending
or collecting, a heartbeat sweep finding the process dead, an ack wait
observing process exit, or — for a worker that *wedges while staying
alive* — the :data:`ACK_TIMEOUT_S` receive deadline expiring (the wedged process
is killed before its successor spawns).  One rule makes recovery exact:

* **A worker (re)spawned from the replica drops the rows still pending for
  it and the requests still in flight.**  The backend runs every row, record
  and sample on the replica before it sends it, so the replica is ahead of
  all of them and the ``SPEC`` already holds what they do: sending them too
  would apply them twice.  Nothing is re-sent, and the dropped requests go
  unverified.  (That is also why the pool spawns as the backend is built,
  on empty tables: started by a first operation, the pool would take that
  operation in the ``SPEC`` and again as a row.)

Restarts are bounded by :data:`MAX_RESTARTS` per worker — but the budget
*decays*: after :data:`RESTART_DECAY_ACKS` healthy acknowledged requests the
counter resets to zero, so transient crashes spread over a long-running sim
never add up to a fatal budget exhaustion, while a crash loop (which never
stays healthy long enough to decay) still hits the bound.
"""

from __future__ import annotations

import atexit
import time
import weakref
from collections import deque
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.core.machine_manager import EpochRecord, MachineManager
from repro.hosts.resources import UsageSample
from repro.dist import wire
from repro.dist.transport import TcpTransportFactory, TransportTimeout
from repro.dist.wire import FrameKind


#: Requests a worker may have in flight: a request sent while this many are
#: waiting collects them first, so a testbed that keeps sampling after its
#: last record holds acknowledgements back, not the socket buffers.
MAX_IN_FLIGHT = 8
#: Restarts of one worker before its crash is fatal (the budget decays).
MAX_RESTARTS = 3
#: Seconds a worker has to acknowledge a request before it counts as wedged.
ACK_TIMEOUT_S = 120.0
#: Healthy acknowledged requests after which a worker's restart budget resets.
RESTART_DECAY_ACKS = 64


class WorkerDesyncError(RuntimeError):
    """A worker's observable state diverged from the driver's replica."""


class WorkerCrashError(RuntimeError):
    """A worker died (detected via transport, heartbeat, exit or timeout)."""


class WorkerTimeoutError(WorkerCrashError):
    """A live worker failed to acknowledge within :data:`ACK_TIMEOUT_S`.

    Subclasses :class:`WorkerCrashError` so a wedged-but-alive worker takes
    the same kill/respawn path as a dead one.
    """


class WorkerRemoteError(RuntimeError):
    """A worker reported an exception while executing a frame."""


def _by_position(pairs: Any, kind: type) -> dict[int, Any]:
    """``[position, value]`` pairs as a dict; ``ValueError`` unless each value is a ``kind``."""
    if isinstance(pairs, list) and all(
        isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is kind
        for pair in pairs
    ):
        return dict(pairs)
    raise ValueError(f"not a list of [position, {kind.__name__}] pairs")


def _checked_ack(worker: int, kind: FrameKind, meta: dict[str, Any], seq: int) -> dict[str, Any]:
    """The acknowledgement of request ``seq``, checked where it was decoded.

    A worker may be remote, so its answer is network input: an ``ERROR``
    without a traceback, errors that are not strings or per-host answers
    that are not ``[position, value]`` pairs are a :class:`WorkerCrashError`,
    the path a corrupt frame takes.  Returns the per-host answers as dicts
    by position (``sample_crc`` empty for a request that took no sample).
    """
    if kind is not FrameKind.ERROR and (kind is not FrameKind.ACK or meta.get("seq") != seq):
        raise WorkerRemoteError(
            f"worker {worker} sent unexpected {kind.name} (seq {meta.get('seq')!r}, expected {seq})"
        )
    errors = meta.get("deferred_errors", [])
    try:
        if kind is FrameKind.ERROR:
            raise WorkerRemoteError(f"worker {worker} failed:\n" + meta["traceback"])
        if not isinstance(errors, list) or not all(isinstance(error, str) for error in errors):
            raise ValueError("deferred errors that are not a list of strings")
        answer = {
            "counters": _by_position(meta.get("counters"), dict),
            "sample_crc": _by_position(meta.get("sample_crc", []), int),
        }
    except (KeyError, TypeError, ValueError) as error:
        raise WorkerCrashError(f"worker {worker} sent a malformed {kind.name}: {error!r}") from error
    if errors:
        raise WorkerRemoteError(f"worker {worker} control-frame errors: " + "; ".join(errors))
    return answer


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

    # Kept while the benchmark's tracer (bench/trace.py) patches this name;
    # ROADMAP item 3 deletes the alias together with the patch list.
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


class _Handle:
    """Book-keeping of one worker of the pool."""

    def __init__(self, index: int, managers: dict[int, MachineManager]):
        self.index = index
        #: The driver's replica managers of the worker's hosts, by position.
        self.managers = managers
        self.process = None
        self.conn = None
        #: Lifecycle rows not yet sent; flushed before the next request.
        self.control = wire.ControlBatch()
        #: (sequence, monotonic send time, answers by position) per request
        #: in flight: what the worker must answer, taken at send time.
        self.inflight: deque[tuple[int, float, dict[int, dict]]] = deque()
        self.restarts = 0
        # Healthy acknowledged requests since the last restart; at
        # :data:`RESTART_DECAY_ACKS` the restart budget resets (transient
        # crashes over a long run must not accumulate into a death).
        self.healthy_acks = 0
        # Set when a send observed a broken stream: recovery is deferred to
        # the next collect or heartbeat.
        self.dead = False


#: Pools not yet dropped.  Weak, so the interpreter-exit hook keeps none of
#: them alive: a dropped pool is still finalised while its managers live on.
_LIVE_POOLS: "weakref.WeakSet[ProcessFanoutBackend]" = weakref.WeakSet()


def _join_live_pools() -> None:
    """The interpreter-exit hook: join every pool left open, collecting nothing."""
    for pool in list(_LIVE_POOLS):
        pool._join()


atexit.register(_join_live_pools)


class ProcessFanoutBackend:
    """A worker-process pool behind the coordinator's fan-out seam.

    Frames reach every worker over its own TCP connection.  ``transport``
    takes a ready :class:`~repro.dist.transport.TcpTransportFactory` with the
    deployment settings — e.g. an external-mode factory whose workers are
    started by hand on other machines; ``None`` spawns loopback workers on
    ephemeral ports.  Each of ``managers`` becomes the driver's replica of
    its host; the pool spawns at once, its workers starting from them as
    they are.
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
        if transport is None:
            transport = TcpTransportFactory()
        elif not isinstance(transport, TcpTransportFactory):
            raise TypeError(
                f"transport must be a TcpTransportFactory or None, got {transport!r}"
            )
        self._factory = transport
        # Never more workers than hosts: the rest would own no manager.
        worker_count = min(worker_count, len(managers))
        # Hosts are partitioned round-robin over the workers.
        self._handles = [
            _Handle(index, dict(list(enumerate(managers))[index::worker_count]))
            for index in range(worker_count)
        ]
        self.restart_count = 0
        self._seq = 0
        # Seconds per acknowledged request and worker slot, from its send to
        # its collect (the driver's work in between included).  Drained into
        # UpdateStats.worker_ack_seconds.
        self._ack_latency: dict[int, list[float]] = {}
        self._closed = False
        # A sink holds its worker's batch only, so a dropped backend is still
        # finalised (and its workers joined) while the managers live on.
        for handle in self._handles:
            for position, manager in handle.managers.items():
                manager.sink = partial(handle.control.append, position)
        _LIVE_POOLS.add(self)
        for handle in self._handles:
            self._spawn(handle)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the fan-out backend has been closed")

    # -- the calls the coordinator drives ------------------------------------

    def apply_slices(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record on the replica, then send it to every worker.

        The acknowledgements of the requests before it are collected and
        compared first, and dead workers restarted; the record's own is
        collected before the next one.
        """
        self._check_open()
        self._collect()
        self._heartbeat()
        for manager in self._managers:
            manager.apply_diff(record, now_s)
        meta, arrays = wire.slice_payload(record)
        meta["now_s"] = now_s
        self._request(FrameKind.APPLY_EPOCH, meta, arrays)

    # Kept while the benchmark's tracer (bench/trace.py) patches this name;
    # ROADMAP item 3 deletes the alias together with the patch list.
    apply_full_state = apply_slices

    def sample_all(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ) -> list[UsageSample]:
        """One usage-sampling sweep on the replica, in position order, sent to the workers."""
        self._check_open()
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

    def worker_counters(self) -> dict[int, dict]:
        """Every host's checkpoint by position, fresh from its worker.

        The acknowledgements in flight are compared first; then every worker
        answers a ``PING``, sent again if a restart dropped it.
        """
        self._check_open()
        self._collect()
        counters: dict[int, dict] = {}
        while len(counters) < len(self._managers):
            self._request(FrameKind.PING, {})
            for ack in self._collect():
                counters.update(ack["counters"])
        return counters

    def drain_transport_latencies(self) -> dict[int, list[float]]:
        """Per-worker seconds from a request's send to its collect, since the last drain."""
        drained, self._ack_latency = self._ack_latency, {}
        return drained

    def close(self) -> None:
        """Collect and compare what is in flight, then join the pool (idempotent).

        A desync or a worker error found here is raised after the pool is joined.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._collect()
        finally:
            self._join()

    def _join(self) -> None:
        """Shut every worker down and join it, collecting nothing (idempotent).

        A best-effort ``SHUTDOWN`` frame drains each worker, stragglers are
        terminated, then killed.  The workers are daemonic as a last line of
        defence, so even an unserviced close can never hang interpreter exit.
        """
        self._closed = True
        for handle in self._handles:
            conn, handle.conn = handle.conn, None
            if conn is None:
                continue
            try:
                if handle.process is None or handle.process.is_alive():
                    conn.send_bytes(wire.encode_frame(FrameKind.SHUTDOWN, {}))
            except (OSError, BrokenPipeError, ValueError):
                pass
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
            try:
                conn.close()
            except OSError:
                pass
        self._factory.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        # A finaliser never waits: the acknowledgements in flight are left.
        try:
            self._join()
        except Exception:
            pass

    # -- requests and acknowledgements ---------------------------------------

    def _spawn(self, handle: _Handle) -> None:
        """Start the worker from its replica managers as they stand.

        The rows still pending for it are dropped: the replica ran them, so
        the ``SPEC`` already holds what they do.
        """
        handle.control.clear()
        spec = wire.encode_frame(FrameKind.SPEC, *wire.spec_payload(handle.managers))
        # ``process`` is None for externally placed workers: the factory
        # then only accepts the (re)connection — liveness checks fall back
        # to EOF detection and the receive timeout.
        handle.process, handle.conn = self._factory.spawn(handle.index, spec)

    def _send(self, handle: _Handle, frame: bytes) -> None:
        if handle.dead:
            return  # recovered at the next collect or heartbeat
        try:
            handle.conn.send_bytes(frame)
        except (OSError, BrokenPipeError, EOFError):
            handle.dead = True

    def _request(
        self, kind: FrameKind, meta: dict, arrays: tuple[np.ndarray, ...] = (), samples=None
    ) -> None:
        """Send one frame to every worker with what each must answer, without waiting.

        That is, per host, the replica's checkpoint now and, for a sweep, the
        CRC of the replica's sample.  Once a worker has :data:`MAX_IN_FLIGHT`
        requests waiting, they are collected first.  The frame is encoded
        once, so its sequence number is the same for every worker; each
        worker's pending lifecycle rows go first, as one ``CONTROL`` frame (a
        crash before the worker ran them loses nothing: its successor starts
        from the replica, which ran them first).
        """
        if any(len(handle.inflight) >= MAX_IN_FLIGHT for handle in self._handles):
            self._collect()
        self._seq += 1
        frame = wire.encode_frame(kind, {**meta, "seq": self._seq}, arrays)
        for handle in self._handles:
            answers = {}
            for position, manager in handle.managers.items():
                answers[position] = manager.counters_snapshot()
                if samples is not None:
                    answers[position]["sample_crc"] = wire.sample_checksum(samples[position])
            if handle.control:
                self._send(handle, wire.encode_frame(FrameKind.CONTROL, *handle.control.payload()))
                handle.control.clear()
            handle.inflight.append((self._seq, time.monotonic(), answers))
            self._send(handle, frame)

    def _collect(self) -> list[dict[str, Any]]:
        """Collect every acknowledgement in flight, then compare each with its answers."""
        acks = [pair for handle in self._handles for pair in self._collect_from(handle)]
        for ack, answers in acks:
            for position, answer in answers.items():
                held = dict(ack["counters"].get(position, {}))
                held["sample_crc"] = ack["sample_crc"].get(position)
                self._compare(self._managers[position].host.index, held, answer)
        return [ack for ack, _answers in acks]

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

    def _collect_from(self, handle: _Handle) -> list[tuple[dict[str, Any], dict[int, dict]]]:
        """Read the worker's acknowledgements in flight, oldest first, uncompared.

        Returns ``(acknowledgement, answers)`` pairs.  A crash observed on
        the way restarts the worker, which drops the requests not yet
        answered (see the module docstring); worker-side exceptions surface
        as :class:`WorkerRemoteError`.
        """
        acks = []
        while handle.inflight:
            seq, sent_at, answers = handle.inflight[0]
            try:
                if handle.dead:
                    raise WorkerCrashError(f"worker {handle.index} transport broke mid-send")
                ack = self._await_ack(handle, seq)
            except WorkerCrashError:
                self._recover(handle)
                break
            except WorkerRemoteError:
                handle.inflight.popleft()  # answered, with an error
                raise
            handle.inflight.popleft()
            self._ack_latency.setdefault(handle.index, []).append(time.monotonic() - sent_at)
            handle.healthy_acks += 1
            if handle.restarts and handle.healthy_acks >= RESTART_DECAY_ACKS:
                handle.restarts = handle.healthy_acks = 0
            acks.append((ack, answers))
        return acks

    def _await_ack(self, handle: _Handle, seq: int) -> dict[str, Any]:
        deadline = time.monotonic() + ACK_TIMEOUT_S
        while not handle.conn.poll(0.05):
            if handle.process is not None and not handle.process.is_alive():
                raise WorkerCrashError(
                    f"worker {handle.index} died (exit code {handle.process.exitcode})"
                )
            if time.monotonic() > deadline:
                # The worker is alive (or unobservable, when external) but
                # silent: treat the wedge as a crash so recovery kills and
                # rebuilds it instead of hanging the epoch forever.
                raise WorkerTimeoutError(
                    f"worker {handle.index} did not acknowledge "
                    f"frame {seq} within {ACK_TIMEOUT_S:.0f}s"
                )
        try:
            # The remaining deadline bounds the receive itself too: a peer
            # that wedges mid-frame (or a stream stalled after the length
            # prefix) cannot block past ACK_TIMEOUT_S.
            data = handle.conn.recv_bytes(timeout=max(0.05, deadline - time.monotonic()))
        except (TransportTimeout, TimeoutError) as error:
            raise WorkerTimeoutError(
                f"worker {handle.index} stalled mid-frame while "
                f"acknowledging frame {seq}: {error}"
            ) from error
        except (EOFError, OSError) as error:
            raise WorkerCrashError(f"worker {handle.index} transport closed: {error}") from error
        try:
            kind, meta, _arrays = wire.decode_frame(data)
        except wire.WireVersionError:
            raise  # version skew is fatal: a restart cannot fix the build
        except wire.WireError as error:
            # A corrupt frame means the stream itself can no longer be
            # trusted; tear the worker down and rebuild it.
            raise WorkerCrashError(
                f"worker {handle.index} sent a malformed frame: {error}"
            ) from error
        return _checked_ack(handle.index, kind, meta, seq)

    # -- heartbeat and recovery ----------------------------------------------

    def _heartbeat(self) -> None:
        """Liveness sweep: restart every worker found dead since the last one."""
        for handle in self._handles:
            if handle.dead or (handle.process is not None and not handle.process.is_alive()):
                self._recover(handle)

    def _recover(self, handle: _Handle) -> None:
        # The successor starts from the replica, which is ahead of every
        # request in flight: they are dropped, not re-sent.
        handle.inflight.clear()
        # A successor can die too (repeatable crash, OOM while loading
        # thousands of microVMs) or fail its accept/handshake, so the spawn
        # retries under the same bounded restart budget.
        while True:
            handle.restarts += 1
            self.restart_count += 1
            handle.healthy_acks = 0
            if handle.restarts > MAX_RESTARTS:
                raise WorkerCrashError(f"worker {handle.index} exceeded {MAX_RESTARTS} restarts")
            if handle.process is not None:
                # Wedged workers are still alive — the receive timeout, not
                # process death, routed us here — so the kill is load-
                # bearing, not merely defensive.
                if handle.process.is_alive():
                    handle.process.kill()
                handle.process.join(timeout=5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            handle.dead = True
            try:
                self._spawn(handle)
                handle.dead = False
                return
            except (OSError, BrokenPipeError, EOFError, WorkerCrashError):
                continue  # the successor died mid-recovery: rebuild again
