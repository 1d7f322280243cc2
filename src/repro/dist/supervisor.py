"""Supervision of the worker-process pool: spawn, heartbeat, crash recovery.

The supervisor owns one transport (+ process, when locally spawned) per
worker — obtained from a :class:`~repro.dist.transport.TcpTransportFactory`,
so the same supervision drives loopback workers it spawned and
operator-started remote workers.  It is given the driver's replica managers,
one mapping host position → :class:`~repro.core.machine_manager.MachineManager`
per worker, and gives the fan-out backend these primitives:

* :meth:`WorkerSupervisor.control` — the worker's pending lifecycle
  operations (machine creations, fault-injection ops), a
  :class:`~repro.dist.wire.ControlBatch` the backend appends rows to once
  the replica ran them.  The batch is flushed as **one** ``CONTROL`` frame
  just before the worker's next request.
* :meth:`WorkerSupervisor.begin_request` / :meth:`collect` — frames that
  want an acknowledgement.  A request is encoded once, sent to the workers
  it names and kept in flight with what the backend expects each to answer;
  :meth:`collect` later reads a worker's acknowledgements, oldest first, and
  hands each back with its expectation.  The backend collects before its
  next record and at close, so the workers' work overlaps the driver's.
* :meth:`WorkerSupervisor.check` — heartbeat: a liveness sweep over the
  pool (dead processes are detected and restarted before the next fan-out
  trips over a broken stream).

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
  unverified.  (That is also why the backend starts the pool as soon as it
  is built, on empty tables: started by a first operation, the pool would
  take that operation in the ``SPEC`` and again as a row.)

Restarts are bounded by :data:`MAX_RESTARTS` per worker — but the budget
*decays*: after :data:`RESTART_DECAY_ACKS` healthy acknowledged requests the
counter resets to zero, so transient crashes spread over a long-running sim
never add up to a fatal budget exhaustion, while a crash loop (which never
stays healthy long enough to decay) still hits the bound.
"""

from __future__ import annotations

import atexit
import time
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.core.machine_manager import MachineManager
from repro.dist import wire
from repro.dist.transport import TcpTransportFactory, TransportTimeout
from repro.dist.wire import FrameKind

#: Restarts of one worker before its crash is fatal (the budget decays).
MAX_RESTARTS = 3
#: Seconds a worker has to acknowledge a request before it counts as wedged.
ACK_TIMEOUT_S = 120.0
#: Healthy acknowledged requests after which a worker's restart budget resets.
RESTART_DECAY_ACKS = 64


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


class _Handle:
    """Book-keeping of one supervised worker."""

    def __init__(self, index: int, managers: dict[int, MachineManager]):
        self.index = index
        #: The driver's replica managers of the worker's hosts, by position.
        self.managers = managers
        self.process = None
        self.conn = None
        #: Lifecycle rows not yet sent; flushed before the next request.
        self.control = wire.ControlBatch()
        #: (sequence, monotonic send time, expectation) per in-flight request.
        self.inflight: deque[tuple[int, float, Any]] = deque()
        self.restarts = 0
        # Healthy acknowledged requests since the last restart; at
        # :data:`RESTART_DECAY_ACKS` the restart budget resets (transient
        # crashes over a long run must not accumulate into a death).
        self.healthy_acks = 0
        # Set when a send observed a broken stream: recovery is deferred to
        # the next collect or heartbeat.
        self.dead = False


class WorkerSupervisor:
    """Spawns, monitors and restarts the worker-process pool.

    ``workers`` holds, per worker, the driver's replica managers of its
    hosts by position: what its ``SPEC`` frame carries.  ``transport``
    carries the deployment settings as a ready
    :class:`~repro.dist.transport.TcpTransportFactory`; ``None`` spawns
    loopback workers on ephemeral ports.  :meth:`start` spawns the pool.
    """

    def __init__(
        self,
        workers: list[dict[int, MachineManager]],
        transport: Optional[TcpTransportFactory] = None,
    ):
        if transport is None:
            transport = TcpTransportFactory()
        elif not isinstance(transport, TcpTransportFactory):
            raise TypeError(
                f"transport must be a TcpTransportFactory or None, got {transport!r}"
            )
        self._handles = [_Handle(index, managers) for index, managers in enumerate(workers)]
        self._factory = transport
        self.restart_count = 0
        self._seq = 0
        # Seconds per acknowledged request and worker slot, from its send to
        # its collect (the driver's work in between included).  Drained by
        # the backend into UpdateStats.worker_ack_seconds.
        self._ack_latency: dict[int, list[float]] = {}
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def worker_count(self) -> int:
        """Number of supervised workers."""
        return len(self._handles)

    def start(self) -> None:
        """Spawn every worker process (idempotent; a closed pool stays closed)."""
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        if self._started:
            return
        self._started = True
        for handle in self._handles:
            self._spawn(handle)
        atexit.register(self.close)

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

    def close(self) -> None:
        """Join/kill every worker deterministically (idempotent).

        Safe to call during interpreter shutdown: a best-effort SHUTDOWN
        frame drains each worker, stragglers are terminated, then killed.
        The workers are daemonic as a last line of defence, so even an
        unserviced close can never hang interpreter exit.
        """
        if self._closed or not self._started:
            self._closed = True
            self._factory.close()
            return
        self._closed = True
        for handle in self._handles:
            if handle.conn is None:
                continue
            try:
                if handle.process is None or handle.process.is_alive():
                    handle.conn.send_bytes(wire.encode_frame(FrameKind.SHUTDOWN, {}))
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
                handle.conn.close()
            except OSError:
                pass
        self._factory.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # -- frame transport ----------------------------------------------------

    def _send(self, handle: _Handle, frame: bytes) -> None:
        if handle.dead:
            return  # recovered at the next collect or heartbeat
        try:
            handle.conn.send_bytes(frame)
        except (OSError, BrokenPipeError, EOFError):
            handle.dead = True

    def control(self, worker: int) -> wire.ControlBatch:
        """The worker's pending lifecycle rows (flushed before its next request)."""
        return self._handles[worker].control

    def _flush(self, handle: _Handle) -> None:
        """Send the pending rows as one ``CONTROL`` frame.

        A crash before the worker ran them loses nothing: its successor
        starts from the replica, which ran them first.
        """
        batch = handle.control
        if not batch:
            return
        frame = wire.encode_frame(FrameKind.CONTROL, *batch.payload())
        batch.clear()
        self._send(handle, frame)

    def begin_request(
        self,
        kind: FrameKind,
        meta: dict[str, Any],
        arrays: tuple[np.ndarray, ...] = (),
        *,
        expected: dict[int, Any],
    ) -> None:
        """Send one acknowledged frame to the workers ``expected`` names, without waiting.

        The frame is encoded once: its sequence number is the same for every
        worker.  Each worker's pending lifecycle rows go first, as one
        ``CONTROL`` frame.  ``expected`` maps a worker to what its answer
        must hold, handed back with the acknowledgement by :meth:`collect`.
        """
        self._seq += 1
        frame = wire.encode_frame(kind, {**meta, "seq": self._seq}, arrays)
        for worker, expectation in expected.items():
            handle = self._handles[worker]
            self._flush(handle)
            handle.inflight.append((self._seq, time.monotonic(), expectation))
            self._send(handle, frame)

    def collect(self, worker: int) -> list[tuple[dict[str, Any], Any]]:
        """Collect the acknowledgement of every request in flight, oldest first.

        Returns ``(acknowledgement, expected)`` pairs.  A crash observed on
        the way restarts the worker, which drops the requests not yet
        answered (see the module docstring); worker-side exceptions surface
        as :class:`WorkerRemoteError`.
        """
        handle = self._handles[worker]
        acks = []
        while handle.inflight:
            seq, sent_at, expected = handle.inflight[0]
            try:
                if handle.dead:
                    raise WorkerCrashError(f"worker {handle.index} transport broke mid-send")
                meta = self._await_ack(handle, seq)
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
            acks.append((meta, expected))
        return acks

    def _await_ack(self, handle: _Handle, seq: int) -> dict[str, Any]:
        deadline = time.monotonic() + ACK_TIMEOUT_S
        while not handle.conn.poll(0.05):
            if handle.process is not None and not handle.process.is_alive():
                raise WorkerCrashError(
                    f"worker {handle.index} died "
                    f"(exit code {handle.process.exitcode})"
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
            data = handle.conn.recv_bytes(
                timeout=max(0.05, deadline - time.monotonic())
            )
        except (TransportTimeout, TimeoutError) as error:
            raise WorkerTimeoutError(
                f"worker {handle.index} stalled mid-frame while "
                f"acknowledging frame {seq}: {error}"
            ) from error
        except (EOFError, OSError) as error:
            raise WorkerCrashError(
                f"worker {handle.index} transport closed: {error}"
            ) from error
        try:
            kind, meta, _arrays = wire.decode_frame(data)
        except wire.WireVersionError:
            raise  # version skew is fatal: a restart cannot fix the build
        except wire.WireError as error:
            # A corrupt frame means the stream itself can no longer be
            # trusted; tear the worker down and rebuild it.
            raise WorkerCrashError(
                f"worker {handle.index} sent a malformed frame: "
                f"{error}"
            ) from error
        return _checked_ack(handle.index, kind, meta, seq)

    # -- heartbeat ----------------------------------------------------------

    def check(self) -> int:
        """Liveness sweep: restart any dead worker; returns restarts made."""
        if not self._started or self._closed:
            return 0
        restarted = 0
        for handle in self._handles:
            if handle.dead or (
                handle.process is not None and not handle.process.is_alive()
            ):
                self._recover(handle)
                restarted += 1
        return restarted

    def drain_ack_latencies(self) -> dict[int, list[float]]:
        """Send-to-collect seconds per worker slot since the last drain.

        Returns and clears the accumulated samples, so successive calls
        partition the samples without double counting.
        """
        drained = self._ack_latency
        self._ack_latency = {}
        return drained

    # -- recovery -----------------------------------------------------------

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
                raise WorkerCrashError(
                    f"worker {handle.index} exceeded "
                    f"{MAX_RESTARTS} restarts"
                )
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

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
