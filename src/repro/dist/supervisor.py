"""Supervision of the worker-process pool: spawn, heartbeat, crash recovery.

The supervisor owns one transport (+ process, when locally spawned) per
:class:`~repro.dist.worker.WorkerSpec` — obtained from a
:class:`~repro.dist.transport.TcpTransportFactory`, so the same supervision,
ledger-replay and restore logic drives loopback workers it spawned and
operator-started remote workers — and gives the fan-out backend these
primitives:

* :meth:`WorkerSupervisor.control` — the worker's pending lifecycle
  operations (machine creations, boots, fault-injection ops), a
  :class:`~repro.dist.wire.ControlBatch` the backend appends rows to.  The
  batch is flushed as **one** ``CONTROL`` frame just before the worker's
  next request, and that frame is journalled in the per-worker **control
  ledger** before it is sent: one ledger frame per flush that carried rows.
  The ledger is the worker's genesis history, replayed into a fresh process
  after a crash.
* :meth:`WorkerSupervisor.begin_request` / :meth:`finish_request` — frames
  that want an acknowledgement.  Splitting send from collect lets the
  backend broadcast one frame to every worker and only then start draining
  acks, so workers chew in parallel.  Every acknowledgement carries the
  worker's checkpoint and becomes the recovery point.
  :meth:`WorkerSupervisor.begin_epoch` is the broadcast of one epoch's
  record, which the supervisor keeps: it is what a recovery restores from.
* :meth:`WorkerSupervisor.post` — a fire-and-forget frame that is never
  journalled (the ``CRASH``/``WEDGE`` test hooks).
* :meth:`WorkerSupervisor.check` / :meth:`ping` — heartbeat: a liveness
  sweep over the pool (dead processes are detected and restarted before the
  next fan-out trips over a broken stream) and an end-to-end round-trip probe.

Crash recovery
--------------

A worker crash is detected four ways: a broken/EOF transport while sending
or collecting, a heartbeat sweep finding the process dead, an ack wait
observing process exit, or — for a worker that *wedges while staying
alive* — the ``ack_timeout_s`` receive deadline expiring (routed into the
same recovery path as a hard crash; the wedged process is killed before its
successor spawns).  Recovery then proceeds in four steps:

1. **Respawn** a fresh process from the original spec (same host blueprint,
   same initial RNG states).
2. **Replay the control ledger** up to the checkpoint — the ``CONTROL``
   frames the worker had applied when it sent its last acknowledgement
   (the ack counts them) — so it re-creates and boots the machines it
   owned then, in the original order.
3. **Restore runtime state from the last record sent**: one ``RESTORE``
   frame ships the checkpoint of every manager the worker owns — counters,
   dirty set, RNG state — and the activity masks of the checkpoint's epoch.
   A worker applies each record to all of its managers before it
   acknowledges, and the fan-out is synchronous, so that epoch is the last
   record's or the one before it, and the record holds both
   (:meth:`~repro.core.machine_manager.EpochRecord.masks_at`): no history
   is read.  The checkpoint's dirty machines — lifecycle changed outside the
   protocol before the checkpoint, not yet reconciled by a record — are
   left as the ledger rebuilt them and stay dirty, so the next record
   reconciles them *with* counting, exactly like the in-process path.
4. **Replay the rest of the ledger**: frames journalled after the
   checkpoint run on top of the restored RNG streams and dirty sets, as
   they first did.

The in-flight request that observed the crash is then re-sent: the restored
worker is at the checkpoint epoch, so re-applying the current epoch's record
produces the same transitions (and counter increments) the uncrashed worker
would have produced.  Restarts are bounded by ``max_restarts`` per worker —
but the budget *decays*: after ``restart_decay_acks`` healthy acknowledged
requests the counter resets to zero, so transient crashes spread over a
long-running sim never add up to a fatal budget exhaustion, while a crash
loop (which never stays healthy long enough to decay) still hits the bound.
"""

from __future__ import annotations

import atexit
import time
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.core.machine_manager import EpochRecord
from repro.dist import wire
from repro.dist.transport import TcpTransportFactory, TransportTimeout
from repro.dist.wire import FrameKind
from repro.dist.worker import WorkerSpec


class WorkerCrashError(RuntimeError):
    """A worker died (detected via transport, heartbeat, exit or timeout)."""


class WorkerTimeoutError(WorkerCrashError):
    """A live worker failed to acknowledge within ``ack_timeout_s``.

    Subclasses :class:`WorkerCrashError` so a wedged-but-alive worker takes
    the same kill/respawn/replay path as a dead one.
    """


class WorkerRemoteError(RuntimeError):
    """A worker reported an exception while executing a frame."""


class _Handle:
    """Book-keeping of one supervised worker."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.process = None
        self.conn = None
        self.seq = 0
        #: Lifecycle rows not yet sent; flushed before the next request.
        self.control = wire.ControlBatch()
        #: Every CONTROL frame sent to this worker slot, in order.
        self.ledger: list[bytes] = []
        self.checkpoint: Optional[dict[str, Any]] = None
        #: (sequence, encoded frame, monotonic send time) per in-flight request.
        self.inflight: deque[tuple[int, bytes, float]] = deque()
        self.restarts = 0
        # Healthy acknowledged requests since the last restart; at
        # ``restart_decay_acks`` the restart budget resets (transient
        # crashes over a long run must not accumulate into a death).
        self.healthy_acks = 0
        # Set when a send observed a broken stream: recovery is deferred to
        # the next collect/heartbeat, which re-sends every frame queued in
        # ``inflight`` to the rebuilt worker.
        self.dead = False


class WorkerSupervisor:
    """Spawns, monitors and restarts the worker-process pool.

    ``transport`` carries the deployment settings as a ready
    :class:`~repro.dist.transport.TcpTransportFactory`; ``None`` spawns
    loopback workers on ephemeral ports.
    """

    def __init__(
        self,
        specs: list[WorkerSpec],
        max_restarts: int = 3,
        ack_timeout_s: float = 120.0,
        restart_decay_acks: int = 64,
        transport: Optional[TcpTransportFactory] = None,
    ):
        if transport is None:
            transport = TcpTransportFactory()
        elif not isinstance(transport, TcpTransportFactory):
            raise TypeError(
                f"transport must be a TcpTransportFactory or None, got {transport!r}"
            )
        self._handles = [_Handle(spec) for spec in specs]
        #: The last epoch record sent: a recovery restores to its masks.
        self._record: Optional[EpochRecord] = None
        self._factory = transport
        self.max_restarts = max_restarts
        self.ack_timeout_s = ack_timeout_s
        self.restart_decay_acks = restart_decay_acks
        self.restart_count = 0
        # Ack round-trip seconds per worker slot, from first send to the
        # acknowledgement's arrival (recovery time included — a re-sent frame
        # keeps its original send stamp).  Drained by the backend into
        # UpdateStats.worker_ack_seconds.
        self._ack_latency: dict[int, list[float]] = {}
        self._started = False
        self._closed = False
        self._last_now_s = 0.0

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether the pool has been spawned."""
        return self._started

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
        # ``process`` is None for externally placed workers: the factory
        # then only accepts the (re)connection — liveness checks fall back
        # to EOF detection and the receive timeout.
        handle.process, handle.conn = self._factory.spawn(handle.spec)

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

    def _track_time(self, now_s: Optional[float]) -> None:
        if now_s is not None:
            self._last_now_s = max(self._last_now_s, float(now_s))

    def _send(self, handle: _Handle, frame: bytes) -> None:
        if handle.dead:
            return  # recovered at the next collect or heartbeat
        try:
            handle.conn.send_bytes(frame)
        except (OSError, BrokenPipeError, EOFError):
            handle.dead = True

    def control(self, worker: int) -> wire.ControlBatch:
        """The worker's pending lifecycle rows (flushed before its next request).

        The first call spawns the pool: a fleet's first lifecycle operation
        comes before its machines exist, so the workers fork from a small
        coordinator heap and are up by the time the first flush goes out.
        """
        self.start()
        return self._handles[worker].control

    def _flush(self, handle: _Handle) -> None:
        """Journal and send the pending rows as one ``CONTROL`` frame.

        The frame is appended to the ledger *before* the send, so a crash
        mid-send is recovered by the ledger replay alone — the rows are
        never lost and never applied twice (the replay target is a fresh
        process).
        """
        batch = handle.control
        if not batch:
            return
        self._track_time(batch.latest_s)
        frame = wire.encode_frame(FrameKind.CONTROL, *batch.payload())
        batch.clear()
        handle.ledger.append(frame)
        self._send(handle, frame)

    def post(
        self,
        worker: int,
        kind: FrameKind,
        meta: dict[str, Any],
        arrays: tuple[np.ndarray, ...] = (),
    ) -> None:
        """Send a fire-and-forget frame; it is not journalled (test hooks)."""
        self.start()
        self._send(self._handles[worker], wire.encode_frame(kind, meta, arrays))

    def begin_request(
        self,
        worker: int,
        kind: FrameKind,
        meta: dict[str, Any],
        arrays: tuple[np.ndarray, ...] = (),
    ) -> int:
        """Send an acknowledged frame without waiting; returns its sequence.

        Several requests may be in flight per worker; acknowledgements are
        collected FIFO with :meth:`finish_request`.  The worker's pending
        lifecycle rows go first, as one ``CONTROL`` frame.
        """
        self.start()
        handle = self._handles[worker]
        self._flush(handle)
        self._track_time(meta.get("now_s"))
        handle.seq += 1
        frame = wire.encode_frame(kind, {**meta, "seq": handle.seq}, arrays)
        handle.inflight.append((handle.seq, frame, time.monotonic()))
        self._send(handle, frame)  # a broken send is recovered at collect time
        return handle.seq

    def begin_epoch(self, record: EpochRecord, now_s: float) -> None:
        """Send one epoch's record to every worker, acknowledged, and keep it.

        The record is encoded once; each worker then gets one frame that
        only its sequence number sets apart.  Collect the acknowledgements
        with :meth:`finish_request`, one per worker.
        """
        meta, arrays = wire.slice_payload(record)
        meta["now_s"] = now_s
        self._record = record
        for worker in range(len(self._handles)):
            self.begin_request(worker, FrameKind.APPLY_EPOCH, meta, arrays)

    def finish_request(self, worker: int) -> dict[str, Any]:
        """Collect the acknowledgement of the oldest in-flight request.

        Crashes observed while sending or waiting trigger recovery and a
        re-send of all in-flight frames; worker-side exceptions surface as
        :class:`WorkerRemoteError`.
        """
        handle = self._handles[worker]
        if not handle.inflight:
            raise RuntimeError(f"worker {worker} has no request in flight")
        while True:
            try:
                if handle.dead:
                    raise WorkerCrashError(
                        f"worker {handle.spec.worker_index} transport broke mid-send"
                    )
                meta = self._await_ack(handle, handle.inflight[0][0])
                _seq, _frame, sent_at = handle.inflight.popleft()
                self._ack_latency.setdefault(handle.spec.worker_index, []).append(
                    time.monotonic() - sent_at
                )
                self._note_healthy(handle)
                return meta
            except WorkerCrashError:
                self._recover(handle)  # re-sends every in-flight frame

    def _note_healthy(self, handle: _Handle) -> None:
        # Only *request* acknowledgements count as health evidence: the
        # restore acks of a freshly rebuilt worker must not decay the budget
        # (a crash loop that always survives its own restore would then
        # never exhaust it).
        handle.healthy_acks += 1
        if handle.restarts and handle.healthy_acks >= self.restart_decay_acks:
            handle.restarts = 0
            handle.healthy_acks = 0

    def request(
        self,
        worker: int,
        kind: FrameKind,
        meta: dict[str, Any],
        arrays: tuple[np.ndarray, ...] = (),
    ) -> dict[str, Any]:
        """Round-trip one acknowledged frame."""
        self.begin_request(worker, kind, meta, arrays)
        return self.finish_request(worker)

    def _await_ack(self, handle: _Handle, seq: int) -> dict[str, Any]:
        deadline = time.monotonic() + self.ack_timeout_s
        while not handle.conn.poll(0.05):
            if handle.process is not None and not handle.process.is_alive():
                raise WorkerCrashError(
                    f"worker {handle.spec.worker_index} died "
                    f"(exit code {handle.process.exitcode})"
                )
            if time.monotonic() > deadline:
                # The worker is alive (or unobservable, when external) but
                # silent: treat the wedge as a crash so recovery kills and
                # rebuilds it instead of hanging the epoch forever.
                raise WorkerTimeoutError(
                    f"worker {handle.spec.worker_index} did not acknowledge "
                    f"frame {seq} within {self.ack_timeout_s:.0f}s"
                )
        try:
            # The remaining deadline bounds the receive itself too: a peer
            # that wedges mid-frame (or a stream stalled after the length
            # prefix) cannot block past ack_timeout_s.
            data = handle.conn.recv_bytes(
                timeout=max(0.05, deadline - time.monotonic())
            )
        except (TransportTimeout, TimeoutError) as error:
            raise WorkerTimeoutError(
                f"worker {handle.spec.worker_index} stalled mid-frame while "
                f"acknowledging frame {seq}: {error}"
            ) from error
        except (EOFError, OSError) as error:
            raise WorkerCrashError(
                f"worker {handle.spec.worker_index} transport closed: {error}"
            ) from error
        try:
            kind, meta, _arrays = wire.decode_frame(data)
        except wire.WireVersionError:
            raise  # version skew is fatal: a restart cannot fix the build
        except wire.WireError as error:
            # A corrupt frame means the stream itself can no longer be
            # trusted; tear the worker down and rebuild it.
            raise WorkerCrashError(
                f"worker {handle.spec.worker_index} sent a malformed frame: "
                f"{error}"
            ) from error
        if kind is FrameKind.ERROR:
            raise WorkerRemoteError(
                f"worker {handle.spec.worker_index} failed:\n{meta['traceback']}"
            )
        if kind is not FrameKind.ACK or meta.get("seq") != seq:
            raise WorkerRemoteError(
                f"worker {handle.spec.worker_index} sent unexpected "
                f"{kind.name} (seq {meta.get('seq')!r}, expected {seq})"
            )
        if meta.get("deferred_errors"):
            raise WorkerRemoteError(
                f"worker {handle.spec.worker_index} control-frame errors: "
                + "; ".join(meta["deferred_errors"])
            )
        handle.checkpoint = meta
        return meta

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

    def ping(self, worker: int) -> dict[str, Any]:
        """End-to-end heartbeat probe (returns the worker's checkpoint meta)."""
        return self.request(worker, FrameKind.PING, {})

    def checkpoint(self, worker: int) -> Optional[dict[str, Any]]:
        """The worker's last acknowledged checkpoint (None before the first)."""
        return self._handles[worker].checkpoint

    def drain_ack_latencies(self) -> dict[int, list[float]]:
        """Ack round-trip seconds per worker slot since the last drain.

        Returns and clears the accumulated samples, so successive calls
        partition the samples without double counting.
        """
        drained = self._ack_latency
        self._ack_latency = {}
        return drained

    def crash_worker(self, worker: int) -> None:
        """Test hook: hard-kill a worker (SIGKILL), as a real crash would."""
        handle = self._handles[worker]
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)

    # -- recovery -----------------------------------------------------------

    def _recover(self, handle: _Handle) -> None:
        # A successor can die too (repeatable crash, OOM while rebuilding
        # thousands of microVMs), so the whole rebuild — spawn, ledger
        # replay, restore, in-flight re-send — retries under the same
        # bounded restart budget instead of leaking raw stream errors.
        while True:
            handle.restarts += 1
            self.restart_count += 1
            handle.healthy_acks = 0
            if handle.restarts > self.max_restarts:
                raise WorkerCrashError(
                    f"worker {handle.spec.worker_index} exceeded "
                    f"{self.max_restarts} restarts"
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
                # The spawn itself retries under the same budget: a
                # successor can fail its accept/handshake (or an external
                # worker may take a while to be relaunched) just like it
                # can die mid-replay.
                self._spawn(handle)
                handle.dead = False
                # The checkpoint's RNG states include the draws of the
                # CONTROL frames applied before it was taken, and only
                # those: the later frames run after the restore.
                applied = handle.checkpoint["controls"] if handle.checkpoint else 0
                for frame in handle.ledger[:applied]:
                    handle.conn.send_bytes(frame)
                self._restore(handle)
                for frame in handle.ledger[applied:]:
                    handle.conn.send_bytes(frame)
                for _seq, frame, _sent_at in handle.inflight:
                    handle.conn.send_bytes(frame)
                return
            except (OSError, BrokenPipeError, EOFError, WorkerCrashError):
                continue  # the successor died mid-recovery: rebuild again

    def _restore(self, handle: _Handle) -> None:
        """Ship the checkpoint and its epoch's activity masks in one frame."""
        checkpoint = handle.checkpoint
        if checkpoint is None:
            return
        epoch = checkpoint["epoch"]
        meta, arrays = {"shells": [], "sizes": []}, ()
        if epoch:  # epoch 0: nothing applied yet, counters/RNG only
            meta, arrays = wire.mask_payload(self._record.masks_at(epoch))
        handle.seq += 1
        meta.update(
            seq=handle.seq,
            epoch=epoch,
            now_s=self._last_now_s,
            snapshots=checkpoint["counters"],
        )
        try:
            handle.conn.send_bytes(wire.encode_frame(FrameKind.RESTORE, meta, arrays))
            self._await_ack(handle, handle.seq)
        except BaseException:
            # The restore ack replaced the checkpoint with the successor's;
            # a retry must recover from the original one.
            handle.checkpoint = checkpoint
            raise

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
