"""The calculation child: the constellation calculation, one epoch ahead.

The paper's coordinator computes each constellation update and sends it to
the hosts, which apply it (§3, Fig. 2).  Here the calculation runs in one
child process that the coordinator forks at its first differential update
(:class:`CalculationChild`), inheriting the calculation and the state just
published.  The child sends each epoch's ``DIFF`` frame — the
:func:`~repro.serve.codec.encode_diff_update` of
:meth:`~repro.core.constellation.ConstellationCalculation.diff_since` from
its previous epoch — at the time it guesses: the first update's time, then
``update_interval_s`` after the time asked last.  When the driver asks for
the epoch at its own time, its ``EPOCH_AT`` frame answers the guess: the
child takes it as its cue and computes the next guess while the driver
applies this epoch, or, when the time is not the one guessed, computes the
epoch at that time from the same previous epoch and sends it too, so no bit
depends on the guess.  The child never skips an epoch and runs at most one
ahead, and nothing is published before the driver asks for it.

The driver applies each frame to its :class:`~repro.serve.codec.EpochReplica`
(seeded from the KEYFRAME of the state the child was forked from), rebuilds
the state and the diff from it
(:meth:`~repro.core.constellation.ConstellationCalculation.state_from_replica`)
and publishes the frame's bytes as they are, so the gateway forwards them
without encoding again: the driver is one more consumer of its own stream.

Failure is typed and bounded.  Every receive has a deadline,
:data:`CHILD_TIMEOUT_S`, and the child's liveness is checked while the
driver waits: a child that died or was stopped, that stalled past the
deadline, that reported an exception, or whose frame does not decode, is
not the ``DIFF`` of the epoch asked for or does not chain onto the replica,
is a :class:`CalculationChildError` naming the cause.  A failed child is not
respawned.

The child is forked while other driver threads (the gateway's event loop)
run, so it touches nothing they lock: not the database, not the codec's
memo, not the gateway.  It closes every inherited file descriptor but its
own stream (a gateway's listening socket or a subscriber's connection stays
the driver's alone), freezes the inherited heap out of its garbage collector
(no finaliser of the driver's objects runs in it), ignores warnings instead
of writing them, leaves by ``os._exit`` and ends by itself when its stream
closes or the driver is gone.  :meth:`CalculationChild.close`, a finaliser
and the interpreter-exit hook reap it with the worker pool's escalation: a
``SHUTDOWN`` frame, then terminate, then kill.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import time
import traceback
import warnings
import weakref
from typing import Optional

from repro.dist import wire
from repro.dist.transport import SocketTransport, TransportTimeout
from repro.dist.wire import FrameKind
from repro.serve.codec import (
    CodecError,
    EpochReplica,
    EpochUpdate,
    encode_diff_update,
    encode_keyframe_update,
)

#: Seconds the driver waits for each frame of the child.
CHILD_TIMEOUT_S = 120.0
#: Seconds between a waiting driver's checks that the child still runs.
_LIVENESS_S = 0.05
#: Seconds between an idle child's checks that the driver still runs.
_ORPHAN_S = 1.0


class CalculationChildError(RuntimeError):
    """The calculation child died, was stopped, stalled, failed, or sent a
    frame that is not the epoch asked for."""


class _Forked:
    """A child forked by this process, known by its pid: the calls the
    worker pool's escalation makes on a process (``is_alive``, ``join``,
    ``terminate``, ``kill``), plus the stop a ``SIGSTOP`` leaves."""

    def __init__(self, pid: int):
        self.pid = pid
        #: Once reaped: the exit status, or minus the signal that ended it.
        self.exitcode: Optional[int] = None
        #: The signal that stopped the child, once seen.
        self.stopped: Optional[int] = None

    def is_alive(self) -> bool:
        if self.exitcode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG | os.WUNTRACED)
            except ChildProcessError:  # reaped by someone else
                pid, status = self.pid, 0
            if pid and os.WIFSTOPPED(status):
                self.stopped = os.WSTOPSIG(status)
            elif pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode is None

    def join(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self.is_alive() and time.monotonic() < deadline:
            time.sleep(0.002)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def resume(self) -> None:
        """Continue a stopped child, so that it reads what it was sent."""
        self._signal(signal.SIGCONT)

    def _signal(self, number: int) -> None:
        if self.exitcode is None:
            try:
                os.kill(self.pid, number)
            except ProcessLookupError:
                pass

    def fate(self) -> str:
        """How the child ended or paused, for an error message."""
        if self.exitcode is not None and self.exitcode < 0:
            return f"was killed by {signal.Signals(-self.exitcode).name}"
        if self.exitcode is not None:
            return f"exited with status {self.exitcode}"
        if self.stopped is not None:
            return f"was stopped by {signal.Signals(self.stopped).name}"
        return "is still running"


def _stop(process: _Forked, transport: SocketTransport) -> None:
    """Reap the child: ``SHUTDOWN``, then the worker pool's escalation
    (:meth:`~repro.dist.backend.ProcessFanoutBackend._join`).  Idempotent;
    the finaliser and the interpreter-exit hook call it too."""
    try:
        if process.is_alive():
            transport.send_bytes(wire.encode_frame(FrameKind.SHUTDOWN, {}))
    except OSError:
        pass
    transport.close()
    process.resume()
    process.join(timeout=2.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - last resort
        process.kill()
        process.join(timeout=1.0)


class CalculationChild:
    """The driver's end of the calculation child (module docstring).

    Forks the child at once, from ``calculation`` and ``state``, the state
    published as epoch ``epoch``; the child's first guess is ``time_s`` and
    each next one ``interval_s`` after the time asked last.
    :attr:`replica` holds what the child's frames led to, starting from
    ``state``.
    """

    def __init__(self, calculation, state, epoch: int, time_s: float, interval_s: float):
        ours, theirs = socket.socketpair()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child, which leaves by os._exit
            code = 1
            try:
                _enter_child(theirs.fileno())
                transport = SocketTransport(theirs)
                try:
                    _serve(transport, calculation, state, epoch, time_s, interval_s, parent)
                    code = 0
                except Exception:
                    transport.send_bytes(
                        wire.encode_frame(FrameKind.ERROR, {"traceback": traceback.format_exc()})
                    )
            finally:
                os._exit(code)
        # A plain close of the child's end: a shutdown would end the stream.
        theirs.close()
        self.process = _Forked(pid)
        self._transport = SocketTransport(ours)
        self._reaper = weakref.finalize(self, _stop, self.process, self._transport)
        # Seeded while the child computes its first guess.
        self.replica = EpochReplica()
        seed = encode_keyframe_update(state, epoch)
        self.replica.apply(EpochUpdate(FrameKind.KEYFRAME, epoch, seed))

    def epoch_at(self, time_s: float, epoch: int) -> bytes:
        """Epoch ``epoch`` at ``time_s``: its ``DIFF`` frame, which
        :attr:`replica` has applied when this returns.

        The child's guess is taken if it is for ``time_s``; either way the
        ``EPOCH_AT`` frame answering it goes out at once — the child's cue
        to compute its next guess, or the time to compute this epoch at.
        """
        if not self._reaper.alive:
            raise CalculationChildError("the calculation child was closed")
        if epoch != self.replica.epoch + 1:
            raise CalculationChildError(
                f"epoch {epoch} asked of a calculation child at epoch {self.replica.epoch}: "
                f"a state was published around the coordinator"
            )
        data, meta, arrays = self._receive(epoch)
        try:
            self._transport.send_bytes(wire.encode_frame(FrameKind.EPOCH_AT, {"time_s": time_s}))
        except OSError as error:
            raise self._failed(f"it took no answer to epoch {epoch} ({error})") from error
        if meta["time_s"] != time_s:  # not the guess: computed now, from the same epoch
            data, meta, arrays = self._receive(epoch)
            if meta["time_s"] != time_s:
                raise CalculationChildError(
                    f"the calculation child sent epoch {epoch} at {meta['time_s']!r} s, "
                    f"not at {time_s} s"
                )
        try:
            self.replica.apply(EpochUpdate(FrameKind.DIFF, epoch, data, _decoded=[(meta, arrays)]))
        except CodecError as error:
            raise CalculationChildError(
                f"the calculation child's DIFF of epoch {epoch} does not apply: {error}"
            ) from error
        return data

    def _receive(self, epoch: int) -> tuple[bytes, dict, list]:
        """The child's next frame, the ``DIFF`` of ``epoch``, decoded, within
        :data:`CHILD_TIMEOUT_S`; a child found dead or stopped while the
        driver waits fails at once."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while not self._transport.poll(_LIVENESS_S):
            if not self.process.is_alive() or self.process.stopped is not None:
                raise self._failed(f"no epoch {epoch} came")
            if time.monotonic() > deadline:
                raise CalculationChildError(
                    f"the calculation child sent no epoch {epoch} within {CHILD_TIMEOUT_S:g} s"
                )
        try:
            data = self._transport.recv_bytes(timeout=max(_LIVENESS_S, deadline - time.monotonic()))
        except TransportTimeout as error:
            raise CalculationChildError(
                f"the calculation child stalled mid-frame at epoch {epoch}: {error}"
            ) from error
        except (EOFError, OSError) as error:
            self.process.join(timeout=1.0)
            raise self._failed(f"its stream closed at epoch {epoch} ({error})") from error
        try:
            kind, meta, arrays = wire.decode_frame(data)
        except wire.WireError as error:
            raise CalculationChildError(
                f"the calculation child sent a malformed frame at epoch {epoch}: {error}"
            ) from error
        if kind is FrameKind.ERROR:
            raise CalculationChildError(
                f"the calculation child failed at epoch {epoch}:\n{meta.get('traceback')}"
            )
        if (
            kind is not FrameKind.DIFF
            or meta.get("epoch") != epoch
            or type(meta.get("time_s")) not in (int, float)
        ):
            raise CalculationChildError(
                f"the calculation child sent a {kind.name} for epoch {meta.get('epoch')!r} "
                f"at {meta.get('time_s')!r} s, not the DIFF of epoch {epoch}"
            )
        return data, meta, arrays

    def _failed(self, what: str) -> CalculationChildError:
        return CalculationChildError(f"the calculation child {self.process.fate()}: {what}")

    def close(self) -> None:
        """Reap the child (idempotent)."""
        self._reaper()


def _enter_child(keep: int) -> None:  # pragma: no cover - runs in the child
    """Leave the driver's resources to the driver: every inherited file
    descriptor but 0–2 and ``keep`` is closed, the inherited heap is frozen
    out of the garbage collector and warnings are ignored."""
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    gc.freeze()
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the driver's to handle


def _serve(
    transport: SocketTransport,
    calculation,
    state,
    epoch: int,
    time_s: float,
    interval_s: float,
    parent: int,
) -> None:  # pragma: no cover - runs in the child
    """The child's loop: send the next epoch at the guessed time, then wait
    for the driver's ``EPOCH_AT``; a time that is not the guess is computed
    and sent too.  Anything but an ``EPOCH_AT`` ends it."""
    while True:
        following, frame = _advance(calculation, state, time_s, epoch + 1)
        transport.send_bytes(frame)
        while not transport.poll(_ORPHAN_S):
            if os.getppid() != parent:
                return
        try:
            kind, meta, _arrays = wire.decode_frame(transport.recv_bytes())
        except EOFError:
            return
        if kind is not FrameKind.EPOCH_AT:
            return
        if meta["time_s"] != time_s:
            time_s = meta["time_s"]
            following, frame = _advance(calculation, state, time_s, epoch + 1)
            transport.send_bytes(frame)
        state, epoch, time_s = following, epoch + 1, time_s + interval_s


def _advance(calculation, previous, time_s: float, epoch: int):  # pragma: no cover - child
    """Epoch ``epoch`` at ``time_s`` after ``previous``: ``(state, DIFF frame)``."""
    state, diff = calculation.diff_since(previous, time_s)
    return state, encode_diff_update(diff, epoch)
