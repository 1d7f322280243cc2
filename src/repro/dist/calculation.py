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
The rebuild copies what the frame carries — the link columns with their
delay counts, the activity, the trend — and derives the geometry only where
it is read: the satellite positions on the first read that names a
satellite (a path's bound, which only a bounded search reads, a station's
uplinks), the link distances on the first read of the column, or of a
station's uplinks alone.  The child computes every epoch eagerly, because
its visibility checks need every position.

Failure is typed and bounded.  The driver waits for each frame as for any
forked peer (:func:`~repro.dist.transport.receive_from`): a child found dead
or stopped fails at the next poll, one silent or stalled mid-frame at the
deadline.  That, a child that reported an exception, and a frame that does
not decode, is not the ``DIFF`` of the epoch asked for or does not chain
onto the replica, are a :class:`CalculationChildError` naming the cause.  A
failed child is not respawned.

The child is forked (:func:`~repro.dist.transport.fork`) while other
driver threads (the gateway's event loop) run, so it touches nothing they
lock: not the database, not the codec's memo, not the gateway.  It keeps
only its own stream of the driver's file descriptors and ends by itself
when that stream closes or the driver is gone.  :meth:`CalculationChild.close`
and a ``weakref.finalize`` (which also runs at interpreter exit) reap it
with :func:`~repro.dist.transport.stop`, the worker pool's escalation: a
``SHUTDOWN`` frame, then terminate, then kill.
"""

from __future__ import annotations

import os
import socket
import traceback
import weakref

from repro.dist import transport, wire
from repro.dist.transport import SocketTransport, fork, stop
from repro.dist.wire import FrameKind
from repro.serve.codec import (
    CodecError,
    EpochReplica,
    EpochUpdate,
    encode_diff_update,
    encode_keyframe_update,
)

#: Seconds between an idle child's checks that the driver still runs.
_ORPHAN_S = 1.0


class CalculationChildError(RuntimeError):
    """The calculation child died, was stopped, stalled, failed, or sent a
    frame that is not the epoch asked for."""


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
        self.process = fork(
            _serve, theirs, calculation, state, epoch, time_s, interval_s, os.getpid()
        )
        # A plain close of the child's end: a shutdown would end the stream.
        theirs.close()
        self._transport = SocketTransport(ours)
        self._reaper = weakref.finalize(self, stop, self.process, self._transport)
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
            raise CalculationChildError(
                f"the calculation child {transport.fate_of(self.process)}: "
                f"it took no answer to epoch {epoch} ({error})"
            ) from error
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
        the forked-peer wait (:func:`~repro.dist.transport.receive_from`)."""
        data, kind, meta, arrays = transport.receive_from(
            self.process, self._transport, "the calculation child", f"epoch {epoch}",
            CalculationChildError,
        )
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

    def close(self) -> None:
        """Reap the child (idempotent)."""
        self._reaper()


def _serve(
    sock: socket.socket,
    calculation,
    state,
    epoch: int,
    time_s: float,
    interval_s: float,
    parent: int,
) -> None:  # pragma: no cover - runs in the child
    """The child's loop: send the next epoch at the guessed time, then wait
    for the driver's ``EPOCH_AT``; a time that is not the guess is computed
    and sent too.  Anything but an ``EPOCH_AT`` or a closed stream ends it,
    and any other exception is sent as an ``ERROR`` frame before it ends
    the child."""
    stream = SocketTransport(sock)
    try:
        while True:
            following, frame = _advance(calculation, state, time_s, epoch + 1)
            stream.send_bytes(frame)
            while not stream.poll(_ORPHAN_S):
                if os.getppid() != parent:
                    return
            kind, meta, _arrays = wire.decode_frame(stream.recv_bytes())
            if kind is not FrameKind.EPOCH_AT:
                return
            if meta["time_s"] != time_s:
                time_s = meta["time_s"]
                following, frame = _advance(calculation, state, time_s, epoch + 1)
                stream.send_bytes(frame)
            state, epoch, time_s = following, epoch + 1, time_s + interval_s
    except (EOFError, OSError):  # the driver closed the stream: it asks for nothing more
        return
    except Exception:
        stream.send_bytes(
            wire.encode_frame(FrameKind.ERROR, {"traceback": traceback.format_exc()})
        )
        raise


def _advance(calculation, previous, time_s: float, epoch: int):  # pragma: no cover - child
    """Epoch ``epoch`` at ``time_s`` after ``previous``: ``(state, DIFF frame)``."""
    state, diff = calculation.diff_since(previous, time_s)
    return state, encode_diff_update(diff, epoch)
