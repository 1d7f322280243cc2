"""Blocking subscriber client of the streaming gateway.

:class:`SubscriptionClient` dials a :class:`~repro.serve.gateway
.StreamGateway`, performs the SUBSCRIBE (and, when a shared secret is
configured, CHALLENGE/AUTH) handshake over a plain
:class:`~repro.dist.transport.SocketTransport`, and exposes the epoch
stream as decoded :class:`~repro.serve.codec.EpochUpdate` values.  An
internal :class:`~repro.serve.codec.EpochReplica` applies every received
keyframe/diff, so ``client.replica.snapshot()`` is the client's
bit-exact reconstruction of the streamed state projection.

``RESULT`` frames answering :meth:`query` calls are interleaved with the
stream by the gateway; the client buffers whichever frame kind it is not
currently waiting for, so queries and updates can be consumed in any
order.
"""

from __future__ import annotations

import socket
from collections import deque
from repro.dist import wire
from repro.dist.transport import HandshakeError, SocketTransport, answer_challenge
from repro.dist.wire import FrameKind
from repro.serve.codec import EpochReplica, EpochUpdate


class SubscriptionError(ConnectionError):
    """The gateway rejected or dropped the subscription."""


def _field(meta: dict, key: str, kind: FrameKind):
    """``meta[key]`` of a received frame; a frame without it is a :class:`SubscriptionError`."""
    if key not in meta:
        raise SubscriptionError(f"a {kind.name} frame without {key!r}: {meta!r:.200}")
    return meta[key]


class SubscriptionClient:
    """One blocking gateway subscription (dial → subscribe → stream)."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "",
        auth_secret: str = "",
        timeout_s: float = 30.0,
    ):
        self.timeout_s = timeout_s
        self.replica = EpochReplica()
        self._updates: deque[EpochUpdate] = deque()
        self._results: deque[dict] = deque()
        sock = socket.create_connection((host, port), timeout=timeout_s)
        self.transport = SocketTransport(sock)
        try:
            self.transport.send_bytes(
                wire.encode_frame(FrameKind.SUBSCRIBE, {"client": client_id})
            )
            kind, meta, _arrays, _data = self._recv()
            if kind is FrameKind.CHALLENGE:
                try:
                    answer_challenge(self.transport, meta, auth_secret, client_id or "")
                except HandshakeError as error:
                    raise SubscriptionError(str(error)) from error
                kind, meta, _arrays, _data = self._recv()
            if kind is FrameKind.ERROR:
                raise SubscriptionError(
                    str(meta.get("error", "the gateway rejected the subscription"))
                )
            if kind is not FrameKind.SUBSCRIBE_ACK:
                raise SubscriptionError(
                    f"expected SUBSCRIBE_ACK, got {kind.name}"
                )
            self.client_id = _field(meta, "client", kind)
        except BaseException:
            self.transport.close()
            raise

    # -- receiving -----------------------------------------------------------

    def _recv(self):
        try:
            data = self.transport.recv_bytes(self.timeout_s)
        except EOFError as error:
            raise SubscriptionError("the gateway closed the stream") from error
        kind, meta, arrays = wire.decode_frame(data)
        return kind, meta, arrays, data

    def _pump(self, want_update: bool):
        """Read frames, buffering the kind the caller is not waiting for."""
        while True:
            kind, meta, arrays, data = self._recv()
            if kind in (FrameKind.KEYFRAME, FrameKind.DIFF):
                # The update keeps the received bytes verbatim — the client
                # never re-encodes what the gateway fanned out — and the
                # decoding just made, so the replica does not decode again.
                epoch = _field(meta, "epoch", kind)
                update = EpochUpdate(kind, epoch, data, _decoded=[(meta, arrays)])
                if want_update:
                    return update
                self._updates.append(update)
            elif kind is FrameKind.RESULT:
                if not want_update:
                    return meta
                self._results.append(meta)
            else:
                raise SubscriptionError(f"unexpected {kind.name} frame")

    def recv_update(self, apply: bool = True) -> EpochUpdate:
        """The next keyframe/diff update from the stream.

        With ``apply=True`` (default) the update is applied to the
        client's replica; a keyframe received after an eviction resets
        the replica to the keyframe's epoch, exactly as the gateway's
        resync protocol intends.
        """
        update = self._updates.popleft() if self._updates else self._pump(True)
        if apply:
            self.replica.apply(update)
        return update

    def sync_to_epoch(self, epoch: int, apply: bool = True) -> list[EpochUpdate]:
        """Consume stream updates until the replica reaches ``epoch``."""
        received = []
        while not received or received[-1].epoch < epoch:
            received.append(self.recv_update(apply=apply))
        return received

    # -- querying ------------------------------------------------------------

    def query(self, source: str, destination: str) -> dict:
        """Path latency ``source → destination`` in the gateway's current epoch.

        Targets are machine names, resolved as the info API resolves them
        (:func:`~repro.core.constellation.machine_from_name`): ``<id>.<shell>``
        for satellites, the station name, its DNS slug or
        ``<slug>.gst.celestial`` for ground stations.
        """
        self.transport.send_bytes(
            wire.encode_frame(
                FrameKind.QUERY, {"source": source, "destination": destination}
            )
        )
        return self._results.popleft() if self._results else self._pump(False)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "SubscriptionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
