"""The transport seam between the driver's worker pool and its workers.

The paper's testbed runs hosts on *remote* machines, so the coordinator ↔
host seam is a network stream.  *What* travels is a ``repro.dist.wire``
frame; *how* it travels — RAFDA's distribution policy, kept apart from the
application logic — is this module, with one transport and one way to
obtain it:

* :class:`SocketTransport` — length-prefixed frames (:func:`frame`) over one
  TCP stream (to the coordinator's calculation child, one local stream
  socket: :mod:`repro.dist.calculation`).  Its ``send_bytes`` /
  ``recv_bytes`` / ``poll`` / ``close`` are
  all the driver, the worker and the serving tier's client use; their
  docstrings are the contract anything wrapping a transport must keep.  A
  clean peer close is ``EOFError``, a broken stream ``OSError``, a peer that
  wedges mid-frame :class:`TransportTimeout` instead of a hang.
* :class:`TcpTransportFactory` — how the worker pool *obtains* a transport for
  a worker spec, at start and again after every crash: one persistent
  listener per worker (a restarted worker reconnects to the *same* address)
  and a connect/accept handshake.  The worker's first frame is ``HELLO``
  with its index (the frame header carries ``WIRE_VERSION``, so an
  incompatible peer is rejected before anything else is read); the answer is
  a ``SPEC`` frame carrying the hosts it owns as the driver's replica holds
  them (:func:`~repro.dist.wire.decode_spec`).  A pool-spawned
  loopback worker and one started by hand
  on another machine (``python -m repro.dist.worker --connect host:port``,
  ``external=True`` here) therefore run the same code.
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import select
import socket
import struct
import time
from typing import Any, Optional

from repro.core.machine_manager import MachineManager
from repro.dist import wire
from repro.dist.wire import FrameKind

#: Upper bound on one length-prefixed frame (1 GiB).  The largest frames of a
#: full-Starlink run (a serving-tier keyframe, a worker's activity masks) are
#: a few MiB at most; anything near this bound is stream corruption, not data.
MAX_FRAME_BYTES = 1 << 30

#: Bytes of entropy in an authentication challenge nonce.
AUTH_NONCE_BYTES = 32

#: The little-endian ``u32`` byte count in front of every frame on a stream.
LENGTH_PREFIX = struct.Struct("<I")


class TransportError(OSError):
    """The transport channel failed (framing corruption, broken stream)."""


class TransportTimeout(TransportError, TimeoutError):
    """A receive did not complete within its deadline."""


class HandshakeError(TransportError):
    """The HELLO → SPEC handshake failed (an unexpected frame, a malformed challenge)."""


def frame(data: bytes) -> bytes:
    """One message as it travels on a stream: length prefix + payload."""
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"refusing to send a {len(data)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return LENGTH_PREFIX.pack(len(data)) + data


# -- shared-secret authentication ---------------------------------------------


def auth_digest(secret: str, nonce: str, identity: str) -> str:
    """The HMAC-SHA256 response to an authentication challenge, in hex.

    Keyed by the shared secret over ``nonce || identity``: binding the
    dialer's claimed identity (``worker-<index>`` for workers, the client
    id for gateway subscribers) into the digest stops a valid response
    from being replayed for a different slot, and the fresh server nonce
    (:data:`AUTH_NONCE_BYTES` random bytes in hex) stops replays across
    connections.
    """
    message = (nonce + identity).encode("utf-8")
    return hmac.new(secret.encode("utf-8"), message, hashlib.sha256).hexdigest()


def challenge() -> tuple[str, bytes]:
    """Server side: a fresh nonce and the ``CHALLENGE`` frame carrying it."""
    nonce = os.urandom(AUTH_NONCE_BYTES).hex()
    return nonce, wire.encode_frame(FrameKind.CHALLENGE, {"nonce": nonce})


def auth_matches(kind: FrameKind, meta: dict, secret: str, nonce: str, identity: str) -> bool:
    """Server side: whether a decoded frame is the ``AUTH`` with ``nonce``'s hex :func:`auth_digest`."""
    digest = meta.get("digest")
    return (
        kind is FrameKind.AUTH
        and isinstance(digest, str)
        and digest.isascii()
        and hmac.compare_digest(digest, auth_digest(secret, nonce, identity))
    )


def verify_auth(
    transport: SocketTransport, secret: str, identity: str, timeout_s: float
) -> bool:
    """Server side: challenge a dialer and verify its digest.

    Sends a ``CHALLENGE`` frame with a fresh nonce and expects an ``AUTH``
    frame answering it.  Returns ``False`` (instead of raising) on a wrong
    or malformed digest, an unexpected frame or a handshake timeout, so
    accept loops can drop the dialer and keep listening.
    """
    nonce, frame_bytes = challenge()
    try:
        transport.send_bytes(frame_bytes)
        kind, meta, _arrays = wire.decode_frame(
            transport.recv_bytes(timeout=timeout_s)
        )
    except (wire.WireError, TransportError, EOFError, OSError):
        return False
    return auth_matches(kind, meta, secret, nonce, identity)


def answer_challenge(
    transport: SocketTransport, meta: dict, secret: str, identity: str
) -> None:
    """Dialer side: answer a ``CHALLENGE``; a nonce that is not the hex of
    :data:`AUTH_NONCE_BYTES` bytes is a :class:`HandshakeError`."""
    nonce = meta.get("nonce")
    try:
        if len(bytes.fromhex(nonce)) != AUTH_NONCE_BYTES:
            raise ValueError(f"{len(nonce)} hex digits")
    except (TypeError, ValueError) as error:
        raise HandshakeError(f"malformed CHALLENGE nonce {nonce!r:.80}: {error}") from error
    digest = auth_digest(secret, nonce, identity)
    transport.send_bytes(wire.encode_frame(FrameKind.AUTH, {"digest": digest}))


class SocketTransport:
    """Length-prefixed wire frames over one connected TCP socket."""

    def __init__(self, sock: socket.socket):
        try:
            # Acks are small and latency-sensitive; don't let Nagle batch
            # them.  Best-effort: AF_UNIX stream sockets have no such knob.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        sock.setblocking(True)
        self._sock = sock
        self._closed = False

    def send_bytes(self, data: bytes) -> None:
        """Send one complete message (``OSError`` when the stream is broken)."""
        self._sock.sendall(frame(data))

    def recv_bytes(self, timeout: Optional[float] = None) -> bytes:
        """Receive one complete message.

        ``timeout=None`` blocks forever.  Raises :class:`TransportTimeout`
        when the deadline passes — it also covers a peer that stalls
        *mid-message* — and ``EOFError`` when the peer closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            prefix = self._recv_exact(LENGTH_PREFIX.size, deadline)
            (length,) = LENGTH_PREFIX.unpack(prefix)
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"frame length prefix {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit (stream corruption?)"
                )
            return self._recv_exact(length, deadline)
        finally:
            # The per-chunk deadline budgets must not leak into later
            # blocking receives or sends (sendall inherits the socket
            # timeout, and a partially timed-out send corrupts the stream).
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - closed concurrently
                pass

    def _recv_exact(self, count: int, deadline: Optional[float]) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TransportTimeout(
                        f"receive deadline passed with {remaining} of "
                        f"{count} bytes outstanding"
                    )
                self._sock.settimeout(budget)
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout as error:
                raise TransportTimeout(
                    f"receive deadline passed with {remaining} of "
                    f"{count} bytes outstanding"
                ) from error
            if not chunk:
                raise EOFError(
                    "connection closed mid-frame"
                    if chunks or count != remaining
                    else "connection closed"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a message (or EOF) is ready within ``timeout`` seconds."""
        if self._closed:
            return True  # a read will raise EOF/OSError immediately
        readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout))
        return bool(readable)

    def close(self) -> None:
        """Close the channel (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# -- connect / accept handshake ----------------------------------------------


def connect_transport(
    host: str,
    port: int,
    worker_index: int,
    timeout_s: float = 30.0,
    auth_secret: str = "",
) -> tuple[dict[int, MachineManager], SocketTransport]:
    """Worker side: dial the driver, handshake, receive the worker's hosts.

    Retries the TCP connect until ``timeout_s`` (the driver may still be
    binding its listeners, or — after a crash — still tearing down the dead
    predecessor), then sends ``HELLO`` with this worker's index and waits
    for the answering ``SPEC`` frame.  A driver configured with a
    shared secret interposes a ``CHALLENGE`` frame before the spec; the
    worker answers it with the HMAC digest derived from ``auth_secret``
    (an empty secret answers with a digest that cannot match, so the
    mismatch surfaces as the driver closing the connection).
    Returns the managers the ``SPEC`` frame carries, by host position, and
    the transport; any other frame at the end of the exchange is a
    :class:`HandshakeError`, a malformed ``SPEC`` a
    :class:`~repro.dist.wire.WireError`.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        budget = max(0.05, deadline - time.monotonic())
        try:
            sock = socket.create_connection((host, port), timeout=min(2.0, budget))
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)
    transport = SocketTransport(sock)
    try:
        transport.send_bytes(
            wire.encode_frame(FrameKind.HELLO, {"worker_index": worker_index})
        )
        data = transport.recv_bytes(timeout=max(0.05, deadline - time.monotonic()))
        kind, meta, arrays = wire.decode_frame(data)
        if kind is FrameKind.CHALLENGE:
            answer_challenge(
                transport, meta, auth_secret, f"worker-{worker_index}"
            )
            data = transport.recv_bytes(
                timeout=max(0.05, deadline - time.monotonic())
            )
            kind, meta, arrays = wire.decode_frame(data)
        if kind is not FrameKind.SPEC:
            raise HandshakeError(
                f"expected a SPEC frame after HELLO, got {kind.name}"
            )
        return wire.decode_spec(meta, arrays), transport
    except BaseException:
        transport.close()
        raise


class SocketListener:
    """One persistent listening socket for one worker slot.

    The listener outlives worker incarnations: a restarted (or operator-
    relaunched) worker reconnects to the same address and the accept-side
    handshake re-validates protocol version and worker index before the
    driver sends it its ``SPEC``.
    """

    def __init__(
        self,
        worker_index: int,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_secret: str = "",
    ):
        self.worker_index = worker_index
        self.host = host
        self.auth_secret = auth_secret
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` workers must dial."""
        return (self.host, self.port)

    def accept(self, timeout_s: float) -> SocketTransport:
        """Accept the next connection that passes the HELLO handshake.

        Connections that fail the handshake (garbage bytes from a stray
        client, a HELLO for the wrong worker slot) are closed and accepting
        continues until the deadline; an incompatible protocol generation
        raises :class:`~repro.dist.wire.WireVersionError` immediately —
        retrying cannot fix a version skew, the operator has mismatched
        builds.  Raises :class:`TransportTimeout` at the deadline.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise TransportTimeout(
                    f"no worker {self.worker_index} connected to "
                    f"{self.host}:{self.port} within {timeout_s:.1f}s"
                )
            self._sock.settimeout(budget)
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout as error:
                raise TransportTimeout(
                    f"no worker {self.worker_index} connected to "
                    f"{self.host}:{self.port} within {timeout_s:.1f}s"
                ) from error
            transport = SocketTransport(conn)
            try:
                # Each dialer gets a short handshake budget, not the whole
                # remaining window: a silent stray connection (port scanner,
                # health probe) must not starve the real worker's slot.
                handshake_budget = min(5.0, max(0.05, deadline - time.monotonic()))
                data = transport.recv_bytes(timeout=handshake_budget)
                kind, meta, _arrays = wire.decode_frame(data)
            except wire.WireVersionError:
                transport.close()
                raise
            except (wire.WireError, TransportError, EOFError, OSError):
                transport.close()
                continue
            if (
                kind is not FrameKind.HELLO
                or meta.get("worker_index") != self.worker_index
            ):
                transport.close()
                continue
            if self.auth_secret:
                # The challenge happens before the SPEC frame is sent, so
                # an unauthenticated dialer never sees the worker's hosts.
                handshake_budget = min(5.0, max(0.05, deadline - time.monotonic()))
                if not verify_auth(
                    transport,
                    self.auth_secret,
                    f"worker-{self.worker_index}",
                    handshake_budget,
                ):
                    transport.close()
                    continue
            return transport

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# -- the factory ---------------------------------------------------------------


class TcpTransportFactory:
    """Workers over loopback- or LAN-TCP, spawned locally or placed remotely.

    Managed mode (default): ``spawn`` launches a local child process that
    dials back in over loopback — every byte crosses a real TCP stream and
    the child runs exactly what a remote worker runs.

    External mode (``external=True``): the operator starts each worker by
    hand (``python -m repro.dist.worker --connect host:port --index N``,
    typically on another machine) and ``spawn`` only accepts; ``base_port``
    must then be explicit so the workers know where to dial (worker *i*
    listens on ``base_port + i``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        base_port: int = 0,
        external: bool = False,
        accept_timeout_s: float = 60.0,
        auth_secret: str = "",
    ):
        if external and base_port == 0:
            raise ValueError(
                "external workers need an explicit base_port to dial; "
                "an ephemeral port is only knowable to a spawning pool"
            )
        self.host = host
        self.base_port = base_port
        self.external = external
        self.accept_timeout_s = accept_timeout_s
        self.auth_secret = auth_secret
        self._listeners: dict[int, SocketListener] = {}
        self._closed = False

    def listener_for(self, worker_index: int) -> SocketListener:
        """The persistent listener of one worker slot (bound on first use)."""
        if self._closed:
            raise TransportError("the transport factory has been closed")
        if worker_index not in self._listeners:
            port = 0 if self.base_port == 0 else self.base_port + worker_index
            self._listeners[worker_index] = SocketListener(
                worker_index,
                host=self.host,
                port=port,
                auth_secret=self.auth_secret,
            )
        return self._listeners[worker_index]

    def spawn(self, worker_index: int, spec: bytes) -> tuple[Optional[Any], SocketTransport]:
        """Bring one worker up (pool start, every restart): ``(process, transport)``.

        ``spec`` is the ``SPEC`` frame that answers the worker's handshake.
        ``process`` is ``None`` in external mode, where the worker's lifetime
        is not the factory's to manage.
        """
        from repro.dist.worker import tcp_worker_main

        listener = self.listener_for(worker_index)
        process = None
        if not self.external:
            # fork (where available) shares the already-imported scientific
            # stack with the child; it is handed four scalars, so spawn does
            # just as well elsewhere.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            process = context.Process(
                target=tcp_worker_main,
                # Workers dial the loopback/LAN address the listener bound;
                # a spawned worker inherits the driver's shared secret.
                args=(self.host, listener.port, worker_index, self.auth_secret),
                name=f"celestial-worker-{worker_index}",
                daemon=True,
            )
            process.start()
        try:
            transport = listener.accept(self.accept_timeout_s)
            transport.send_bytes(spec)
        except BaseException:
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            raise
        return process, transport

    def close(self) -> None:
        """Release the listening sockets (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for listener in self._listeners.values():
            listener.close()
        self._listeners.clear()
