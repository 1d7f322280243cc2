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
* :func:`fork`, :class:`ForkedProcess`, :func:`receive_from` and
  :func:`stop` — how every process the testbed starts is started, waited on
  and reaped, a spawned worker and the coordinator's calculation child
  alike: forked, watched through one handle, its frames awaited by one rule
  (checked every :data:`PEER_POLL_S`, it fails at once when dead or stopped,
  at :data:`PEER_TIMEOUT_S` when silent or stalled mid-frame) and stopped
  by one escalation (``SHUTDOWN``, then terminate, then kill, each join
  bounded).  Their owners call :func:`stop` from ``close`` and from a
  ``weakref.finalize``, which also runs at interpreter exit.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import os
import select
import signal
import socket
import struct
import time
import traceback
import warnings
from typing import Callable, Optional

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

#: Seconds the driver waits for a frame of a process it forked (ack or epoch).
PEER_TIMEOUT_S = 120.0
#: Seconds between a waiting driver's checks that the peer still runs.
PEER_POLL_S = 0.05


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

    Managed mode (default): ``spawn`` forks a local child (:func:`fork`)
    that dials back in over loopback — every byte crosses a real TCP stream and
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

    def spawn(
        self, worker_index: int, spec: bytes
    ) -> tuple[Optional[ForkedProcess], SocketTransport]:
        """Bring one worker up (pool start, every restart): ``(process, transport)``.

        ``spec`` is the ``SPEC`` frame that answers the worker's handshake.
        ``process`` is ``None`` in external mode, where the worker's lifetime
        is not the factory's to manage.
        """
        from repro.dist.worker import tcp_worker_main

        listener = self.listener_for(worker_index)
        process = transport = None
        if not self.external:
            # Workers dial the loopback/LAN address the listener bound; a
            # forked worker inherits the driver's shared secret.
            process = fork(
                tcp_worker_main, self.host, listener.port, worker_index, self.auth_secret
            )
        try:
            transport = listener.accept(self.accept_timeout_s)
            transport.send_bytes(spec)
        except BaseException:
            stop(process, transport)
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


# -- the processes the testbed forks ---------------------------------------------


class ForkedProcess:
    """A child forked by this process (:func:`fork`), known by its pid.

    The calls :func:`stop` and the forked-peer wait make on a process
    (``is_alive``, ``join``, ``terminate``, ``kill``), plus the stop a
    ``SIGSTOP`` leaves.  ``join`` takes a deadline: nothing waits for a
    child unboundedly.
    """

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


def fork(main: Callable[..., object], *args) -> ForkedProcess:
    """Run ``main(*args)`` in a forked child and return its handle: how the
    testbed starts each process of its own (a pool's worker, the
    calculation child).

    The child inherits what is imported and built, keeps standard input,
    output and error and the sockets among ``args``, and leaves the rest to
    this process (:func:`_enter_child`).  On Linux it runs under
    ``SCHED_BATCH``, so a wake-up of the child never preempts this process:
    the driver waits on its peers only when it asks them for something.  It
    ends by ``os._exit``: status 0 when ``main`` returns, 1 after printing
    the traceback when it raises.
    """
    keep = sorted(arg.fileno() for arg in args if isinstance(arg, socket.socket))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child, which leaves by os._exit
        code = 1
        try:
            if hasattr(os, "SCHED_BATCH"):  # Linux; elsewhere the default policy
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            _enter_child(keep)
            main(*args)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    return ForkedProcess(pid)


def _enter_child(keep: list[int]) -> None:  # pragma: no cover - runs in the child
    """Leave the driver's resources to the driver: every inherited file
    descriptor but 0–2 and ``keep`` (ascending) is closed — a gateway's
    listening socket, a subscriber's connection, another child's stream —
    the inherited heap is frozen out of the garbage collector (no finaliser
    of the driver's objects runs here), and warnings and Ctrl-C are
    ignored (the driver handles both)."""
    low = 3
    for descriptor in keep:
        os.closerange(low, descriptor)
        low = descriptor + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))
    gc.freeze()
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def stop(process: Optional[ForkedProcess], transport: Optional[SocketTransport]) -> None:
    """Reap a forked child over its stream (idempotent): ``SHUTDOWN``, close
    the stream, ``SIGCONT`` (a stopped child reads nothing), then a bounded
    join, terminate, kill.

    ``process`` is ``None`` for an external worker, which is only sent
    ``SHUTDOWN``; ``transport`` is ``None`` for a child that never connected.
    """
    if transport is not None:
        try:
            if process is None or process.is_alive():
                transport.send_bytes(wire.encode_frame(FrameKind.SHUTDOWN, {}))
        except OSError:
            pass
        transport.close()
    if process is None:
        return
    process.resume()
    process.join(timeout=2.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - last resort
        process.kill()
        process.join(timeout=1.0)


# -- the wait for a forked peer's frame --------------------------------------------


def lost(process: Optional[ForkedProcess]) -> bool:
    """The liveness rule of a forked peer: it is lost when dead or stopped.
    An external worker (``None``) is never found lost; only its stream tells."""
    return process is not None and (not process.is_alive() or process.stopped is not None)


def fate_of(process: Optional[ForkedProcess]) -> str:
    """How a peer ended or paused, for an error message.  A killed child's
    stream can close before ``waitpid`` sees it exit, so a child that is not
    stopped gets a bounded join first."""
    if process is None:
        return "is gone"
    if process.stopped is None:
        process.join(timeout=1.0)
    if process.exitcode is not None and process.exitcode < 0:
        return f"was killed by {signal.Signals(-process.exitcode).name}"
    if process.exitcode is not None:
        return f"exited with status {process.exitcode}"
    if process.stopped is not None:
        return f"was stopped by {signal.Signals(process.stopped).name}"
    return "is still running"


def receive_from(
    process: Optional[ForkedProcess],
    stream: SocketTransport,
    peer: str,
    awaited: str,
    failure: type[Exception],
    timeout: Optional[type[Exception]] = None,
) -> tuple[bytes, FrameKind, dict, list]:
    """The next frame of ``peer`` (``process`` is ``None`` for an external
    worker), decoded: ``(data, kind, meta, arrays)``.

    A peer found :func:`lost` at a poll, a closed stream and a frame that
    does not decode raise the owner's ``failure``, naming ``awaited``; a
    peer silent or stalled mid-frame until :data:`PEER_TIMEOUT_S` its
    ``timeout`` (default ``failure``).  A version skew passes as it is.
    """
    timeout = timeout or failure
    deadline = time.monotonic() + PEER_TIMEOUT_S
    while not stream.poll(PEER_POLL_S):
        if lost(process):
            raise failure(f"{peer} {fate_of(process)}: no {awaited} came")
        if time.monotonic() > deadline:
            raise timeout(f"{peer} sent no {awaited} within {PEER_TIMEOUT_S:g} s")
    try:
        data = stream.recv_bytes(timeout=max(PEER_POLL_S, deadline - time.monotonic()))
    except TransportTimeout as error:
        raise timeout(f"{peer} stalled mid-frame at {awaited}: {error}") from error
    except (EOFError, OSError) as error:
        raise failure(f"{peer} {fate_of(process)}: its stream closed at {awaited} ({error})") from error
    try:
        kind, meta, arrays = wire.decode_frame(data)
    except wire.WireVersionError:
        raise
    except wire.WireError as error:
        raise failure(f"{peer} sent a malformed frame at {awaited}: {error}") from error
    return data, kind, meta, arrays
