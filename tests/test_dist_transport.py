"""Transport-seam tests: TCP framing, handshake, timeouts, restart decay.

Three layers of contract:

* :class:`SocketTransport` — length-prefixed frames round-trip exactly;
  closed peers raise ``EOFError``, stalled peers raise
  :class:`TransportTimeout` instead of hanging, corrupt length prefixes are
  typed errors.
* The connect/accept handshake — version skew and wrong worker indices are
  rejected before any payload crosses; a worker started by hand with
  ``python -m repro.dist.worker --connect`` (the remote-placement path) is
  indistinguishable from a spawned one, including crash + relaunch.
* Supervision hardening — a wedged-but-alive worker is detected by the
  receive timeout and rebuilt through the normal crash path, and the
  bounded restart budget decays after healthy acknowledged requests so
  transient crashes spread over a long run never become fatal.
"""

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core import MachineManager
from repro.dist import backend as backend_module
from repro.dist import transport as transport_module
from repro.dist import wire
from repro.dist import worker as worker_module
from repro.dist.backend import (
    ProcessFanoutBackend,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.dist.transport import (
    AUTH_NONCE_BYTES,
    MAX_FRAME_BYTES,
    HandshakeError,
    SocketListener,
    SocketTransport,
    TcpTransportFactory,
    TransportError,
    TransportTimeout,
    auth_digest,
    connect_transport,
    verify_auth,
)
from repro.dist.wire import FrameKind, WireVersionError
from repro.hosts import Host


def _transport_pair():
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


def _hosts(position=0):
    """A worker's one replica manager, on an empty host, by position."""
    manager = MachineManager(Host(index=position, cpu_cores=4, memory_mib=4096,
                                  allow_memory_overcommit=True))
    manager.key_root = 42 + position
    return {position: manager}


def _spec_frame(hosts):
    return wire.encode_frame(FrameKind.SPEC, *wire.spec_payload(hosts))


def _blueprint(hosts):
    """What a SPEC carries of each host, comparable across processes."""
    return {
        position: (
            manager.host.index,
            manager.host.cpu_cores,
            manager.host.memory_mib,
            manager.host.allow_memory_overcommit,
            manager.key_root,
            manager.counters_snapshot(),
        )
        for position, manager in hosts.items()
    }


def _handshake(worker_index, listener_secret="", dial_secret=""):
    """Dial a fresh listener for the slot; the hosts the dialer received."""
    listener = SocketListener(worker_index=worker_index, auth_secret=listener_secret)
    result = {}

    def dial():
        hosts, transport = connect_transport(
            "127.0.0.1", listener.port, worker_index, timeout_s=5.0, auth_secret=dial_secret
        )
        result["hosts"] = hosts
        transport.close()

    thread = threading.Thread(target=dial)
    thread.start()
    try:
        server_side = listener.accept(5.0)
        server_side.send_bytes(_spec_frame(_hosts(position=worker_index)))
        thread.join(timeout=5.0)
        server_side.close()
    finally:
        thread.join(timeout=5.0)
        listener.close()
    return result["hosts"]


class TestSocketTransportFraming:
    def test_messages_roundtrip_in_order(self):
        a, b = _transport_pair()
        try:
            payloads = [b"", b"x", os.urandom(1 << 10), b"tail"]
            for payload in payloads:
                a.send_bytes(payload)
            for payload in payloads:
                assert b.recv_bytes(timeout=5.0) == payload
        finally:
            a.close()
            b.close()

    def test_multi_megabyte_frame_roundtrips(self):
        # Larger than any kernel socket buffer: the sender must be drained
        # concurrently, and the chunked receive must reassemble exactly.
        a, b = _transport_pair()
        payload = os.urandom(3 * (1 << 20))
        try:
            sender = threading.Thread(target=a.send_bytes, args=(payload,))
            sender.start()
            received = b.recv_bytes(timeout=10.0)
            sender.join(timeout=10.0)
            assert received == payload
        finally:
            a.close()
            b.close()

    def test_clean_close_raises_eof(self):
        a, b = _transport_pair()
        a.close()
        with pytest.raises(EOFError):
            b.recv_bytes(timeout=5.0)
        b.close()

    def test_close_mid_frame_raises_eof(self):
        a, b = _transport_pair()
        # Claim 100 bytes, deliver 10, hang up.
        a._sock.sendall(struct.pack("<I", 100) + b"\x00" * 10)
        a.close()
        with pytest.raises(EOFError, match="mid-frame"):
            b.recv_bytes(timeout=5.0)
        b.close()

    def test_recv_timeout_when_idle(self):
        a, b = _transport_pair()
        try:
            start = time.monotonic()
            with pytest.raises(TransportTimeout):
                b.recv_bytes(timeout=0.2)
            assert time.monotonic() - start < 5.0
        finally:
            a.close()
            b.close()

    def test_recv_timeout_mid_frame_cannot_hang(self):
        # The wedged-peer scenario: a length prefix arrives, the body never
        # does.  poll() reports readable, so only a deadline on the receive
        # itself prevents an indefinite hang.
        a, b = _transport_pair()
        try:
            a._sock.sendall(struct.pack("<I", 100) + b"\x00" * 10)
            assert b.poll(1.0)
            with pytest.raises(TransportTimeout, match="outstanding"):
                b.recv_bytes(timeout=0.3)
        finally:
            a.close()
            b.close()

    def test_corrupt_length_prefix_is_a_typed_error(self):
        a, b = _transport_pair()
        try:
            a._sock.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError, match="length prefix"):
                b.recv_bytes(timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_deadline_budget_does_not_leak_into_later_blocking_calls(self):
        # The per-chunk settimeout used by a deadline-bounded receive must
        # be reset afterwards: sendall inherits the socket timeout, and a
        # stale sub-second budget would make the next multi-megabyte send
        # spuriously fail (or worse, stop mid-stream) on a healthy peer.
        a, b = _transport_pair()
        try:
            with pytest.raises(TransportTimeout):
                b.recv_bytes(timeout=0.1)
            assert b._sock.gettimeout() is None
            a.send_bytes(b"after-timeout")
            assert b.recv_bytes(timeout=1.0) == b"after-timeout"
            assert b._sock.gettimeout() is None
        finally:
            a.close()
            b.close()

    def test_poll_reflects_readability(self):
        a, b = _transport_pair()
        try:
            assert not b.poll(0.0)
            a.send_bytes(b"ping")
            assert b.poll(1.0)
            assert b.recv_bytes(timeout=1.0) == b"ping"
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_matching_worker_is_accepted_and_receives_spec(self):
        assert _blueprint(_handshake(3)) == _blueprint(_hosts(position=3))

    def test_wrong_worker_index_is_rejected(self):
        listener = SocketListener(worker_index=3)
        errors = []

        def dial():
            try:
                connect_transport("127.0.0.1", listener.port, 4, timeout_s=5.0)
            except (EOFError, OSError) as error:
                errors.append(error)

        thread = threading.Thread(target=dial)
        thread.start()
        try:
            with pytest.raises(TransportTimeout):
                listener.accept(1.0)
            thread.join(timeout=5.0)
            # The impostor's connection was closed on rejection.
            assert len(errors) == 1
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_version_skew_is_fatal(self):
        listener = SocketListener(worker_index=0)

        def dial():
            sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
            frame = bytearray(
                wire.encode_frame(FrameKind.HELLO, {"worker_index": 0})
            )
            frame[4:6] = (wire.WIRE_VERSION + 1).to_bytes(2, "little")
            sock.sendall(struct.pack("<I", len(frame)) + bytes(frame))
            # Leave the socket open: the accept side decides.
            time.sleep(1.0)
            sock.close()

        thread = threading.Thread(target=dial)
        thread.start()
        try:
            with pytest.raises(WireVersionError):
                listener.accept(5.0)
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_garbage_client_is_skipped_then_real_worker_accepted(self):
        listener = SocketListener(worker_index=1)

        def garbage_then_dial():
            sock = socket.create_connection(("127.0.0.1", listener.port), timeout=5.0)
            sock.sendall(struct.pack("<I", 32) + os.urandom(32))
            sock.close()
            hosts, transport = connect_transport(
                "127.0.0.1", listener.port, 1, timeout_s=5.0
            )
            assert _blueprint(hosts) == _blueprint(_hosts(position=1))
            transport.close()

        thread = threading.Thread(target=garbage_then_dial)
        thread.start()
        try:
            server_side = listener.accept(5.0)
            server_side.send_bytes(_spec_frame(_hosts(position=1)))
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            server_side.close()
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_accept_times_out_without_workers(self):
        listener = SocketListener(worker_index=0)
        try:
            start = time.monotonic()
            with pytest.raises(TransportTimeout, match="no worker"):
                listener.accept(0.2)
            assert time.monotonic() - start < 5.0
        finally:
            listener.close()


class TestAuthHandshake:
    def test_matching_secret_receives_spec(self):
        assert _blueprint(_handshake(2, "orbital", "orbital")) == _blueprint(_hosts(position=2))

    def test_mismatched_secret_is_rejected_before_the_spec_flows(self):
        listener = SocketListener(worker_index=2, auth_secret="orbital")
        outcomes = []

        def dial():
            try:
                connect_transport(
                    "127.0.0.1",
                    listener.port,
                    2,
                    timeout_s=2.0,
                    auth_secret="wrong",
                )
            except (EOFError, OSError, TransportError) as error:
                outcomes.append(error)

        thread = threading.Thread(target=dial)
        thread.start()
        try:
            # The impostor never passes the challenge, so no transport is
            # ever handed to the pool — and no SPEC frame is sent.
            with pytest.raises(TransportTimeout):
                listener.accept(1.0)
            thread.join(timeout=5.0)
            assert len(outcomes) == 1
        finally:
            thread.join(timeout=5.0)
            listener.close()


def _challenging_server(nonce_meta):
    """A one-shot listener that answers HELLO with a CHALLENGE carrying ``nonce_meta``."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _addr = server.accept()
        transport = SocketTransport(conn)
        try:
            transport.recv_bytes(timeout=5.0)  # the HELLO
            transport.send_bytes(wire.encode_frame(FrameKind.CHALLENGE, nonce_meta))
            transport.recv_bytes(timeout=5.0)  # EOF once the dialer gave up
        except (EOFError, OSError):
            pass
        finally:
            transport.close()
            server.close()

    thread = threading.Thread(target=serve)
    thread.start()
    return server.getsockname()[1], thread


class TestMalformedChallenge:
    """The CHALLENGE nonce and the AUTH digest travel as hex strings; a
    malformed one ends the handshake with a typed error on either side."""

    @pytest.mark.parametrize(
        "nonce_meta",
        [{"nonce": 5}, {"nonce": "zz" * AUTH_NONCE_BYTES}, {"nonce": "ab" * (AUTH_NONCE_BYTES - 1)},
         {"nonce": " a" * AUTH_NONCE_BYTES}, {}],
        ids=["int", "not-hex", "short", "whitespace", "missing"],
    )
    def test_a_malformed_nonce_is_a_handshake_error(self, nonce_meta):
        port, thread = _challenging_server(nonce_meta)
        try:
            with pytest.raises(HandshakeError, match="nonce"):
                connect_transport("127.0.0.1", port, 0, timeout_s=5.0, auth_secret="orbital")
        finally:
            thread.join(timeout=5.0)

    @pytest.mark.parametrize(
        "digest", ["not hex", "zz" * 32, "ab" * 31, 5, None, "valid"]
    )
    def test_only_the_hex_of_the_right_digest_passes(self, digest):
        server, dialer = _transport_pair()

        def answer():
            _kind, meta, _arrays = wire.decode_frame(dialer.recv_bytes(timeout=5.0))
            reply = digest
            if digest == "valid":
                reply = auth_digest("orbital", meta["nonce"], "worker-0")
            dialer.send_bytes(wire.encode_frame(FrameKind.AUTH, {"digest": reply}))

        thread = threading.Thread(target=answer)
        thread.start()
        try:
            assert verify_auth(server, "orbital", "worker-0", 5.0) is (digest == "valid")
        finally:
            thread.join(timeout=5.0)
            server.close()
            dialer.close()


class TestFactories:
    def test_external_mode_requires_explicit_ports(self):
        with pytest.raises(ValueError, match="base_port"):
            TcpTransportFactory(external=True)

    def test_listeners_persist_across_incarnations(self):
        factory = TcpTransportFactory()
        try:
            listener = factory.listener_for(0)
            assert factory.listener_for(0) is listener  # reconnect target
            assert listener.port != 0
        finally:
            factory.close()
        with pytest.raises(TransportError, match="closed"):
            factory.listener_for(0)


def _ping(backend, worker):
    """One ``PING`` sent to the pool and ``worker``'s requests in flight
    collected, uncompared: the ``PING``'s checkpoint, or None.

    None when the worker died with the ``PING`` in flight: its successor
    starts from the replica and is sent nothing again.
    """
    handle = backend._handles[worker]
    backend._request(FrameKind.PING, {})
    pending = len(handle.inflight)
    acks = backend._collect_from(handle)
    return acks[-1][0] if len(acks) == pending else None


def _crash(backend, worker):
    """Hard-kill a worker process (SIGKILL), as a real crash would."""
    process = backend._handles[worker].process
    process.kill()
    process.join(timeout=5.0)


def _pool(monkeypatch, ack_timeout_s=10.0, **constants):
    """A one-worker pool under patched module constants (``max_restarts=1``
    patches ``MAX_RESTARTS``); the ack deadline, the forked-peer deadline
    ``PEER_TIMEOUT_S``, defaults to 10 s."""
    monkeypatch.setattr(transport_module, "PEER_TIMEOUT_S", ack_timeout_s)
    for name, value in constants.items():
        monkeypatch.setattr(backend_module, name.upper(), value)
    return ProcessFanoutBackend(list(_hosts().values()))


def _failures(monkeypatch, pool):
    """The errors the pool's ack wait raises from now on, in order."""
    failures = []
    await_ack = pool._await_ack

    def recording(handle, seq):
        try:
            return await_ack(handle, seq)
        except Exception as error:
            failures.append(error)
            raise

    monkeypatch.setattr(pool, "_await_ack", recording)
    return failures


def _stop(process):
    """SIGSTOP a forked worker and wait until it is stopped."""
    os.kill(process.pid, signal.SIGSTOP)
    stat = Path(f"/proc/{process.pid}/stat")
    deadline = time.monotonic() + 5.0
    while stat.read_text().rsplit(")", 1)[1].split()[0] != "T":
        assert time.monotonic() < deadline, "the worker did not stop"
        time.sleep(0.01)


class TestSupervisionHardening:
    def test_wedged_worker_hits_timeout_and_is_rebuilt(self, monkeypatch):
        # The worker stays alive but stops serving (SIGSTOP): the wait's
        # poll finds it stopped, and that must route into the crash/restart
        # path rather than surfacing a bare error (or hanging); the pool's
        # kill still ends the stopped process.
        pool = _pool(monkeypatch, ack_timeout_s=1.0, max_restarts=2)
        try:
            assert "counters" in _ping(pool, 0)
            os.kill(pool._handles[0].process.pid, signal.SIGSTOP)
            assert _ping(pool, 0) is None  # timeout → kill → respawn, dropped
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            pool.close()

    def test_close_resumes_a_stopped_worker(self, monkeypatch):
        # A SIGSTOPped worker reads nothing and ignores SIGTERM: close()
        # continues it, so it reads its SHUTDOWN and exits cleanly instead of
        # being killed after the bounded joins.
        pool = _pool(monkeypatch)
        process = pool._handles[0].process
        try:
            assert "counters" in _ping(pool, 0)
            os.kill(process.pid, signal.SIGSTOP)
            stat = Path(f"/proc/{process.pid}/stat")
            deadline = time.monotonic() + 5.0
            while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "T":
                assert time.monotonic() < deadline, "the worker did not stop"
                time.sleep(0.01)
            started = time.monotonic()
            pool.close()
            assert time.monotonic() - started < 2.0
        finally:
            pool.close()
        assert process.exitcode == 0

    def test_a_worker_that_never_answers_hits_the_deadline_and_is_rebuilt(self, monkeypatch):
        # The worker runs but never answers its second request: only the
        # deadline can tell, and recovery kills and rebuilds it.
        dispatch = worker_module._Worker._dispatch

        def wedging(worker, kind, meta, arrays):
            if meta.get("seq") == 2:
                time.sleep(60.0)
            return dispatch(worker, kind, meta, arrays)

        monkeypatch.setattr(worker_module._Worker, "_dispatch", wedging)  # before the fork
        pool = _pool(monkeypatch, ack_timeout_s=1.0, max_restarts=2)
        failures = _failures(monkeypatch, pool)
        try:
            assert "counters" in _ping(pool, 0)
            started = time.monotonic()
            assert _ping(pool, 0) is None  # deadline → kill → respawn, dropped
            assert time.monotonic() - started >= 1.0
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            pool.close()
        assert [type(error) for error in failures] == [WorkerTimeoutError]
        assert str(failures[0]) == "worker 0 sent no ack 2 within 1 s"

    def test_a_stopped_worker_is_rebuilt_at_the_next_poll(self, monkeypatch):
        # Found stopped while the pool waits for its ack, not after the deadline.
        pool = _pool(monkeypatch, ack_timeout_s=30.0)
        failures = _failures(monkeypatch, pool)
        try:
            assert "counters" in _ping(pool, 0)
            _stop(pool._handles[0].process)
            started = time.monotonic()
            assert _ping(pool, 0) is None  # stopped → kill → respawn, dropped
            assert time.monotonic() - started < 5.0
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            pool.close()
        assert [type(error) for error in failures] == [WorkerCrashError]
        assert str(failures[0]) == "worker 0 was stopped by SIGSTOP: no ack 2 came"

    def test_the_heartbeat_rebuilds_a_stopped_worker(self, monkeypatch):
        pool = _pool(monkeypatch, ack_timeout_s=30.0)
        try:
            assert "counters" in _ping(pool, 0)
            _stop(pool._handles[0].process)
            pool._heartbeat()
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            pool.close()

    def test_timeout_error_is_a_crash_error(self):
        assert issubclass(WorkerTimeoutError, WorkerCrashError)

    def test_restart_budget_decays_after_healthy_acks(self, monkeypatch):
        pool = _pool(monkeypatch, max_restarts=1, restart_decay_acks=3)
        try:
            _ping(pool, 0)
            _crash(pool, 0)
            _ping(pool, 0)  # restart 1 of 1
            for _ in range(3):
                _ping(pool, 0)  # healthy streak decays the budget
            _crash(pool, 0)
            _ping(pool, 0)  # would exceed MAX_RESTARTS without decay
            assert pool.restart_count == 2
        finally:
            pool.close()

    def test_crash_loop_still_bounded(self, monkeypatch):
        # Crashes faster than the decay threshold must still exhaust the
        # budget — the decay handles transience, not brokenness.
        pool = _pool(monkeypatch, max_restarts=1, restart_decay_acks=100)
        try:
            _ping(pool, 0)
            _crash(pool, 0)
            _ping(pool, 0)  # restart 1 of 1
            _crash(pool, 0)
            with pytest.raises(WorkerCrashError, match="exceeded"):
                _ping(pool, 0)
        finally:
            pool.close()


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _launch_external_worker(port: int, index: int = 0) -> subprocess.Popen:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.dist.worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--index",
            str(index),
            "--connect-timeout",
            "20",
        ],
        env=env,
    )


class TestExternalWorkers:
    """The remote-placement path: workers the pool did not spawn."""

    def test_standalone_worker_serves_and_shuts_down_cleanly(self, monkeypatch):
        port = _free_port()
        factory = TcpTransportFactory(
            base_port=port, external=True, accept_timeout_s=20.0
        )
        monkeypatch.setattr(transport_module, "PEER_TIMEOUT_S", 20.0)
        process = _launch_external_worker(port)
        pool = None
        try:
            # The pool accepts the dial-in and ships the SPEC as it is built.
            pool = ProcessFanoutBackend(list(_hosts().values()), transport=factory)
            meta = _ping(pool, 0)
            assert "counters" in meta
            assert pool._handles[0].process is None  # not ours to join
        finally:
            if pool is not None:
                pool.close()
            try:
                assert process.wait(timeout=10.0) == 0  # clean SHUTDOWN exit
            finally:
                if process.poll() is None:  # pragma: no cover - cleanup
                    process.kill()

    def test_an_external_worker_that_closes_its_stream_is_a_crash(self, monkeypatch):
        # No process to watch: the closed stream alone tells, at once.
        port = _free_port()
        factory = TcpTransportFactory(base_port=port, external=True, accept_timeout_s=20.0)
        monkeypatch.setattr(transport_module, "PEER_TIMEOUT_S", 20.0)
        first = _launch_external_worker(port)
        pool = replacement = None
        try:
            pool = ProcessFanoutBackend(list(_hosts().values()), transport=factory)
            handle = pool._handles[0]
            assert "counters" in _ping(pool, 0)
            handle.conn.send_bytes(wire.encode_frame(FrameKind.SHUTDOWN, {}))
            assert first.wait(timeout=10.0) == 0  # it closed its stream and left
            pool._request(FrameKind.PING, {})
            with pytest.raises(
                WorkerCrashError, match="worker 0 is gone: its stream closed at ack 2"
            ) as raised:
                pool._await_ack(handle, handle.inflight[0][0])
            assert not isinstance(raised.value, WorkerTimeoutError)
            replacement = _launch_external_worker(port)
            assert _ping(pool, 0) is None  # EOF → recover → re-handshake, dropped
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            if pool is not None:
                pool.close()
            for process in (first, replacement):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=5.0)

    def test_killed_external_worker_recovers_via_relaunch_and_reconnect(self, monkeypatch):
        port = _free_port()
        factory = TcpTransportFactory(
            base_port=port, external=True, accept_timeout_s=20.0
        )
        monkeypatch.setattr(transport_module, "PEER_TIMEOUT_S", 20.0)
        first = _launch_external_worker(port)
        pool = replacement = None
        try:
            pool = ProcessFanoutBackend(list(_hosts().values()), transport=factory)
            _ping(pool, 0)
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=10.0)
            # The operator's relaunch: a fresh worker dials the same port
            # (the listener's backlog holds it until recovery accepts).
            replacement = _launch_external_worker(port)
            assert _ping(pool, 0) is None  # EOF → recover → re-handshake, dropped
            assert pool.restart_count == 1
            assert "counters" in _ping(pool, 0)
        finally:
            if pool is not None:
                pool.close()
            for process in (first, replacement):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=5.0)
