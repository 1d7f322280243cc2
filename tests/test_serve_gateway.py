"""End-to-end tests of the streaming gateway over real sockets.

Covers the serving-tier contract: shared-bytes fan-out with bit-exact
client reconstruction, slow-client eviction with keyframe resync, the
refusal of the removed scoped subscriptions, the shared-secret subscription
handshake and warm-table path queries with per-client cache attribution —
plus the database staying torn-read-free under concurrent info-API readers
and the server's start-up failing fast on a taken port.
"""

import asyncio
import contextlib
import dataclasses
import itertools
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.core import (
    Celestial,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    DNSError,
    GroundStationConfig,
    InfoAPI,
    InfoAPIError,
    NetworkParams,
    ShellConfig,
)
from repro.core.addressing import machine_ip
from repro.experiments import ExperimentSpecError, FaultOp, schedule_fault_program
from repro.orbits import GroundStation, ShellGeometry
from repro.dist import wire
from repro.scenarios import west_africa_configuration
from repro.dist.transport import LENGTH_PREFIX, SocketTransport, frame as stream_frame
from repro.serve import EpochSnapshot
from repro.serve.client import SubscriptionClient, SubscriptionError
from repro.serve.gateway import GatewayError, GatewayServer, StreamGateway, _Subscription


def iridium_configuration() -> Configuration:
    return Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            GroundStationConfig(station=GroundStation("buoy-0", 10.0, -160.0)),
        ),
        update_interval_s=5.0,
    )


@pytest.fixture()
def testbed_core():
    """Calculation + database seeded with epoch 1."""
    config = iridium_configuration()
    calculation = ConstellationCalculation(config)
    database = ConstellationDatabase()
    state = calculation.state_at(0.0)
    database.set_state(state)
    return config, calculation, database, state


def advance(calculation, database, previous, now_s):
    state, diff = calculation.diff_since(previous, now_s)
    database.set_state(state, diff=diff)
    return state


class TestStreaming:
    def test_fanout_is_bit_exact_and_single_encode(self, testbed_core):
        _, calculation, database, state = testbed_core
        epochs = 8
        with GatewayServer(database) as server:
            host, port = server.address
            clients = [
                SubscriptionClient(host, port, client_id=f"sub-{i}")
                for i in range(3)
            ]
            try:
                for client in clients:
                    client.sync_to_epoch(1)  # the seeded keyframe
                for step in range(1, epochs):
                    state = advance(calculation, database, state, step * 30.0)
                final_epoch = database.epoch
                for client in clients:
                    client.sync_to_epoch(final_epoch)
                    assert client.replica.snapshot().same_bits(
                        EpochSnapshot.from_state(state, final_epoch)
                    )
                    assert client.replica.applied_keyframes == 1
                stats = server.statistics()
            finally:
                for client in clients:
                    client.close()
        # One keyframe + one diff per published epoch, shared by 3 clients.
        assert stats["encode_count"] == epochs
        assert stats["published_epochs"] == epochs - 1
        assert stats["subscriptions"] == 3

    def test_client_decodes_each_received_update_once(self, testbed_core, monkeypatch):
        """The frame the client decoded off the socket is the one its replica
        applies: one ``decode_frame`` call per received update."""
        _, calculation, database, state = testbed_core
        decoded = []
        decode_frame = wire.decode_frame
        monkeypatch.setattr(
            wire, "decode_frame", lambda data: decoded.append(data) or decode_frame(data)
        )
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="once") as client:
                for step in range(1, 4):
                    state = advance(calculation, database, state, step * 30.0)
                decoded.clear()  # the handshake's frames and the server's own
                updates = client.sync_to_epoch(database.epoch)
                assert [update.epoch for update in updates] == [1, 2, 3, 4]
                assert [update.decoded()[0]["epoch"] for update in updates] == [1, 2, 3, 4]
                assert decoded == [update.data for update in updates]
                assert client.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )

    def test_slow_client_is_evicted_and_resyncs_bit_for_bit(self, testbed_core):
        _, calculation, database, state = testbed_core
        # Epochs alternating between two instants let the publisher flood
        # thousands of cheap epochs until the subscriber's bounded queue
        # provably overflowed.  Each is computed from the one published
        # before it: a DIFF predicts from the trend of the state it follows.
        with GatewayServer(database, queue_limit=4) as server:
            host, port = server.address
            client = SubscriptionClient(host, port, client_id="slow")
            try:
                # Consume the seeded keyframe first so the resync keyframe
                # below is provably a *second* applied keyframe (otherwise
                # an eviction may drop the seed before it is ever written).
                client.sync_to_epoch(1)
                assert client.replica.applied_keyframes == 1
                evictions = 0
                for round_index in range(40):
                    for _ in range(50):
                        state = advance(calculation, database, state, 30.0 * (database.epoch % 2))
                    evictions = server.statistics()["evictions"]
                    if evictions:
                        break
                assert evictions >= 1, "queue never overflowed; grow the flood"
                final_epoch = database.epoch
                client.sync_to_epoch(final_epoch)
                assert client.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, final_epoch)
                )
                # The resync keyframe(s) actually reached the replica.
                assert client.replica.applied_keyframes >= 2
            finally:
                client.close()


def _assert_every_epoch_matches(client, epoch, expected, coded):
    """Sync ``client`` to ``epoch`` one update at a time; after each, its
    replica equals the server's state of that epoch.  Records each DIFF's
    residual field width in ``coded``."""
    while client.replica.epoch is None or client.replica.epoch < epoch:
        update = client.recv_update()
        meta, arrays = update.decoded()
        if update.kind is wire.FrameKind.DIFF:
            coded.add(meta["bits"])
        assert client.replica.snapshot().same_bits(
            EpochSnapshot.from_state(expected[update.epoch], update.epoch)
        ), f"{client.client_id} diverged at epoch {update.epoch}"


class TestStreamsOfResiduals:
    """Delays travel as residuals against each link's delay trend; a
    subscriber that starts from a later keyframe, which carries the trend,
    must predict exactly as one that saw every epoch."""

    def test_a_subscriber_joining_at_epoch_37_matches_a_continuous_one(self, testbed_core):
        _, calculation, database, state = testbed_core
        expected, coded = {1: state}, set()
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="continuous") as continuous:
                for step in range(1, 37):
                    state = advance(calculation, database, state, step * 5.0)
                    expected[database.epoch] = state
                    _assert_every_epoch_matches(continuous, database.epoch, expected, coded)
                with SubscriptionClient(host, port, client_id="joiner") as joiner:
                    _assert_every_epoch_matches(joiner, 37, expected, coded)
                    assert joiner.replica.applied_keyframes == 1
                    for step in range(37, 60):
                        state = advance(calculation, database, state, step * 5.0)
                        expected[database.epoch] = state
                        for client in (continuous, joiner):
                            _assert_every_epoch_matches(client, database.epoch, expected, coded)
                        assert joiner.replica.snapshot().same_bits(continuous.replica.snapshot())
                    assert joiner.replica.applied_keyframes == 1
                assert continuous.replica.applied_keyframes == 1
        assert coded and coded <= set(range(1, 9)), coded

    def test_an_evicted_subscriber_resyncs_onto_the_residual_stream(self):
        """A subscriber that stops reading overflows and is resynced from the
        keyframe of the epoch being published; from then on it matches a
        continuous subscriber at every epoch.  All-shell Starlink: frames of
        ≈ 2–6 KB fill the socket buffers in at most a few hundred epochs."""
        calculation = ConstellationCalculation(west_africa_configuration(shells="all"))
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        # A smooth run out and back, repeated until the slow subscriber's
        # buffers overflow: residuals on the runs, wider ones at the turns.
        # Each epoch is computed from the one published before it, as the
        # coordinator does, so every DIFF predicts from the trend its
        # subscribers hold.
        times = itertools.cycle([*range(2, 42, 2), *range(38, -2, -2)])
        expected, coded = {1: state}, set()
        with GatewayServer(database, queue_limit=4) as server:
            host, port = server.address
            slow = SubscriptionClient(host, port, client_id="slow")
            with slow, SubscriptionClient(host, port, client_id="continuous") as continuous:
                _assert_every_epoch_matches(slow, 1, expected, coded)
                for _burst in range(1000):
                    # No more than the queue holds between two syncs of the
                    # continuous subscriber, which therefore never overflows.
                    for _ in range(4):
                        state, diff = calculation.diff_since(state, float(next(times)))
                        database.set_state(state, diff=diff)
                        expected[database.epoch] = state
                    _assert_every_epoch_matches(continuous, database.epoch, expected, coded)
                    if server.statistics()["clients"]["slow"]["evictions"]:
                        break
                assert server.statistics()["clients"]["slow"]["evictions"] >= 1
                for _ in range(30):
                    state, diff = calculation.diff_since(state, float(next(times)))
                    database.set_state(state, diff=diff)
                    expected[database.epoch] = state
                    for client in (continuous, slow):
                        _assert_every_epoch_matches(client, database.epoch, expected, coded)
                assert slow.replica.snapshot().same_bits(continuous.replica.snapshot())
                assert slow.replica.applied_keyframes >= 2
                assert continuous.replica.applied_keyframes == 1
        assert coded and coded <= set(range(1, 9)), coded


class TestScopeIsRefused:
    @pytest.mark.parametrize(
        "scope",
        [
            {"kind": "bbox", "lat_min": -2.0, "lat_max": 2.0, "lon_min": 0.0, "lon_max": 4.0},
            {"kind": "gst", "name": "hawaii"},
            {},
        ],
        ids=["bbox", "gst", "empty"],
    )
    def test_scope_subscribe_is_an_error_and_others_keep_streaming(
        self, testbed_core, monkeypatch, scope
    ):
        """A v5-style SUBSCRIBE asking for a filtered stream is told it is
        gone — never silently handed the full one."""
        _, calculation, database, state = testbed_core
        encode_frame = wire.encode_frame

        def old_client_encode(kind, meta=None, arrays=()):
            if kind is wire.FrameKind.SUBSCRIBE:
                meta = {**meta, "scope": scope}
            return encode_frame(kind, meta, arrays)

        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="full") as full:
                full.sync_to_epoch(1)
                with monkeypatch.context() as patched:
                    patched.setattr(wire, "encode_frame", old_client_encode)
                    with pytest.raises(SubscriptionError, match="scope"):
                        SubscriptionClient(host, port, client_id="scoped", timeout_s=5.0)
                with pytest.raises(TypeError):
                    SubscriptionClient(host, port, client_id="scoped", scope=scope)
                stats = server.statistics()
                assert stats["rejected_subscriptions"] == 1
                assert list(stats["clients"]) == ["full"]
                state = advance(calculation, database, state, 30.0)
                full.sync_to_epoch(database.epoch)
                assert full.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )


class TestAuth:
    def test_matching_secret_subscribes(self, testbed_core):
        _, _, database, _ = testbed_core
        with GatewayServer(database, auth_secret="orbital") as server:
            host, port = server.address
            with SubscriptionClient(
                host, port, client_id="trusted", auth_secret="orbital"
            ) as client:
                assert client.client_id == "trusted"
                client.sync_to_epoch(1)
            assert server.statistics()["rejected_subscriptions"] == 0

    def test_wrong_secret_is_rejected_before_any_state_flows(self, testbed_core):
        _, _, database, _ = testbed_core
        with GatewayServer(database, auth_secret="orbital") as server:
            host, port = server.address
            with pytest.raises(SubscriptionError):
                SubscriptionClient(
                    host, port, client_id="mallory", auth_secret="wrong", timeout_s=5.0
                )
            stats = server.statistics()
            assert stats["rejected_subscriptions"] == 1
            assert stats["subscriptions"] == 0


    def test_a_malformed_challenge_is_a_subscription_error(self):
        # A CHALLENGE whose nonce is not the hex of AUTH_NONCE_BYTES bytes.
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _addr = server.accept()
            transport = SocketTransport(conn)
            try:
                transport.recv_bytes(timeout=5.0)  # the SUBSCRIBE
                transport.send_bytes(wire.encode_frame(wire.FrameKind.CHALLENGE, {"nonce": 5}))
                transport.recv_bytes(timeout=5.0)  # EOF once the client gave up
            except (EOFError, OSError):
                pass
            finally:
                transport.close()
                server.close()

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            with pytest.raises(SubscriptionError, match="nonce"):
                SubscriptionClient(
                    "127.0.0.1", server.getsockname()[1], client_id="c",
                    auth_secret="orbital", timeout_s=5.0,
                )
        finally:
            thread.join(timeout=5.0)

    @pytest.mark.parametrize("digest", ["not hex", "zz" * 32, 5])
    def test_a_digest_that_is_not_hex_is_a_rejected_subscription(self, testbed_core, digest):
        _, _, database, _ = testbed_core
        with GatewayServer(database, auth_secret="orbital") as server:
            transport = SocketTransport(socket.create_connection(server.address, timeout=5.0))
            try:
                transport.send_bytes(wire.encode_frame(wire.FrameKind.SUBSCRIBE, {"client": "m"}))
                kind, _meta, _arrays = wire.decode_frame(transport.recv_bytes(timeout=5.0))
                assert kind is wire.FrameKind.CHALLENGE
                transport.send_bytes(wire.encode_frame(wire.FrameKind.AUTH, {"digest": digest}))
                with pytest.raises(EOFError):  # dropped, nothing streamed
                    transport.recv_bytes(timeout=5.0)
            finally:
                transport.close()
            stats = server.statistics()
            assert stats["rejected_subscriptions"] == 1
            assert stats["subscriptions"] == 0


class TestDuplicateClientIds:
    def test_second_subscriber_with_same_id_is_rejected(self, testbed_core):
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="twin") as first:
                first.sync_to_epoch(1)
                with pytest.raises(SubscriptionError, match="already subscribed"):
                    SubscriptionClient(host, port, client_id="twin", timeout_s=5.0)
                stats = server.statistics()
                assert stats["rejected_subscriptions"] == 1
                assert stats["subscriptions"] == 1
                # The rejected twin must not have torn down the original
                # stream: the first client keeps receiving epochs.
                state = advance(calculation, database, state, 30.0)
                first.sync_to_epoch(database.epoch)
                assert first.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )

    def test_id_is_reusable_after_the_first_client_disconnects(self, testbed_core):
        _, _, database, _ = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="twin") as first:
                first.sync_to_epoch(1)
            deadline = time.monotonic() + 5.0
            while (
                server.statistics()["subscriptions"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            with SubscriptionClient(host, port, client_id="twin") as second:
                second.sync_to_epoch(1)
                assert second.client_id == "twin"


_CANARY_CALLS: list[str] = []


def _trip_canary(tag: str) -> None:
    _CANARY_CALLS.append(tag)


class _Canary:
    def __reduce__(self):
        return (_trip_canary, ("pwned",))


class TestPreAuthSafety:
    def test_pickled_subscribe_frame_is_refused_without_deserialising(
        self, testbed_core
    ):
        """The first frame of an unauthenticated dialer must never reach
        ``pickle.loads`` — a crafted SUBSCRIBE, with or without a lying
        flags byte, gets the connection dropped, not code execution (the
        gateway runs in this process, so a pickle canary firing would be
        observable here)."""
        _, _, database, _ = testbed_core
        del _CANARY_CALLS[:]
        blob = pickle.dumps(
            {"meta": {"client": _Canary()}, "arrays": []}, protocol=5
        )
        frame = (
            struct.pack(
                "<4sHBBII",
                wire.WIRE_MAGIC,
                wire.WIRE_VERSION,
                int(wire.FrameKind.SUBSCRIBE),
                0x01,
                len(blob),
                0,
            )
            + blob
        )
        with GatewayServer(database) as server:
            host, port = server.address
            for data in (frame, frame[:7] + b"\x00" + frame[8:]):  # flags byte zeroed
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(stream_frame(data))
                    sock.settimeout(5.0)
                    assert sock.recv(4096) == b""  # dropped, no handshake reply
            assert server.statistics()["subscriptions"] == 0
        assert _CANARY_CALLS == []


class TestStalledClients:
    @pytest.mark.parametrize(
        "stall",
        [LENGTH_PREFIX.pack(100) + b"\x00" * 10, LENGTH_PREFIX.pack(100)[:2]],
        ids=["mid-body", "mid-prefix"],
    )
    def test_a_subscriber_stalled_mid_frame_is_dropped(self, testbed_core, stall):
        # An idle subscriber stays; one that begins a frame and stalls is
        # dropped within the deadline, as a failed SUBSCRIBE is.
        _, _, database, _ = testbed_core
        with GatewayServer(database, ack_timeout_s=0.5) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as stalled, \
                    socket.create_connection((host, port), timeout=5.0) as idle:
                for sock, client in ((stalled, "stalled"), (idle, "idle")):
                    sock.sendall(stream_frame(
                        wire.encode_frame(wire.FrameKind.SUBSCRIBE, {"client": client})
                    ))
                deadline = time.monotonic() + 5.0
                while server.statistics()["subscriptions"] < 2:
                    assert time.monotonic() < deadline, "the subscriptions did not open"
                    time.sleep(0.01)
                stalled.sendall(stall)
                time.sleep(2.0)
                assert sorted(server.statistics()["clients"]) == ["idle"]
                while stalled.recv(65536):  # the ack and the keyframe, then the close
                    pass


class TestEvictionPreservesReplies:
    def test_pending_query_replies_survive_a_flush(self, testbed_core):
        _, _, database, _ = testbed_core
        gateway = StreamGateway(database, queue_limit=8)
        subscription = _Subscription(client_id="unit", queue=asyncio.Queue(8))
        epoch_frame = b"epoch-bytes"
        reply_a, reply_b = b"reply-a", b"reply-b"
        for item in (
            (epoch_frame, False),
            (reply_a, True),
            (epoch_frame, False),
            (reply_b, True),
        ):
            subscription.queue.put_nowait(item)
        assert gateway._evict(subscription) is True
        items = []
        while not subscription.queue.empty():
            items.append(subscription.queue.get_nowait())
        # Keyframe resync first, then the preserved replies in order — the
        # epoch backlog is gone, the blocked queries still get answered.
        resync, *rest = items
        assert resync[1] is False
        kind, _meta, _arrays = wire.decode_frame(resync[0][LENGTH_PREFIX.size :])
        assert kind is wire.FrameKind.KEYFRAME
        assert rest == [(reply_a, True), (reply_b, True)]
        assert subscription.evictions == 1
        assert subscription.last_epoch == database.epoch

    def test_evict_requeues_the_shutdown_sentinel_last(self, testbed_core):
        _, _, database, _ = testbed_core
        gateway = StreamGateway(database, queue_limit=8)
        subscription = _Subscription(client_id="unit", queue=asyncio.Queue(8))
        subscription.queue.put_nowait((b"epoch-bytes", False))
        subscription.queue.put_nowait(None)
        # A drained sentinel reports "closing" so the caller's loop exits,
        # and is re-queued behind the resync so the writer still sees it.
        assert gateway._evict(subscription) is False
        items = []
        while not subscription.queue.empty():
            items.append(subscription.queue.get_nowait())
        assert items[-1] is None


class _ErrorResult(Exception):
    """The gateway's answer to a query naming no machine."""


def _name_surfaces(testbed, config, client) -> dict:
    """Every surface that reads a machine name: surface → (the name of the
    machine its answer is for, its own error, which spellings it refuses)."""
    api = testbed.info_api
    by_address = {
        machine_ip(testbed.state.node_for(machine)): machine.name
        for machine in testbed.calculation.machines()
    }

    def query(source, destination, end):
        answer = client.query(source, destination)
        if "error" in answer:
            raise _ErrorResult(answer["error"])
        # The gateway's delay is the info API's for the same spellings.
        expected = api.get(f"/path/{source}/{destination}")
        assert [answer[key] for key in ("reachable", "delay_ms")] == [
            expected[key] for key in ("reachable", "delay_ms")
        ]
        return answer[end]

    def fault(name):
        schedule_fault_program(testbed, config, (FaultOp(kind="restore-cpu", target=name),))
        return testbed.fault_injector.events[-1].machine

    def outside_the_zone(spelling, machine):
        return not spelling.lower().removesuffix(".").endswith(".celestial")

    def a_satellite(spelling, machine):
        return machine.endswith(".celestial")

    def nothing(spelling, machine):
        return False

    return {
        "DNS A record": (
            lambda name: by_address[testbed.dns.resolve(name)], DNSError, outside_the_zone
        ),
        "/self": (lambda name: api.get(f"/self/{name}")["name"], InfoAPIError, nothing),
        "/gst": (lambda name: api.get(f"/gst/{name}")["name"], InfoAPIError, a_satellite),
        "/path source": (
            lambda name: api.get(f"/path/{name}/hawaii")["source"], InfoAPIError, nothing
        ),
        "/path destination": (
            lambda name: api.get(f"/path/hawaii/{name}")["destination"], InfoAPIError, nothing
        ),
        "QUERY source": (lambda name: query(name, "hawaii", "source"), _ErrorResult, nothing),
        "QUERY destination": (
            lambda name: query("hawaii", name, "destination"), _ErrorResult, nothing
        ),
        "fault target": (fault, ExperimentSpecError, nothing),
    }


class TestQueries:
    def test_path_queries_answered_from_warm_tables(self, testbed_core):
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="asker") as client:
                result = client.query("hawaii", "buoy-0")
                assert result["client"] == "asker"
                assert result["reachable"] is True
                assert result["delay_ms"] > 0
                assert result["rtt_ms"] == pytest.approx(2 * result["delay_ms"])
                # Satellite addressing, DNS form included.
                by_sat = client.query("hawaii", "0.0.celestial")
                assert by_sat["destination"] == "0.0.celestial"
                bogus = client.query("hawaii", "atlantis")
                assert "error" in bogus
                stats = server.statistics()["clients"]["asker"]
                assert stats["queries"] == 3

    def test_every_surface_reads_every_spelling_as_one_machine(self):
        # One resolver behind every surface.  Each used to have its own
        # grammar: "/self/ACCRA.gst.celestial." was a 404 while the DNS
        # answered it, "accra.celestial" resolved on /self but not in the
        # DNS, and /path, /gst and a fault target took no ".gst" form.
        config = iridium_configuration()
        cape_verde = GroundStationConfig(station=GroundStation("Cape Verde", 16.0, -24.0))
        config = dataclasses.replace(
            config, ground_stations=(*config.ground_stations, cape_verde)
        )
        bases = {
            "Cape Verde": "Cape Verde",  # the configured name
            "cape-verde": "Cape Verde",  # its DNS slug
            "cape-verde.gst": "Cape Verde",
            "gst.cape-verde": "Cape Verde",
            "buoy-0": "buoy-0",
            "3.0": "3.0.celestial",
        }
        spellings = {
            case(form.format(base)): machine
            for base, machine in bases.items()
            for form in ("{}", "{}.", "{}.celestial", "{}.celestial.")
            for case in (str, str.upper)
        }
        unknown = ["atlantis", "atlantis.gst.celestial", "gst.atlantis", "99999.0", "1.9.celestial"]
        with Celestial(config) as testbed, GatewayServer(testbed.database) as server:
            testbed.run(0.0)  # the first epoch: stations up, the state published
            with SubscriptionClient(*server.address, client_id="asker") as client:
                surfaces = _name_surfaces(testbed, config, client)
                for surface, (resolve, error, refuses) in surfaces.items():
                    for spelling, machine in spellings.items():
                        if refuses(spelling, machine):
                            with pytest.raises(error):
                                resolve(spelling)
                        else:
                            assert resolve(spelling) == machine, (surface, spelling)
                    for spelling in unknown:
                        with pytest.raises(error):
                            resolve(spelling)
                queries = server.statistics()["clients"]["asker"]["queries"]
                assert queries == 2 * (len(spellings) + len(unknown))

    def test_out_of_range_satellite_query_keeps_the_subscription(self, testbed_core):
        # "99999.0" parses as a satellite of shell 0 but no such node exists:
        # NodeIndex raises IndexError, which must come back as an error
        # RESULT like an unknown ground station does — not close the stream.
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="asker") as client:
                client.sync_to_epoch(1)
                bogus = client.query("hawaii", "99999.0")
                assert bogus["client"] == "asker"
                assert "error" in bogus
                answered = client.query("hawaii", "buoy-0")
                assert answered["reachable"] is True
                state = advance(calculation, database, state, 30.0)
                client.sync_to_epoch(database.epoch)
                assert client.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )
                assert server.statistics()["clients"]["asker"]["queries"] == 2

    def test_queries_interleave_with_stream_updates(self, testbed_core):
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="mixed") as client:
                for step in range(1, 4):
                    state = advance(calculation, database, state, step * 30.0)
                result = client.query("hawaii", "buoy-0")
                assert result["reachable"] is True
                client.sync_to_epoch(database.epoch)
                assert client.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )


class _PublishesOnRelease(ConstellationDatabase):
    """A database whose lock, once released by a reader, is immediately
    followed by the next publication — the interleaving a torn read needs."""

    next_publication = None

    @property
    @contextlib.contextmanager
    def lock(self):
        with self._lock:
            yield
        publication, self.next_publication = self.next_publication, None
        if publication is not None:
            self.set_state(*publication)


class TestQueryReadsOnePublication:
    def test_reply_names_the_epoch_its_delay_was_computed_from(self):
        calculation = ConstellationCalculation(iridium_configuration())
        database = _PublishesOnRelease()
        state = calculation.state_at(0.0)
        database.set_state(state)
        database.next_publication = calculation.diff_since(state, 30.0)
        next_state = database.next_publication[0]
        gateway = StreamGateway(database)
        subscription = _Subscription(client_id="asker", queue=asyncio.Queue(4))
        hawaii, buoy = calculation.ground_station("hawaii"), calculation.ground_station("buoy-0")
        reply = gateway._answer_query(subscription, {"source": "hawaii", "destination": "buoy-0"})
        assert database.epoch == 2  # the publication slipped in behind the read
        assert next_state.path(hawaii, buoy).delay_ms != state.path(hawaii, buoy).delay_ms
        assert (reply["epoch"], reply["delay_ms"]) == (1, state.path(hawaii, buoy).delay_ms)
        reply = gateway._answer_query(subscription, {"source": "hawaii", "destination": "buoy-0"})
        assert (reply["epoch"], reply["delay_ms"]) == (2, next_state.path(hawaii, buoy).delay_ms)


class TestStartFailure:
    def test_taken_port_fails_fast_with_the_cause_and_no_thread_left(self, testbed_core):
        _, _, database, _ = testbed_core
        threads_before = threading.active_count()
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            server = GatewayServer(database, port=port)
            started_at = time.monotonic()
            with pytest.raises(GatewayError, match=f"127.0.0.1:{port}") as excinfo:
                server.start()
            assert time.monotonic() - started_at < 2.0
            assert isinstance(excinfo.value.__cause__, OSError)
            assert threading.active_count() == threads_before
            server.stop()  # nothing to stop, nothing to raise
        # Nothing is hooked to the database either.
        database.set_state(database.state)
        assert server.gateway.published_epochs == 0


class TestConcurrentInfoReaders:
    def test_no_torn_diff_reads_while_epochs_advance(self, testbed_core):
        """``/info`` names the epoch, clock and diff summary of ONE
        publication, however the readers interleave with ``set_state``."""
        config, calculation, database, state = testbed_core
        api = InfoAPI(database, calculation)
        stop = threading.Event()
        failures: list[str] = []
        #: epoch -> (time_s, diff summary), written before the epoch is published.
        published = {1: (state.time_s, None)}
        seen: set[int] = set()

        def reader():
            while not stop.is_set():
                info = api.get("/info")
                got = (info["time_s"], info["last_diff"])
                if got != published[info["epoch"]]:
                    failures.append(f"torn /info at epoch {info['epoch']}: {got}")
                    return
                seen.add(info["epoch"])

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for step in range(1, 40):
                next_state, diff = calculation.diff_since(state, step * 15.0)
                summary = diff.summary(next_state.active_satellites)
                published[database.epoch + 1] = (next_state.time_s, summary)
                database.set_state(next_state, diff=diff)
                state = next_state
                time.sleep(0.001)  # let the readers at it
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not failures, failures[0]
        assert len(seen) > 1, "the readers never saw the epochs advance"


@contextlib.contextmanager
def _forging_gateway(*frames: bytes):
    """A listener that answers one SUBSCRIBE with ``frames`` and then waits
    for the client to hang up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        connection, _ = listener.accept()
        transport = SocketTransport(connection)
        try:
            transport.recv_bytes(timeout=10.0)
            for data in frames:
                transport.send_bytes(data)
            transport.recv_bytes(timeout=10.0)
        except (EOFError, OSError):
            pass
        finally:
            transport.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10.0)
        listener.close()


class TestClientForgedFrames:
    """A frame without the meta key the client reads is a SubscriptionError
    naming the key, never a KeyError."""

    ACK = wire.encode_frame(wire.FrameKind.SUBSCRIBE_ACK, {"client": "c", "epoch": 1})

    def test_an_ack_without_client(self):
        ack = wire.encode_frame(wire.FrameKind.SUBSCRIBE_ACK, {"epoch": 1})
        with _forging_gateway(ack) as address:
            with pytest.raises(SubscriptionError, match="SUBSCRIBE_ACK frame without 'client'"):
                SubscriptionClient(*address, client_id="c", timeout_s=10.0)

    @pytest.mark.parametrize(
        "kind", [wire.FrameKind.DIFF, wire.FrameKind.KEYFRAME], ids=lambda kind: kind.name
    )
    def test_an_update_without_epoch(self, kind):
        forged = wire.encode_frame(kind, {"time_s": 1.0})
        with _forging_gateway(self.ACK, forged) as address:
            with SubscriptionClient(*address, client_id="c", timeout_s=10.0) as client:
                with pytest.raises(SubscriptionError, match=f"{kind.name} frame without 'epoch'"):
                    client.recv_update()
