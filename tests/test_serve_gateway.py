"""End-to-end tests of the streaming gateway over real sockets.

Covers the serving-tier contract: shared-bytes fan-out with bit-exact
client reconstruction, slow-client eviction with keyframe resync, scoped
subscriptions (bounding box and ground-station view) that keep the epoch
chain unbroken via skip markers, the shared-secret subscription handshake
and warm-table path queries with per-client cache attribution — plus the
database staying torn-read-free under concurrent info-API readers.
"""

import asyncio
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.core import (
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
    InfoAPI,
    InfoAPIError,
    NetworkParams,
    ShellConfig,
)
from repro.core.bounding_box import BoundingBox
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import west_africa_configuration
from repro.dist import wire
from repro.dist.transport import LENGTH_PREFIX, frame as stream_frame
from repro.serve import EpochSnapshot, gateway as gateway_module
from repro.serve.client import SubscriptionClient, SubscriptionError
from repro.serve.codec import EpochUpdate, changed_nodes
from repro.serve.gateway import GatewayServer, StreamGateway, _Subscription


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
    database = ConstellationDatabase(keyframe_interval=5)
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
                    assert client.server_epoch == 1
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
        _, calculation, database, state_a = testbed_core
        # Two alternating precomputed states let the publisher flood
        # thousands of cheap epochs until the subscriber's bounded queue
        # provably overflowed.
        state_b, diff_ab = calculation.diff_since(state_a, 30.0)
        state_a2, diff_ba = calculation.diff_since(state_b, 0.0)
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
                        if database.epoch % 2 == 1:
                            database.set_state(state_b, diff=diff_ab)
                        else:
                            database.set_state(state_a2, diff=diff_ba)
                    evictions = server.statistics()["evictions"]
                    if evictions:
                        break
                assert evictions >= 1, "queue never overflowed; grow the flood"
                final_epoch = database.epoch
                final_state = state_a2 if final_epoch % 2 == 1 else state_b
                client.sync_to_epoch(final_epoch)
                assert client.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(final_state, final_epoch)
                )
                # The resync keyframe(s) actually reached the replica.
                assert client.replica.applied_keyframes >= 2
            finally:
                client.close()


class TestScopedSubscriptions:
    def test_bbox_scope_receives_skip_markers_and_stays_chained(self, testbed_core):
        _, calculation, database, state = testbed_core
        scope = {
            "kind": "bbox",
            "lat_min": -2.0,
            "lat_max": 2.0,
            "lon_min": 0.0,
            "lon_max": 4.0,
        }
        with GatewayServer(database) as server:
            host, port = server.address
            with SubscriptionClient(host, port, client_id="boxed", scope=scope) as client:
                client.sync_to_epoch(1)
                for step in range(1, 7):
                    state = advance(calculation, database, state, step * 30.0)
                updates = client.sync_to_epoch(database.epoch)
                skip_count = sum(
                    1 for u in updates if u.decoded()[0].get("skip")
                )
                stats = server.statistics()["clients"]["boxed"]
                assert stats["skipped"] == skip_count
                # Every epoch reached the client, in-scope or not.
                assert client.replica.epoch == database.epoch
                assert client.replica.time_s == state.time_s

    def test_gst_scope_delivers_epochs_touching_the_station(self, testbed_core):
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            scope = {"kind": "gst", "name": "hawaii"}
            with SubscriptionClient(host, port, client_id="gst", scope=scope) as client:
                client.sync_to_epoch(1)
                for step in range(1, 7):
                    state = advance(calculation, database, state, step * 30.0)
                updates = client.sync_to_epoch(database.epoch)
                assert client.replica.epoch == database.epoch
                # Full diffs and skip markers partition the epoch stream.
                full = [u for u in updates if not u.decoded()[0].get("skip")]
                stats = server.statistics()["clients"]["gst"]
                assert stats["skipped"] == len(updates) - len(full)


    def test_skipped_epoch_that_added_a_link_resyncs_from_a_keyframe(self, testbed_core):
        """A skip marker leaves the scoped client's link table stale; its
        next in-scope epoch must arrive as a keyframe (a diff moving the
        delay of the link added meanwhile could not be applied), after
        which the diff stream resumes and the replica is bit-exact."""
        _, calculation, database, state = testbed_core
        with GatewayServer(database) as server:
            host, port = server.address
            skipped_times = set()
            # No Iridium geometry puts a link addition out of scope on a
            # fixed epoch, so the scope verdict is stubbed for that epoch.
            server.gateway._in_scope = (
                lambda subscription, state, diff, touched: subscription.scope is None
                or diff.time_s not in skipped_times
            )
            scope = {"kind": "gst", "name": "hawaii"}
            with SubscriptionClient(host, port, client_id="scoped", scope=scope) as scoped, \
                    SubscriptionClient(host, port, client_id="full") as full:
                scoped.sync_to_epoch(1)
                full.sync_to_epoch(1)
                skipped_epoch = None
                for step in range(1, 40):
                    next_state, diff = calculation.diff_since(state, step * 30.0)
                    if skipped_epoch is None and diff.topology.links_added.size:
                        skipped_times.add(diff.time_s)
                        skipped_epoch = database.epoch + 1
                    database.set_state(next_state, diff=diff)
                    state = next_state
                    if skipped_epoch is not None and database.epoch == skipped_epoch + 2:
                        break
                assert skipped_epoch is not None
                updates = {u.epoch: u for u in scoped.sync_to_epoch(database.epoch)}
                assert updates[skipped_epoch].decoded()[0].get("skip") is True
                assert updates[skipped_epoch + 1].kind is wire.FrameKind.KEYFRAME
                assert updates[skipped_epoch + 2].kind is wire.FrameKind.DIFF
                assert not updates[skipped_epoch + 2].decoded()[0].get("skip")
                assert scoped.replica.snapshot().same_bits(
                    EpochSnapshot.from_state(state, database.epoch)
                )
                # Unscoped subscribers still get exactly one DIFF per epoch.
                plain = full.sync_to_epoch(database.epoch)
                assert [u.epoch for u in plain] == list(range(2, database.epoch + 1))
                assert all(u.kind is wire.FrameKind.DIFF for u in plain)
                stats = server.statistics()["clients"]["scoped"]
                assert stats["skipped"] == 1 and stats["evictions"] == 0


def _subscribe_locally(gateway, client_id, scope=None, ground_station=None):
    """Register a subscription on a gateway that is not listening."""
    subscription = _Subscription(
        client_id=client_id,
        queue=asyncio.Queue(64),
        scope=scope,
        ground_station=ground_station,
        last_epoch=gateway.database.epoch,
    )
    gateway._subscriptions[client_id] = subscription
    return subscription


class TestTouchedNodesOnDemand:
    def test_unscoped_fanout_never_decodes_or_collects_touched_nodes(
        self, testbed_core, monkeypatch
    ):
        _, calculation, database, state = testbed_core
        gateway = StreamGateway(database)
        plain = [_subscribe_locally(gateway, f"plain-{i}") for i in range(2)]
        calls = []
        monkeypatch.setattr(
            EpochUpdate, "decoded", lambda self: pytest.fail("publish decoded its own frame")
        )
        monkeypatch.setattr(
            gateway_module,
            "changed_nodes",
            lambda topology: calls.append(topology) or changed_nodes(topology),
        )
        for step in range(1, 4):
            state, diff = calculation.diff_since(state, step * 30.0)
            database.set_state(state, diff=diff)
            gateway.publish(database.epoch, state, diff)
        assert calls == []
        assert [subscription.queue.qsize() for subscription in plain] == [3, 3]
        # Scoped subscriptions share one pass per epoch; a closed one is
        # not a reason to make it.
        scope = {"kind": "gst", "name": "hawaii"}
        for name in ("scoped-a", "scoped-b"):
            _subscribe_locally(gateway, name, scope=scope, ground_station="hawaii")
        state, diff = calculation.diff_since(state, 120.0)
        database.set_state(state, diff=diff)
        gateway.publish(database.epoch, state, diff)
        assert calls == [diff.topology]
        for name in ("scoped-a", "scoped-b"):
            gateway._subscriptions[name].closed = True
        state, diff = calculation.diff_since(state, 150.0)
        database.set_state(state, diff=diff)
        gateway.publish(database.epoch, state, diff)
        assert len(calls) == 1


def _per_node_bbox_verdict(bbox, state, diff, touched):
    """The box verdict worked out one ``describe()`` per satellite."""
    index = state.node_index
    nodes = {int(node) for node in touched if node < index.satellite_count}
    for shell, ids in (*diff.activated.items(), *diff.deactivated.items()):
        nodes.update(index.shell_offset(shell) + int(identifier) for identifier in ids)
    if not nodes:
        return True
    return any(
        bool(bbox.contains_ecef(state.satellite_positions_ecef[shell][[identifier]])[0])
        for _, shell, identifier in map(index.describe, sorted(nodes))
    )


class TestBoundingBoxScopeVerdict:
    @pytest.mark.parametrize(
        "config_factory,step_s,empty_box",
        [
            pytest.param(
                lambda: west_africa_configuration(duration_s=60.0, shells="lowest"),
                2.0,
                # Poleward of a 53° shell.
                BoundingBox(lat_min=70.0, lat_max=80.0, lon_min=-20.0, lon_max=20.0),
                id="west-africa-lowest",
            ),
            pytest.param(
                iridium_configuration,
                30.0,
                BoundingBox(lat_min=-1.0, lat_max=1.0, lon_min=100.0, lon_max=102.0),
                id="iridium",
            ),
        ],
    )
    def test_stacked_positions_give_the_per_node_verdict(
        self, config_factory, step_s, empty_box
    ):
        calculation = ConstellationCalculation(config_factory())
        database = ConstellationDatabase()
        gateway = StreamGateway(database)
        occupied_box = BoundingBox(lat_min=-60.0, lat_max=60.0, lon_min=-179.0, lon_max=179.0)
        state = calculation.state_at(0.0)
        for step in range(1, 4):
            state, diff = calculation.diff_since(state, step * step_s)
            touched = changed_nodes(diff.topology)
            for bbox, expected in ((occupied_box, True), (empty_box, False)):
                subscription = _Subscription(
                    client_id="boxed", queue=asyncio.Queue(1), scope={}, bbox=bbox
                )
                verdict = gateway._in_scope(subscription, state, diff, touched)
                assert verdict is _per_node_bbox_verdict(bbox, state, diff, touched)
                assert verdict is expected


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


class TestConcurrentInfoReaders:
    def test_no_torn_diff_reads_while_epochs_advance(self, testbed_core):
        config, calculation, database, state = testbed_core
        api = InfoAPI(database, calculation)
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                epochs = database.keyframe_epochs()
                if epochs != sorted(epochs):
                    failures.append(f"unsorted keyframes {epochs}")
                    return
                try:
                    history = api.get(f"/diffs/{min(epochs)}")
                except InfoAPIError as error:
                    # The keyframe we picked can be pruned between the two
                    # calls; the API answers with the resync protocol, not
                    # a torn read.  Retry from a fresh keyframe.
                    if "resynchronise" in str(error):
                        continue
                    failures.append(str(error))
                    return
                records = history["diffs"]
                got = [r["epoch"] for r in records]
                want = list(
                    range(history["since_epoch"] + 1, history["epoch"] + 1)
                )
                if got != want:
                    failures.append(f"torn history: {got} != {want}")
                    return
                for record in records:
                    if record["summary"]["links_added"] != len(record["links_added"]):
                        failures.append("record inconsistent with its summary")
                        return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for step in range(1, 40):
                state = advance(calculation, database, state, step * 15.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not failures, failures[0]
