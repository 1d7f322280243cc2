"""Wire-protocol round-trip tests for the distribution runtime.

The contract under test: an :class:`EpochRecord` (and every other frame
payload) crosses the coordinator ↔ worker seam **byte-identically** — same
dtypes, same shapes, same payload bits — including quiet epochs, frames
from a different protocol generation are rejected before any payload is
deserialised, and a malformed record is refused before any manager sees it.
"""

import copy
import dataclasses
import importlib
import json
import math
import pickle
import struct
import types
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundingBox,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    GroundStationConfig,
    ShellConfig,
)
from repro.core.config import ComputeParams
from repro.core.machine_manager import EpochRecord, MachineManager
from repro.core.constellation import MachineId
from repro.dist import wire
from repro.dist.backend import ProcessFanoutBackend, WorkerRemoteError
from repro.dist.transport import TcpTransportFactory
from repro.dist.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameKind,
    WireError,
    WireVersionError,
    decode_frame,
    encode_frame,
)
from repro.dist.worker import _Worker
from repro.hosts import Host
from repro.microvm import CPUQuota, MachineBatch, MachineState, MachineTable
from repro.orbits import GroundStation, ShellGeometry
from repro.serve.codec import encode_diff_update
from repro.serve.client import SubscriptionClient
from repro.serve.gateway import GatewayServer
from repro.sim.rng import key_root

# NumPy warns while parsing its deprecated "a" alias of "S", before the kind is refused.
pytestmark = pytest.mark.filterwarnings("ignore:Data type alias 'a':DeprecationWarning")


def _assert_bytes_identical(sent: np.ndarray, received: np.ndarray):
    assert sent.dtype == received.dtype
    assert sent.shape == received.shape
    assert sent.tobytes() == received.tobytes()


def _record(active, flipped=None, epoch=9, first=False):
    """A record of ``active`` masks whose flips are the set places of the
    ``flipped`` masks (none by default)."""
    masks = {shell: np.array(mask, dtype=bool) for shell, mask in active.items()}
    if flipped is None:
        flipped = {shell: np.zeros_like(mask) for shell, mask in masks.items()}
    flips = {shell: np.flatnonzero(np.array(mask, dtype=bool)) for shell, mask in flipped.items()}
    return EpochRecord(epoch=epoch, active=masks, flips=flips, first=first)


def _record_frame(record: EpochRecord) -> bytes:
    # The path ProcessFanoutBackend.apply_slices takes: payload, then frame.
    return encode_frame(FrameKind.APPLY_EPOCH, *wire.slice_payload(record))


def _roundtrip(record: EpochRecord) -> EpochRecord:
    kind, meta, arrays = decode_frame(_record_frame(record))
    assert kind is FrameKind.APPLY_EPOCH
    return wire.decode_record(meta, arrays)


def _assert_records_identical(sent: EpochRecord, received: EpochRecord):
    assert (received.epoch, received.first) == (sent.epoch, sent.first)
    for masks, received_masks in ((sent.active, received.active), (sent.flips, received.flips)):
        assert sorted(received_masks) == sorted(masks)
        for shell, mask in masks.items():
            _assert_bytes_identical(mask, received_masks[shell])


class TestFrameCodec:
    def test_roundtrip_preserves_dtypes_shapes_and_bytes(self):
        arrays = (
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.linspace(0.0, 1.0, 7),
            np.array([], dtype=np.float32),
            np.zeros((0, 2), dtype=np.int64),
            np.array([True, False, True]),
        )
        meta = {"epoch": 3, "names": ["a", "b"], "nested": {"x": 1}}
        kind, out_meta, out_arrays = decode_frame(
            encode_frame(FrameKind.PING, meta, arrays)
        )
        assert kind is FrameKind.PING
        assert out_meta == meta
        assert len(out_arrays) == len(arrays)
        for sent, received in zip(arrays, out_arrays):
            _assert_bytes_identical(sent, received)

    def test_non_contiguous_arrays_are_normalised(self):
        matrix = np.arange(20, dtype=np.float64).reshape(4, 5)
        transposed = matrix.T  # not C-contiguous
        _, _, (received,) = decode_frame(encode_frame(FrameKind.PING, {}, (transposed,)))
        assert np.array_equal(received, transposed)

    def test_version_rejection_before_payload_decode(self):
        frame = bytearray(encode_frame(FrameKind.PING, {"x": 1}))
        # The version is the u16 right after the 4-byte magic.
        frame[4:6] = (WIRE_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(WireVersionError, match="version"):
            decode_frame(bytes(frame))

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameKind.PING, {}))
        frame[:4] = b"NOPE"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))
        assert WIRE_MAGIC != b"NOPE"

    def test_truncated_frames_rejected(self):
        frame = encode_frame(FrameKind.PING, {"k": "v"}, (np.arange(8),))
        with pytest.raises(WireError):
            decode_frame(frame[:6])
        with pytest.raises(WireError):
            decode_frame(frame[:-3])

    def test_trailing_garbage_rejected(self):
        frame = encode_frame(FrameKind.PING, {}, (np.arange(4),))
        with pytest.raises(WireError, match="trailing"):
            decode_frame(frame + b"\x00")


def _forge_frame(
    meta=None,
    descriptors=(),
    payload=b"",
    kind=int(FrameKind.PING),
    magic=WIRE_MAGIC,
    version=WIRE_VERSION,
    array_count=None,
    blob=None,
    flags=0,
):
    """Build a frame by hand so descriptors/counters can lie."""
    if blob is None:
        blob = json.dumps(
            {"meta": meta if meta is not None else {}, "arrays": list(descriptors)}
        ).encode()
    count = len(descriptors) if array_count is None else array_count
    header = struct.pack("<4sHBBII", magic, version, kind, flags, len(blob), count)
    return header + blob + payload


class TestForgedDescriptors:
    """A corrupt or forged frame must raise WireError — never build a
    nonsense array view, never leak an uncaught numpy/pickle exception."""

    def test_negative_shape_dim_rejected(self):
        # The original bug: (-1, n) makes nbytes negative, the bounds check
        # `len(data) < offset + nbytes` passes vacuously, and np.frombuffer
        # gets a nonsense slice.
        frame = _forge_frame(
            descriptors=[("<f8", (-1, 100))], payload=b"\x00" * 64
        )
        with pytest.raises(WireError, match="shape dimension"):
            decode_frame(frame)

    def test_negative_total_but_positive_product_rejected(self):
        # Two negative dims multiply back to a positive product: the byte
        # count looks sane, the view would still be garbage.
        frame = _forge_frame(descriptors=[("<f8", (-2, -4))], payload=b"\x00" * 64)
        with pytest.raises(WireError, match="shape dimension"):
            decode_frame(frame)

    def test_object_dtype_rejected(self):
        frame = _forge_frame(descriptors=[("|O", (2,))], payload=b"\x00" * 16)
        with pytest.raises(WireError, match="object dtype"):
            decode_frame(frame)

    def test_invalid_dtype_string_rejected(self):
        frame = _forge_frame(descriptors=[("not-a-dtype", (2,))], payload=b"")
        with pytest.raises(WireError, match="invalid array dtype"):
            decode_frame(frame)
        # Fixed-size and object-free, but nothing an encoder ships: strings,
        # void records, datetimes and complex numbers are refused both ways.
        for dtype in ("a4", "S8", "U3", "V16", "M8[s]", "c16"):
            frame = _forge_frame(descriptors=[(dtype, (1,))], payload=b"\x00" * 16)
            with pytest.raises(WireError, match="dtype"):
                decode_frame(frame)
            with pytest.raises(TypeError, match="raw frame buffers"):
                encode_frame(FrameKind.PING, {}, (np.zeros(1, dtype=dtype),))

    def test_non_string_dtype_rejected(self):
        # np.dtype(8) would happily build int64 — the descriptor contract
        # is a dtype *string*, anything else is corruption.
        frame = _forge_frame(descriptors=[(8, (2,))], payload=b"\x00" * 16)
        with pytest.raises(WireError, match="not a string"):
            decode_frame(frame)

    def test_zero_itemsize_dtype_rejected(self):
        frame = _forge_frame(descriptors=[("V0", (4,))], payload=b"")
        with pytest.raises(WireError, match="zero-itemsize"):
            decode_frame(frame)

    def test_huge_dimension_count_rejected(self):
        frame = _forge_frame(descriptors=[("<f8", (1,) * 200)], payload=b"\x00" * 8)
        with pytest.raises(WireError, match="shape"):
            decode_frame(frame)

    def test_non_integer_dimension_rejected(self):
        for dim in (2.0, "4", None, True):
            frame = _forge_frame(descriptors=[("<f8", (dim,))], payload=b"\x00" * 32)
            with pytest.raises(WireError, match="shape"):
                decode_frame(frame)

    def test_overflowing_dimensions_cannot_wrap_the_bounds_check(self):
        # In the pre-fix int64 arithmetic 2**62 * 4 wrapped negative; with
        # Python ints the product stays exact and simply fails the bounds
        # check as a truncation.
        frame = _forge_frame(descriptors=[("<f8", (2**62, 4))], payload=b"\x00" * 8)
        with pytest.raises(WireError, match="truncated"):
            decode_frame(frame)

    def test_malformed_descriptor_shapes_rejected(self):
        for descriptor in (("<f8",), ("<f8", (2,), "extra"), "nonsense", 7, None):
            frame = _forge_frame(descriptors=[descriptor], payload=b"")
            with pytest.raises(WireError):
                decode_frame(frame)

    def test_descriptor_table_and_meta_type_validated(self):
        blob = b'{"meta":{},"arrays":3}'
        with pytest.raises(WireError, match="descriptor"):
            decode_frame(_forge_frame(blob=blob, array_count=3))
        blob = b'{"meta":["not","a","dict"],"arrays":[]}'
        with pytest.raises(WireError, match="not a dict"):
            decode_frame(_forge_frame(blob=blob, array_count=0))

    def test_unknown_frame_kind_rejected(self):
        frame = _forge_frame(kind=250)
        with pytest.raises(WireError, match="unknown frame kind"):
            decode_frame(frame)

    def test_array_count_mismatch_rejected(self):
        frame = _forge_frame(descriptors=[("<f8", (2,))], payload=b"\x00" * 16,
                             array_count=5)
        with pytest.raises(WireError, match="count"):
            decode_frame(frame)


def _meta_frame(text: bytes) -> bytes:
    """A frame whose metadata region is ``text``, verbatim."""
    return _forge_frame(blob=text, array_count=0)


class _InProcessFactory(TcpTransportFactory):
    """Workers that run in this process: a frame is served as it is sent."""

    def spawn(self, worker_index, spec):
        return None, _Loopback(worker_index, spec)


class _Loopback:
    """The driver's end of an in-process worker's connection."""

    class _WorkerEnd:
        def __init__(self, inbox, outbox):
            self.inbox, self.outbox = inbox, outbox

        def recv_bytes(self):
            if not self.inbox:
                raise EOFError  # run() returns; the next frame runs it again
            return self.inbox.popleft()

        def send_bytes(self, data):
            self.outbox.append(data)

    def __init__(self, worker_index, spec):
        self.frames, self.replies = deque(), deque()
        kind, meta, arrays = decode_frame(spec)
        assert kind is FrameKind.SPEC
        end = self._WorkerEnd(self.frames, self.replies)
        self.worker = _Worker(worker_index, wire.decode_spec(meta, arrays), end)

    def send_bytes(self, data):
        self.frames.append(data)
        self.worker.run()

    def poll(self, timeout=0.0):
        return bool(self.replies)

    def recv_bytes(self, timeout=None):
        return self.replies.popleft()

    def close(self):
        pass


def _gateway_config() -> Configuration:
    return Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            GroundStationConfig(station=GroundStation("buoy-0", 10.0, -160.0)),
        ),
        bounding_box=BoundingBox(-35.0, 35.0, -180.0, -100.0),
        update_interval_s=60.0,
    )


class TestSafeBlobCodec:
    """The metadata is one JSON object, the deserialisation boundary an
    unauthenticated peer can reach: it builds plain data only, and a forged
    one is a :class:`WireError` — never another exception."""

    def test_roundtrip_closed_type_set(self):
        meta = {
            "none": None,
            "on": True,
            "off": False,
            "small": -42,
            "big": 2**63 - 1,
            "neg_big": -(2**63),
            "pi": 3.5,
            "tiny": 5e-324,
            "negative_zero": -0.0,
            "name": "gateway ✓",
            "seq": [1, "two", 3.0],
            "nested": {"deep": {"er": [None, "x"]}},
        }
        kind, out, arrays = decode_frame(encode_frame(FrameKind.PING, meta))
        assert kind is FrameKind.PING
        assert out == meta
        assert arrays == []
        assert [type(out[key]) for key in ("small", "pi", "on")] == [int, float, bool]
        assert struct.pack("<d", out["negative_zero"]) == struct.pack("<d", -0.0)
        # JSON has one sequence type: a tuple is sent as a list.
        _, out, _ = decode_frame(encode_frame(FrameKind.PING, {"pair": (4, 5)}))
        assert out == {"pair": [4, 5]}

    def test_blob_truncations_raise_wire_error(self):
        text = json.dumps({"meta": {"k": [1, 2.5, "three"]}, "arrays": []}).encode()
        for cut in range(len(text)):
            with pytest.raises(WireError):
                decode_frame(_meta_frame(text[:cut]))

    @pytest.mark.parametrize(
        "text",
        [
            b'{"meta":{"name":"\xff\xfe"},"arrays":[]}',
            b'{"meta":{"x":NaN},"arrays":[]}',
            b'{"meta":{"x":Infinity},"arrays":[]}',
            b'{"meta":{"x":-Infinity},"arrays":[]}',
            b'{"meta":{"x":1e400},"arrays":[]}',
            b'{"meta":{"x":' + str(2**63).encode() + b'},"arrays":[]}',
            b'{"meta":{"x":' + b"7" * 5000 + b'},"arrays":[]}',
            b'[{"meta":{},"arrays":[]}]',
            b'{"meta":{},"arrays":[]} {}',
            b'{"meta":{},"arrays":[]}\x00',
            b'{"meta":{}}',
            b"\xef\xbb\xbf{}",
        ],
        ids=[
            "invalid-utf8", "nan", "infinity", "minus-infinity", "overflowing-float",
            "int-2**63", "int-5000-digits", "top-level-list", "left-over-object",
            "left-over-byte", "no-arrays", "byte-order-mark",
        ],
    )
    def test_forged_metadata_is_a_wire_error(self, text):
        with pytest.raises(WireError, match="metadata"):
            decode_frame(_meta_frame(text))

    def test_deep_nesting_rejected(self):
        for opener, closer in ((b"[", b"]"), (b'{"a":', b"}")):
            nested = opener * 100_000 + b"0" + closer * 100_000
            with pytest.raises(WireError, match="metadata"):
                decode_frame(_meta_frame(b'{"meta":{"x":' + nested + b'},"arrays":[]}'))

    def test_integers_outside_64_bits_are_refused(self):
        # Refused where they are parsed; the signed 64-bit bounds themselves pass.
        for value in (2**63, -(2**63) - 1, 2**127 - 1):
            with pytest.raises(WireError, match="64 bits"):
                decode_frame(encode_frame(FrameKind.ACK, {"rows": value}))
        for value in (2**63 - 1, -(2**63)):
            assert decode_frame(encode_frame(FrameKind.ACK, {"rows": value}))[1] == {"rows": value}

    def test_non_finite_floats_are_refused_at_the_sender(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="JSON compliant"):
                encode_frame(FrameKind.PING, {"now_s": value})

    def test_every_frame_kinds_real_meta_roundtrips(self, monkeypatch):
        # Every frame a testbed run sends — the driver's, the in-process
        # workers', the gateway's and a subscriber's — decodes to the meta
        # its sender built.
        sent = []
        encode = wire.encode_frame

        def recording(kind, meta=None, arrays=()):
            frame = encode(kind, meta, arrays)
            sent.append((kind, copy.deepcopy(meta), frame))
            return frame

        monkeypatch.setattr(wire, "encode_frame", recording)
        config = _gateway_config()
        managers = [MachineManager(Host(index=i, allow_memory_overcommit=True)) for i in range(3)]
        coordinator = Coordinator(
            config, ConstellationCalculation(config), ConstellationDatabase(), managers,
            parallelism="processes", worker_count=2, transport=_InProcessFactory(),
        )
        published = []
        coordinator.database.add_listener(lambda epoch, _state, diff: published.append((epoch, diff)))
        try:
            coordinator.create_ground_stations(0.0)
            coordinator.update(0.0)
            with GatewayServer(coordinator.database) as server:
                with SubscriptionClient(*server.address, client_id="c") as client:
                    client.sync_to_epoch(coordinator.database.epoch)
                    for now in (60.0, 120.0):
                        coordinator.update(now)
                        coordinator.sample_all_usage(now)
                    client.sync_to_epoch(coordinator.database.epoch)
                    assert "delay_ms" in client.query("hawaii", "buoy-0")
            assert set(coordinator._backend.worker_counters()) == {0, 1, 2}
        finally:
            coordinator.close()
        # The DIFFs were encoded in the calculation child, out of reach of
        # the recorder: encoded again here, they are the child's bytes.
        for epoch, diff in published[1:]:
            assert encode_diff_update(diff, epoch) == diff.frame
        for kind, meta, frame in sent:
            assert decode_frame(frame)[:2] == (kind, meta if meta is not None else {})
        assert {kind for kind, _meta, _frame in sent} >= {
            FrameKind.SPEC, FrameKind.CONTROL, FrameKind.APPLY_EPOCH, FrameKind.SAMPLE_USAGE,
            FrameKind.ACK, FrameKind.KEYFRAME, FrameKind.DIFF, FrameKind.SUBSCRIBE,
            FrameKind.SUBSCRIBE_ACK, FrameKind.QUERY, FrameKind.RESULT, FrameKind.PING,
            FrameKind.EPOCH_AT,
        }


def _ping_backend(forged: tuple[FrameKind, dict]) -> ProcessFanoutBackend:
    """An in-process worker pool whose worker 0 answers the next request with ``forged``."""
    backend = ProcessFanoutBackend(
        [MachineManager(Host(index=i)) for i in range(2)], transport=_InProcessFactory()
    )
    backend._handles[0].conn.replies.append(encode_frame(*forged))
    return backend


class TestAckChecks:
    """A worker may be remote, so its acknowledgement is network input: a
    malformed one is a :class:`WorkerCrashError`, the path a corrupt frame
    takes, and the worker restarts from the replica."""

    @pytest.mark.parametrize(
        "forged",
        [
            (FrameKind.ERROR, {"seq": 1}),
            (FrameKind.ACK, {"seq": 1, "counters": [], "deferred_errors": [5]}),
            (FrameKind.ACK, {"seq": 1, "counters": 7}),
        ],
        ids=["error-without-traceback", "non-string-deferred-errors", "counters-not-pairs"],
    )
    def test_a_malformed_ack_restarts_the_worker(self, forged):
        backend = _ping_backend(forged)
        try:
            counters = backend.worker_counters()
            assert backend.restart_count == 1
            assert counters == {i: backend._managers[i].counters_snapshot() for i in (0, 1)}
        finally:
            backend.close()

    def test_a_well_formed_error_is_still_a_remote_error(self):
        backend = _ping_backend((FrameKind.ERROR, {"seq": 1, "traceback": "Boom"}))
        try:
            with pytest.raises(WorkerRemoteError, match="Boom"):
                backend.worker_counters()
            assert backend.restart_count == 0
        finally:
            backend.close()


_CANARY_CALLS: list[str] = []


def _trip_canary(tag: str) -> None:
    _CANARY_CALLS.append(tag)


class _Canary:
    """Pickles to a call of :func:`_trip_canary` — unpickling it anywhere
    would be the remote code execution the single codec rules out."""

    def __reduce__(self):
        return (_trip_canary, ("boom",))


class TestPickleGating:
    """The metadata blob has one codec, and it is not pickle: a set flags
    byte is refused before the blob is looked at, pickle bytes in an
    unflagged frame are just a malformed blob."""

    def test_pickled_blob_refused_by_default(self, monkeypatch):
        monkeypatch.setattr(
            wire, "_META_DECODER", types.SimpleNamespace(decode=lambda text: pytest.fail("blob decoded"))
        )
        blob = pickle.dumps({"meta": {"x": 1}, "arrays": []}, protocol=5)
        for flags in (0x01, 0x80, 0xFF):
            with pytest.raises(WireError, match="flags"):
                decode_frame(_forge_frame(blob=blob, array_count=0, flags=flags))

    def test_malicious_pickle_never_executes_without_opt_in(self):
        del _CANARY_CALLS[:]
        blob = pickle.dumps({"meta": {"evil": _Canary()}, "arrays": []}, protocol=5)
        frame = _forge_frame(blob=blob, array_count=0, flags=0x01)
        with pytest.raises(WireError):
            decode_frame(frame)
        assert _CANARY_CALLS == []

    def test_unflagged_pickle_bytes_are_not_routed_to_pickle(self):
        # A frame whose flags lie (pickle bytes, flags byte zero) must fail
        # blob decoding: no header bit selects another codec.
        del _CANARY_CALLS[:]
        blob = pickle.dumps({"meta": {"evil": _Canary()}, "arrays": []}, protocol=5)
        frame = _forge_frame(blob=blob, array_count=0, flags=0)
        with pytest.raises(WireError):
            decode_frame(frame)
        assert _CANARY_CALLS == []

    def test_rich_payloads_are_a_type_error(self):
        # Outside the closed type set the sender fails; no byte is produced.
        for value in ({1, 2}, _Canary(), np.arange(3), object()):
            with pytest.raises(TypeError, match="not JSON serializable"):
                encode_frame(FrameKind.SPEC, {"spec": value})

    def test_safe_payloads_are_never_flagged(self):
        for meta in (
            {},
            {"client": "c1", "scope": {"tables": True}},
            {"nonce": "01" * 16, "digest": "02" * 32},
            {"rows": 2**63 - 1, "epoch": -(2**63)},
        ):
            frame = encode_frame(FrameKind.SUBSCRIBE, meta)
            assert frame[7] == 0  # header: magic(4) + version(2) + kind(1) + flags
            _, out, _ = decode_frame(frame)
            assert out == meta

    def test_no_runtime_module_binds_pickle(self):
        for name in ("dist.wire", "dist.transport", "dist.worker", "dist.backend",
                     "serve.gateway", "serve.client"):
            assert "pickle" not in vars(importlib.import_module(f"repro.{name}")), name

    def test_spec_and_create_machine_travel_as_plain_data(self):
        # Built by the real senders, decoded by the one decode_frame, rebuilt
        # by the worker: equal blueprints, every host's key root intact.
        roots = [key_root(np.random.default_rng(5)), 2**63 - 1]
        hosts = {}
        for position, root in enumerate(roots):
            hosts[position] = MachineManager(Host(10 + position, 8, 4096, True))
            hosts[position].key_root = root
        kind, meta, arrays = decode_frame(
            encode_frame(FrameKind.SPEC, *wire.spec_payload(hosts))
        )
        assert kind is FrameKind.SPEC
        worker = _Worker(1, wire.decode_spec(meta, arrays), None)
        assert [worker.by_position[position].key_root for position in (0, 1)] == roots
        assert [
            (host.index, host.cpu_cores, host.memory_mib, host.allow_memory_overcommit)
            for host in (worker.by_position[position].host for position in (0, 1))
        ] == [(10, 8, 4096, True), (11, 8, 4096, True)]

        batch = wire.ControlBatch()
        compute = ComputeParams(vcpu_count=3, memory_mib=768, cpu_quota=0.5)
        driver = _replica(batch)
        driver.create_machines(MachineBatch.single("4.0.celestial", 0, 4, compute), 0.0)
        driver.create_machines(MachineBatch.single("5.0.celestial", 0, 5, ComputeParams()), 0.0)
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, *batch.payload())))
        assert worker.deferred_errors == []
        machines = worker.by_position[0].host.machines
        created = machines["4.0.celestial"]
        assert created.cpu_quota == CPUQuota(3, 0.5) and created.memory_mib == 768
        assert machines["5.0.celestial"].cpu_quota == CPUQuota(2, 1.0)  # the defaults


#: The key root of every host of :func:`_control_worker`.
_ROOT = 3


def _control_worker(positions=(0,)) -> _Worker:
    hosts = {position: MachineManager(Host(10 + position, 8, 4096, True)) for position in positions}
    for manager in hosts.values():
        manager.key_root = _ROOT
    return _Worker(0, hosts, None)


def _replica(batch: wire.ControlBatch, manager=None) -> MachineManager:
    """A driver-side manager whose rows go to ``batch``, as host position 0."""
    manager = manager or MachineManager(Host(index=10))
    manager.sink = lambda op, machine, value: batch.append(0, op, machine, value)
    return manager


HAWAII = MachineId(MachineId.GROUND_SHELL, 0, "hawaii")


def _every_op(manager: MachineManager) -> None:
    """All five lifecycle operations, a ground station among the machines."""
    manager.create_machines(
        MachineBatch(
            ["4.0.celestial", "5.0.celestial"],
            np.array([0, 0]),
            np.array([4, 5]),
            np.array([0, 0]),
            (ComputeParams(),),
        ),
        1.0,
    )
    manager.create_machines(
        MachineBatch.single(
            HAWAII.name, HAWAII.shell, HAWAII.identifier,
            ComputeParams(vcpu_count=4, memory_mib=2048),
        ),
        1.5,
    )
    # Satellites 0 and 2 of shell 1, both inside the box of the records below.
    manager.create_machines(
        MachineBatch(
            ["0.1.celestial", "2.1.celestial"],
            np.array([1, 1]),
            np.array([0, 2]),
            np.array([0, 0]),
            (ComputeParams(vcpu_count=1, memory_mib=256),),
        ),
        boot_s=0.5,
    )
    manager.stop_machine(MachineId(0, 4, "4.0.celestial"), 3.0)
    manager.reboot_machine(MachineId(0, 4, "4.0.celestial"), 4.0)
    manager.set_cpu_quota(HAWAII, 0.25)
    manager.set_busy_fraction(MachineId(0, 5, "5.0.celestial"), 0.5)


def _every_op_frame():
    batch = wire.ControlBatch()
    _every_op(_replica(batch))
    meta, arrays = batch.payload()
    return meta, [np.array(array) for array in arrays]


def _machines(manager) -> dict:
    return {
        name: (
            machine.state,
            machine.boot_finished_at_s,
            machine.cpu_quota.quota_fraction,
            machine.seed,
        )
        for name, machine in manager.host.machines.items()
    }


def _set(column, index, value):
    def mutate(meta, arrays):
        arrays[column][index] = value

    return mutate


def _swap(column, dtype=None, shape=None):
    def mutate(meta, arrays):
        array = arrays[column]
        arrays[column] = array.astype(dtype) if dtype else array.reshape(shape)

    return mutate


# Columns: 0 op, 1 position, 2 count, 3 value, then the machine entries'
# 4 shell, 5 identifier, 6 image.  Rows: 0-2 CREATE (two, one, two
# machines), 3 STOP, 4 REBOOT, 5 CPU_QUOTA, 6 BUSY; machine entries 0-4 are
# the CREATE rows', 5-8 the others'.
_FORGED_CONTROL = {
    "short-column": lambda meta, arrays: arrays.__setitem__(3, arrays[3][:-1]),
    "short-machine-column": lambda meta, arrays: arrays.__setitem__(5, arrays[5][:-1]),
    "missing-column": lambda meta, arrays: arrays.pop(),
    "unknown-op": _set(0, 4, len(wire.ControlOp)),
    # BUSY's code while there were BOOT and BOOT_CREATED ops.
    "op-code-six": _set(0, 6, 6),
    "nan-boot-time": _set(3, 0, np.nan),
    "infinite-boot-time": _set(3, 2, np.inf),
    "create-of-no-machine": _set(2, 0, 0),
    "boot-of-two-machines": _set(2, 4, 2),
    "image-past-table": _set(6, 1, 3),
    "negative-image": _set(6, 0, -1),
    "image-on-a-boot-row": _set(6, 6, 0),
    "extra-name": lambda meta, arrays: meta["names"].append("tahiti"),
    "missing-name": lambda meta, arrays: meta["names"].clear(),
    "non-string-name": lambda meta, arrays: meta["names"].__setitem__(0, 7),
    "position-dtype": _swap(1, dtype=np.int64),
    "value-dtype": _swap(3, dtype=np.float32),
    "two-d-column": _swap(2, shape=(7, 1)),
    "images-not-a-list": lambda meta, arrays: meta.__setitem__("images", {}),
    "no-names": lambda meta, arrays: meta.pop("names"),
    "unknown-compute-field": lambda meta, arrays: meta["images"][0].update(gpus=1),
    "image-not-a-dict": lambda meta, arrays: meta["images"].__setitem__(2, "big"),
}


def _forged_control(name):
    meta, arrays = _every_op_frame()
    _FORGED_CONTROL[name](meta, arrays)
    return meta, arrays


class TestControlFrames:
    """One CONTROL frame carries a worker's lifecycle operations in order."""

    def test_rows_rebuild_what_a_manager_does(self):
        # The replica manager's rows, run by a worker, build what the same
        # operations build on an in-process manager; the replica holds the
        # worker's states, seeds, boot times and quotas, and the worker's
        # checkpoint is the replica's.
        batch = wire.ControlBatch()
        worker = _control_worker()
        reference, driver = (
            MachineManager(Host(index=10, cpu_cores=8, memory_mib=4096,
                                allow_memory_overcommit=True))
            for _ in range(2)
        )
        for manager in (reference, driver):
            manager.key_root = _ROOT
        _every_op(reference)
        _every_op(_replica(batch, driver))
        meta, arrays = batch.payload()
        # One name per ground-station entry (create, quota), one table per
        # distinct compute.
        assert len(meta["images"]) == 3 and meta["names"] == ["hawaii"] * 2
        assert [array.dtype.str for array in arrays] == [
            "|u1", "<i4", "<i4", "<f8", "<i4", "<i4", "<i4"
        ]
        assert arrays[2].tolist() == [2, 1, 2, 1, 1, 1, 1]
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, meta, arrays)))
        assert worker.deferred_errors == []
        manager = worker.by_position[0]
        assert _machines(manager) == _machines(reference) == _machines(driver)
        assert (
            manager.counters_snapshot()
            == reference.counters_snapshot()
            == driver.counters_snapshot()
        )
        batch.clear()
        assert len(batch) == 0

    @pytest.mark.parametrize("name", sorted(_FORGED_CONTROL))
    def test_malformed_frames_are_wire_errors_and_run_no_row(self, name):
        meta, arrays = _forged_control(name)
        worker = _control_worker()
        with pytest.raises(WireError):
            worker._dispatch(FrameKind.CONTROL, meta, arrays)
        assert worker.by_position[0].host.machines == {}

    def test_failing_rows_are_reported_and_the_rows_after_them_run(self):
        batch = wire.ControlBatch()
        batch.append(0, wire.ControlOp.CPU_QUOTA, MachineId(0, 9, "9.0.celestial"), 0.5)
        batch.append(7, wire.ControlOp.STOP, MachineId(0, 4, "4.0.celestial"), 1.0)  # not ours
        driver = _replica(batch)
        driver.create_machines(MachineBatch.single("4.0.celestial", 0, 4, ComputeParams()), 2.0)
        worker = _control_worker()
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, *batch.payload())))
        first, second = worker.deferred_errors
        assert first.startswith("CONTROL row 0 (CPU_QUOTA): HostError")
        assert second.startswith("CONTROL row 1 (STOP): LookupError")
        assert "position 7 is not owned" in second
        machine = worker.by_position[0].host.machines["4.0.celestial"]
        assert machine.state is MachineState.RUNNING

    def test_a_malformed_frame_surfaces_with_the_next_ack(self):
        # Through the whole dispatch loop: nothing escapes _Worker.run, the
        # WireError is a deferred error of the next acknowledgement.
        meta, arrays = _forged_control("short-column")
        frames = [
            encode_frame(FrameKind.CONTROL, meta, arrays),
            encode_frame(FrameKind.PING, {"seq": 1}),
        ]
        sent = []

        class _Connection:
            def recv_bytes(self):
                if not frames:
                    raise EOFError
                return frames.pop(0)

            def send_bytes(self, data):
                sent.append(decode_frame(data))

        worker = _control_worker()
        worker.conn = _Connection()
        assert worker.run() is False  # the connection ended, nothing raised
        ((kind, ack, _arrays),) = sent
        assert kind is FrameKind.ACK and sorted(ack) == ["counters", "deferred_errors", "seq"]
        (error,) = ack["deferred_errors"]
        assert error.startswith("CONTROL: WireError: CONTROL column lengths differ")


def _generic_frame() -> bytes:
    rng = np.random.default_rng(11)
    return encode_frame(
        FrameKind.SAMPLE_USAGE,
        {"epoch": 12, "names": ["hawaii", "tahiti"], "flags": {"a": True}},
        (
            rng.integers(0, 100, size=(7, 2)).astype(np.int64),
            rng.random(31),
            np.array([], dtype=np.float32),
        ),
    )


def _ack_reference_frame() -> bytes:
    """A sweep's acknowledgement: checkpoints and one sample checksum per host."""
    worker = _control_worker(positions=(0, 2))
    checksums = worker._dispatch(
        FrameKind.SAMPLE_USAGE,
        {"now_s": 5.0, "setup_phase": False, "applying_update": True, "sample_index": [3, 0, 7]},
        [],
    )
    sent = []
    worker.conn = types.SimpleNamespace(send_bytes=sent.append)
    worker._ack(4, checksums)
    return sent[0]


def _record_reference_frame() -> bytes:
    rng = np.random.default_rng(12)
    return _record_frame(
        _record(
            {0: rng.random(13) < 0.5, 3: rng.random(8) < 0.5},
            {0: rng.random(13) < 0.2, 3: rng.random(8) < 0.2},
        )
    )


def _spec_reference_frame() -> bytes:
    return encode_frame(FrameKind.SPEC, *wire.spec_payload(_spec_hosts()))


_REFERENCE_FRAMES = {
    "ack": _ack_reference_frame,
    "generic": _generic_frame,
    "record": _record_reference_frame,
    "spec": _spec_reference_frame,
}


class TestSampleChecksum:
    """A sweep's acknowledgement names each host's sample by its CRC-32 only."""

    def test_the_worker_answers_the_checksum_of_the_sample_the_driver_takes(self):
        worker = _control_worker(positions=(0, 2))
        meta = {"now_s": 5.0, "setup_phase": False, "applying_update": True, "sample_index": [3, 0, 7]}
        answer = worker._dispatch(FrameKind.SAMPLE_USAGE, meta, [])
        assert sorted(answer) == ["sample_crc"] and sorted(answer["sample_crc"]) == [0, 2]
        for position in (0, 2):
            driver = _control_worker(positions=(position,)).by_position[position]
            for _ in range(meta["sample_index"][position]):  # the trace's length keys the noise
                driver.sample_usage(0.0)
            sample = driver.sample_usage(5.0, applying_update=True)
            assert answer["sample_crc"][position] == wire.sample_checksum(sample)

    def test_every_field_is_in_the_checksum(self):
        sample = _control_worker().by_position[0].sample_usage(5.0)
        seen = {wire.sample_checksum(sample)}
        for field in dataclasses.fields(sample):
            value = getattr(sample, field.name)
            changed = value + 1 if isinstance(value, int) else value * 0.5 + 0.25
            seen.add(wire.sample_checksum(dataclasses.replace(sample, **{field.name: changed})))
        assert len(seen) == 1 + len(dataclasses.fields(sample))


class TestFrameFuzz:
    """Property corpus: truncated / bit-flipped / garbage inputs either
    decode cleanly or raise a *typed* wire error — nothing else escapes.
    A record or SPEC frame that still frames must decode to a record or to
    managers, or be a :class:`WireError` too."""

    def _decode_or_typed_error(self, data: bytes):
        try:
            kind, meta, arrays = decode_frame(data)
            if kind is FrameKind.APPLY_EPOCH:
                wire.decode_record(meta, arrays)
            if kind is FrameKind.SPEC:
                wire.decode_spec(meta, arrays)
        except WireError:  # includes WireVersionError
            return None
        assert isinstance(kind, FrameKind)
        assert isinstance(meta, dict)
        for array in arrays:
            assert isinstance(array, np.ndarray)
        return kind

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncations(self, data):
        frame = _REFERENCE_FRAMES[data.draw(st.sampled_from(sorted(_REFERENCE_FRAMES)))]()
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(WireError):
            decode_frame(frame[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_bit_flips(self, data):
        name = data.draw(st.sampled_from(sorted(_REFERENCE_FRAMES)))
        frame = bytearray(_REFERENCE_FRAMES[name]())
        position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[position] ^= 1 << bit
        # A flip inside an array buffer still decodes (to different data —
        # the wire layer is framing, not end-to-end integrity) unless it
        # sets a record's padding bit; any flip that breaks decoding must
        # surface as a typed wire error.
        self._decode_or_typed_error(bytes(frame))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512))
    def test_random_garbage(self, data):
        self._decode_or_typed_error(data)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_byte_corruption_bursts(self, data):
        reference = _REFERENCE_FRAMES[data.draw(st.sampled_from(sorted(_REFERENCE_FRAMES)))]()
        frame = bytearray(reference)
        start = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        burst = data.draw(st.binary(min_size=1, max_size=16))
        frame[start : start + len(burst)] = burst
        self._decode_or_typed_error(bytes(frame[: len(reference)]))


class TestSliceCodec:
    """``slice_payload`` / ``decode_record``: one record, every worker."""

    def test_typical_slice_roundtrips_byte_identically(self):
        # Shell sizes that are and are not multiples of 8 (padding bits).
        rng = np.random.default_rng(5)
        sent = _record(
            {shell: rng.random(size) < 0.5 for shell, size in ((0, 13), (1, 16), (4, 1))},
            {shell: rng.random(size) < 0.3 for shell, size in ((0, 13), (1, 16), (4, 1))},
            epoch=41,
        )
        _assert_records_identical(sent, _roundtrip(sent))

    def test_empty_slice_roundtrips(self):
        # A quiet epoch (nothing flipped) and a shell without satellites.
        sent = _record({0: [True, False, True], 1: []})
        received = _roundtrip(sent)
        _assert_records_identical(sent, received)
        assert not any(ids.size for ids in received.flips.values())
        first = _record({0: [True, False, True]}, {0: [True, False, True]}, epoch=1, first=True)
        _assert_records_identical(first, _roundtrip(first))

    def test_slice_carries_exactly_what_a_manager_applies(self):
        assert [field.name for field in dataclasses.fields(EpochRecord)] == [
            "epoch",
            "active",
            "flips",
            "first",
        ]
        # Two sets per shell, the active sets first: shell 2's nine active
        # satellites are two bytes of bits, every empty set no positions.
        meta, arrays = wire.slice_payload(_record({2: [True] * 9, 0: [False] * 3}))
        assert meta == {"shells": [0, 2], "sizes": [3, 9], "epoch": 9, "first": False}
        assert [(array.dtype.str, array.size) for array in arrays] == [
            ("<u2", 0), ("|u1", 2), ("<u2", 0), ("<u2", 0)
        ]

    def test_slice_frame_size_is_independent_of_fleet_size(self):
        # One host with 1,000 satellite microVMs: the record names no
        # machine, so its frame is the 125 bytes of the active set's bits, an
        # empty flip set and a few dozen bytes of meta whatever the fleet —
        # and the same for every worker.
        config = Configuration(
            shells=(
                ShellConfig(
                    name="thousand",
                    geometry=ShellGeometry(25, 40, 550.0, 53.0, 360.0),
                    compute=ComputeParams(vcpu_count=1, memory_mib=64),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            ),
            update_interval_s=2.0,
        )
        manager = MachineManager(Host(index=0, allow_memory_overcommit=True))
        coordinator = Coordinator(
            config, ConstellationCalculation(config), ConstellationDatabase(), [manager]
        )
        try:
            coordinator.create_ground_stations(0.0)
            coordinator.update(0.0)
            assert len(manager.host.machines) == 1001
            previous = coordinator.database.state
            state, diff = coordinator.calculation.diff_since(previous, 2.0)
            assert diff.topology.change_count > 1000  # every link's delay moved
            record = EpochRecord.of(2, state, diff)
        finally:
            coordinator.close()
        assert record.flips[0].size == 0
        assert 125 < len(_record_frame(record)) < 256

    def test_activity_payload_roundtrip(self):
        # A record's active sets: one set per shell, an empty shell's too.
        masks = {
            0: np.array([True, False, True]),
            1: np.zeros(0, dtype=bool),
            2: np.ones(5, dtype=bool),
        }
        received = _roundtrip(_record(masks))
        assert list(received.active) == [0, 1, 2]
        for shell, mask in masks.items():
            _assert_bytes_identical(mask, received.active[shell])


def _record_payload():
    meta, arrays = wire.slice_payload(
        _record(
            {0: [True] * 5 + [False] * 8, 1: [True, False] * 4},
            {0: [False] * 5 + [True] * 8, 1: [False] * 8},
        )
    )
    return meta, [np.array(array) for array in arrays]


def _append(key, value):
    return lambda meta, arrays: meta[key].append(value)


def _put(key, value):
    return lambda meta, arrays: meta.__setitem__(key, value)


def _array(index, make):
    return lambda meta, arrays: arrays.__setitem__(index, make(arrays[index]))


def _set_padding_bit(arrays):
    arrays[0][-1] |= 1


_FORGED_RECORD = {
    "missing-array": lambda meta, arrays: arrays.pop(),
    "extra-array": lambda meta, arrays: arrays.append(arrays[0]),
    "shell-without-size": _append("shells", 2),
    "shell-without-masks": lambda meta, arrays: (
        meta["shells"].append(2), meta["sizes"].append(8)
    ),
    "duplicate-shell": _put("shells", [0, 0]),
    "non-integer-shell": _put("shells", ["0", 1]),
    "negative-size": _put("sizes", [-3, 8]),
    "size-too-small": _put("sizes", [7, 8]),
    "size-too-large": _put("sizes", [17, 8]),
    "no-sizes": lambda meta, arrays: meta.pop("sizes"),
    "bool-mask": _array(1, lambda packed: np.unpackbits(packed).astype(bool)),
    "wide-mask": _array(0, lambda packed: packed.astype("<u4")),
    "two-d-mask": _array(0, lambda packed: packed.reshape(1, -1)),
    "short-mask": _array(2, lambda packed: packed[:-1]),
    "long-mask": _array(2, lambda packed: np.append(packed, np.uint8(0))),
    "padding-bit": lambda meta, arrays: _set_padding_bit(arrays),
    "negative-epoch": _put("epoch", -1),
    "float-epoch": _put("epoch", 2.0),
    "first-not-bool": _put("first", 1),
}


def _record_worker() -> _Worker:
    """A worker whose one manager hosts satellites 4 and 5 of shell 0 and hawaii."""
    worker = _control_worker()
    meta, arrays = _every_op_frame()
    worker._dispatch(FrameKind.CONTROL, meta, arrays)
    assert worker.deferred_errors == []
    return worker


def _worker_census(worker: _Worker):
    manager = worker.by_position[0]
    return manager.counters_snapshot(), _machines(manager)


class TestRecordFrames:
    """A malformed record is a WireError and changes no manager."""

    def test_a_record_applies_and_reports_its_dirty_reconciles(self):
        worker = _record_worker()
        manager = worker.by_position[0]
        meta, arrays = _record_payload()
        # The acknowledgement adds nothing to the checkpoint: the driver
        # applies the record to its replica and compares checkpoints.
        assert worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 5.0}, arrays) is None
        # 5.0 flipped out of the box: the flip pass suspends it, and the
        # checkpoint counts it.  4.0 did not flip but was rebooted (dirty):
        # the dirty pass reconciles it against its mask, which keeps it
        # running; the ground station is not a satellite and is skipped.
        machines = manager.host.machines
        assert machines["5.0.celestial"].state.value == "suspended"
        assert machines["4.0.celestial"].state.value == "running"
        snapshot = manager.counters_snapshot()
        assert (snapshot["suspension_count"], snapshot["applied_diffs"], snapshot["dirty"]) == (
            1, 1, []
        )
        # Rebooted again and then outside the box without a flip: the dirty
        # pass suspends it, and the checkpoint counts that.
        batch = wire.ControlBatch()
        batch.append(0, wire.ControlOp.REBOOT, MachineId(0, 4, "4.0.celestial"), 6.0)
        worker._dispatch(FrameKind.CONTROL, *batch.payload())
        meta, arrays = wire.slice_payload(
            _record({0: [True] * 4 + [False] * 9, 1: [True, False] * 4}, epoch=10)
        )
        worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 7.0}, arrays)
        assert machines["4.0.celestial"].state.value == "suspended"
        assert manager.counters_snapshot()["suspension_count"] == 2
        assert manager.counters_snapshot()["states"] != snapshot["states"]

    @pytest.mark.parametrize("name", sorted(_FORGED_RECORD))
    def test_malformed_records_are_wire_errors_and_change_nothing(self, name):
        worker = _record_worker()
        meta, arrays = _record_payload()
        _FORGED_RECORD[name](meta, arrays)
        before = _worker_census(worker)
        with pytest.raises(WireError):
            worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 5.0}, arrays)
        assert _worker_census(worker) == before


def _spec_hosts() -> dict[int, MachineManager]:
    """A worker's replica managers mid-run: one with machines, one still empty.

    The first holds a ground station, running, suspended, stopped and
    rebooted satellites, counts a suspension and holds a dirty machine.
    """
    busy = MachineManager(Host(10, 8, 4096, True), rng=np.random.default_rng(5))
    _every_op(busy)
    busy.apply_diff(
        _record(
            {0: [True] * 5 + [False] * 8, 1: [True, False] * 4},
            {0: [False] * 5 + [True] * 8, 1: [False] * 8},
        ),
        5.0,
    )
    busy.reboot_machine(MachineId(0, 4, "4.0.celestial"), 6.0)
    # Reading a boot's finish draws it into the table's finish column.
    assert busy.machine(MachineId(0, 4, "4.0.celestial")).boot_finished_at_s > 6.0
    empty = MachineManager(Host(11, 4, 2048, False))
    empty.key_root = 2**63 - 1
    return {0: busy, 3: empty}


def _spec_payload():
    meta, arrays = wire.spec_payload(_spec_hosts())
    return meta, list(arrays)


def _spec_host(key, value):
    return lambda meta, arrays: meta["hosts"][0].__setitem__(key, value)


def _spec_checkpoint(key, value):
    return lambda meta, arrays: meta["hosts"][0]["checkpoint"].__setitem__(key, value)


# Host 0's columns: 0 shells, 1 identifiers, 2 vcpus, 3 memory, 4 quota,
# 5 busy, 6 seeds, 7 states, 8 boot counts, 9 boot started, 10 held until,
# 11 finished; host 3's follow at 12.  Rows: 4.0, 5.0, hawaii, 0.1, 2.1.
_FORGED_SPEC = {
    "seed-dtype": _array(6, lambda column: column.astype("<i4")),
    "state-dtype": _array(7, lambda column: column.astype("<f8")),
    "two-d-column": _array(2, lambda column: column.reshape(1, -1)),
    "ragged-columns": _array(4, lambda column: column[:-1]),
    "ragged-empty-table": _array(21, lambda column: np.append(column, 1.0)),
    "missing-column": lambda meta, arrays: arrays.pop(),
    "state-code-past-the-states": _set(7, 0, len(MachineState)),
    "negative-state-code": _set(7, 1, -1),
    "state-off-its-checkpoint": _set(7, 1, 1),
    "booting-state-code": _set(7, 0, 0),
    "never-booted": _set(8, 0, 0),
    "extra-name": lambda meta, arrays: meta["hosts"][0]["names"].append("tahiti"),
    "missing-name": lambda meta, arrays: meta["hosts"][0]["names"].clear(),
    "ground-station-as-satellite": _set(0, 2, 0),
    "satellite-as-ground-station": _set(0, 0, MachineId.GROUND_SHELL),
    "machine-twice": _set(1, 1, 4),
    "rows-off-its-table": _spec_checkpoint("rows", 4),
    "string-counter": _spec_checkpoint("suspension_count", "1"),
    "dirty-not-names": _spec_checkpoint("dirty", [4]),
    "no-checkpoint": lambda meta, arrays: meta["hosts"][0].pop("checkpoint"),
    "no-cores": _spec_host("cpu_cores", 0),
    "bool-position": _spec_host("position", True),
    "overcommit-not-bool": _spec_host("allow_memory_overcommit", 1),
    "position-twice": lambda meta, arrays: meta["hosts"][1].__setitem__("position", 0),
    "hosts-not-a-list": lambda meta, arrays: meta.__setitem__("hosts", {}),
}


class TestSpecFrames:
    """A worker starts from its hosts as the driver's replica holds them."""

    def test_a_spec_rebuilds_the_replica_managers(self):
        hosts = _spec_hosts()
        kind, meta, arrays = decode_frame(
            encode_frame(FrameKind.SPEC, *wire.spec_payload(hosts))
        )
        received = wire.decode_spec(meta, arrays)
        assert kind is FrameKind.SPEC and list(received) == [0, 3]
        for position, manager in hosts.items():
            copy = received[position]
            assert copy.key_root == manager.key_root
            assert copy.counters_snapshot() == manager.counters_snapshot()
            assert _machines(copy) == _machines(manager)
            for column in MachineTable.COLUMNS[1:]:
                held, sent = (getattr(m.host.machines, column) for m in (copy, manager))
                assert held.typecode == sent.typecode and held.tobytes() == sent.tobytes()
        snapshot = hosts[0].counters_snapshot()
        assert snapshot["dirty"] == ["4.0.celestial"] and snapshot["suspension_count"] == 1
        # The satellites the table holds are indexed: the next record moves
        # the same machines, with the same counts, on both.
        later = _record(
            {0: [True] * 13, 1: [False] * 8},
            {0: [False] * 5 + [True] * 8, 1: [True, False] * 4},
            epoch=10,
        )
        for manager in (hosts[0], received[0]):
            manager.apply_diff(later, 7.0)
        assert received[0].counters_snapshot() == hosts[0].counters_snapshot()
        assert _machines(received[0]) == _machines(hosts[0])

    @pytest.mark.parametrize("name", sorted(_FORGED_SPEC))
    def test_forged_specs_are_wire_errors(self, name):
        meta, arrays = _spec_payload()
        _FORGED_SPEC[name](meta, arrays)
        with pytest.raises(WireError):
            wire.decode_spec(meta, arrays)
