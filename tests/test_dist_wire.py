"""Wire-protocol round-trip tests for the distribution runtime.

The contract under test: a :class:`HostStateSlice` (and every other frame
payload) crosses the coordinator ↔ worker seam **byte-identically** — same
dtypes, same shapes, same payload bits — including empty slices, and frames
from a different protocol generation are rejected before any payload is
deserialised.
"""

import dataclasses
import importlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    GroundStationConfig,
    ShellConfig,
)
from repro.core.config import ComputeParams
from repro.core.machine_manager import HostStateSlice, MachineManager
from repro.core.constellation import MachineId
from repro.dist import wire
from repro.dist.backend import MirroredManager
from repro.dist.transport import HandshakeError
from repro.dist.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameKind,
    WireError,
    WireVersionError,
    decode_frame,
    encode_frame,
)
from repro.dist.worker import HostSpec, WorkerSpec, _Worker
from repro.hosts import Host
from repro.microvm import KernelImage, RootFilesystemImage
from repro.orbits import GroundStation, ShellGeometry

# NumPy warns while parsing its deprecated "a" alias of "S", before the kind is refused.
pytestmark = pytest.mark.filterwarnings("ignore:Data type alias 'a':DeprecationWarning")


def _assert_bytes_identical(sent: np.ndarray, received: np.ndarray):
    assert sent.dtype == received.dtype
    assert sent.shape == received.shape
    assert sent.tobytes() == received.tobytes()


def _slice(activated=(), deactivated=(), dirty=None):
    return HostStateSlice(
        epoch=9,
        activated=tuple(activated),
        deactivated=tuple(deactivated),
        dirty_active=dict(dirty or {}),
    )


def _slice_frame(state_slice: HostStateSlice) -> bytes:
    # The path WorkerSupervisor.begin_request takes: payload, then frame.
    return encode_frame(FrameKind.APPLY_SLICE, *wire.slice_payload(state_slice))


def _roundtrip(state_slice: HostStateSlice) -> HostStateSlice:
    kind, meta, arrays = decode_frame(_slice_frame(state_slice))
    assert kind is FrameKind.APPLY_SLICE
    return wire.decode_slice(meta, arrays)


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
        blob = wire.encode_blob(
            {"meta": meta if meta is not None else {}, "arrays": list(descriptors)}
        )
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
        blob = wire.encode_blob({"meta": {}, "arrays": 3})
        with pytest.raises(WireError, match="descriptor"):
            decode_frame(_forge_frame(blob=blob, array_count=3))
        blob = wire.encode_blob({"meta": ["not", "a", "dict"], "arrays": []})
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


class TestSafeBlobCodec:
    """The metadata blob uses a closed-type-set codec by default — the
    deserialisation boundary an unauthenticated peer can reach must never
    construct objects or call anything."""

    def test_roundtrip_closed_type_set(self):
        meta = {
            "none": None,
            "on": True,
            "off": False,
            "small": -42,
            "big": 2**100,
            "neg_big": -(2**127),
            "pi": 3.5,
            "name": "gateway",
            "raw": b"\x00\xff\x80",
            "seq": [1, "two", 3.0],
            "pair": (4, 5),
            7: "int-key",
            "nested": {"deep": {"er": (None, b"x")}},
        }
        kind, out, arrays = decode_frame(encode_frame(FrameKind.PING, meta))
        assert kind is FrameKind.PING
        assert out == meta
        assert arrays == []
        assert isinstance(out["pair"], tuple)
        assert isinstance(out["seq"], list)
        assert isinstance(out["raw"], bytes)

    def test_numpy_scalars_coerced_to_python(self):
        meta = {"i": np.int64(9), "f": np.float64(2.5), "b": np.bool_(True)}
        _, out, _ = decode_frame(encode_frame(FrameKind.PING, meta))
        assert out == {"i": 9, "f": 2.5, "b": True}
        assert type(out["i"]) is int
        assert type(out["f"]) is float
        assert type(out["b"]) is bool

    def test_blob_truncations_raise_wire_error(self):
        blob = wire.encode_blob({"meta": {"k": [1, 2.5, "three"]}, "arrays": []})
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                wire.decode_blob(blob[:cut])

    def test_forged_sequence_count_rejected(self):
        # A count claiming more elements than remaining bytes must fail the
        # bounds check, not allocate or loop on garbage.
        blob = b"l" + struct.pack("<I", 2**31)
        with pytest.raises(WireError, match="truncated"):
            wire.decode_blob(blob)

    def test_deep_nesting_rejected(self):
        blob = b"l" + struct.pack("<I", 1)
        for _ in range(100):
            blob += b"l" + struct.pack("<I", 1)
        blob += b"N"
        with pytest.raises(WireError, match="deeply"):
            wire.decode_blob(blob)

    def test_unhashable_dict_key_rejected(self):
        # dict with one entry whose key is a list — encodable tag-wise,
        # unhashable on decode.
        blob = b"d" + struct.pack("<I", 1)
        blob += b"l" + struct.pack("<I", 0)  # key: []
        blob += b"N"  # value: None
        with pytest.raises(WireError, match="unhashable"):
            wire.decode_blob(blob)


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
        monkeypatch.setattr(wire, "decode_blob", lambda data: pytest.fail("blob decoded"))
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
            with pytest.raises(TypeError, match="safe metadata blob"):
                encode_frame(FrameKind.SPEC, {"spec": value})

    def test_safe_payloads_are_never_flagged(self):
        for meta in (
            {},
            {"client": "c1", "scope": {"tables": True}},
            {"nonce": b"\x01" * 16, "digest": b"\x02" * 32},
            {"rng_state": 2**127 - 1, "epoch": 3},
        ):
            frame = encode_frame(FrameKind.SUBSCRIBE, meta)
            assert frame[7] == 0  # header: magic(4) + version(2) + kind(1) + flags
            _, out, _ = decode_frame(frame)
            assert out == meta

    def test_no_runtime_module_binds_pickle(self):
        for name in ("dist.wire", "dist.transport", "dist.worker", "dist.supervisor",
                     "serve.gateway", "serve.client"):
            assert "pickle" not in vars(importlib.import_module(f"repro.{name}")), name

    def test_spec_and_create_machine_travel_as_plain_data(self):
        # Built by the real senders, decoded by the one decode_frame, rebuilt
        # by the worker: equal objects, RNG streams that continue identically.
        rngs = [np.random.default_rng(seed) for seed in (5, 6)]
        for rng in rngs:
            rng.random(3)  # live state, not a fresh seed
        hosts = tuple(
            HostSpec(position, 10 + position, 8, 4096, True, rng.bit_generator.state)
            for position, rng in enumerate(rngs)
        )
        spec = WorkerSpec(worker_index=1, hosts=hosts)
        kind, meta, _ = decode_frame(spec.to_frame())
        assert kind is FrameKind.SPEC and WorkerSpec.from_meta(meta["spec"]) == spec
        worker = _Worker(WorkerSpec.from_meta(meta["spec"]), None)
        for position, rng in enumerate(rngs):
            continued = worker.by_position[position]._rng
            assert continued.random(4).tolist() == rng.random(4).tolist()
        for malformed in ("ok", {"worker_index": 0}, {"worker_index": 0, "hosts": [{}]}):
            with pytest.raises(HandshakeError, match="malformed worker spec"):
                WorkerSpec.from_meta(malformed)

        kernel = KernelImage().with_args("quiet")
        rootfs = RootFilesystemImage(name="edge.img", size_mib=512.0)
        batch = wire.ControlBatch()

        class _Supervisor:  # stands in for WorkerSupervisor.control
            def control(self, worker):
                return batch

        proxy = MirroredManager(MachineManager(Host(index=10)), _Supervisor(), 0, 0)
        proxy.create_machine(MachineId(0, 4, "4.0.celestial"), ComputeParams(), kernel, rootfs)
        proxy.create_machine(MachineId(0, 5, "5.0.celestial"), ComputeParams())
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, *batch.payload())))
        assert worker.deferred_errors == []
        machines = worker.by_position[0].host.machines
        created = machines["4.0.celestial"]
        assert (created.kernel, created.rootfs) == (kernel, rootfs)
        assert machines["5.0.celestial"].kernel == KernelImage()  # None → the default


def _control_worker(positions=(0,)) -> _Worker:
    rng = np.random.default_rng(3)
    hosts = tuple(
        HostSpec(position, 10 + position, 8, 4096, True, rng.bit_generator.state)
        for position in positions
    )
    return _Worker(WorkerSpec(worker_index=0, hosts=hosts), None)


class _Supervisor:
    """Stands in for WorkerSupervisor.control: one batch for every worker."""

    def __init__(self):
        self.batch = wire.ControlBatch()

    def control(self, worker):
        return self.batch


HAWAII = MachineId(MachineId.GROUND_SHELL, 0, "hawaii")


def _every_op(proxy: MirroredManager) -> None:
    """All seven lifecycle operations, a ground station among the machines."""
    kernel = KernelImage().with_args("quiet")
    proxy.create_machine(MachineId(0, 4, "4.0.celestial"), ComputeParams(), kernel)
    proxy.create_machine(MachineId(0, 5, "5.0.celestial"), ComputeParams())
    proxy.create_machine(HAWAII, ComputeParams(vcpu_count=4, memory_mib=2048))
    proxy.boot(MachineId(0, 4, "4.0.celestial"), 1.0)
    proxy.boot(HAWAII, 1.5)
    proxy.boot_all(2.0)
    proxy.stop_machine(MachineId(0, 4, "4.0.celestial"), 3.0)
    proxy.reboot_machine(MachineId(0, 4, "4.0.celestial"), 4.0)
    proxy.set_cpu_quota(HAWAII, 0.25)
    proxy.set_busy_fraction(MachineId(0, 5, "5.0.celestial"), 0.5)


def _every_op_frame():
    supervisor = _Supervisor()
    _every_op(MirroredManager(MachineManager(Host(index=10)), supervisor, 0, 0))
    meta, arrays = supervisor.batch.payload()
    return meta, [np.array(array) for array in arrays]


def _machines(manager: MachineManager) -> dict:
    return {
        name: (
            machine.state,
            machine._boot_finished_at_s,
            machine.cpu_quota.quota_fraction,
            machine.kernel,
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


_FORGED_CONTROL = {
    "short-column": lambda meta, arrays: arrays.__setitem__(3, arrays[3][:-1]),
    "missing-column": lambda meta, arrays: arrays.pop(),
    "unknown-op": _set(0, 4, len(wire.ControlOp)),
    "image-past-table": _set(4, 1, 3),
    "negative-image": _set(4, 0, -1),
    "extra-name": lambda meta, arrays: meta["names"].append("tahiti"),
    "missing-name": lambda meta, arrays: meta["names"].clear(),
    "non-string-name": lambda meta, arrays: meta["names"].__setitem__(0, 7),
    "position-dtype": _swap(1, dtype=np.int64),
    "value-dtype": _swap(5, dtype=np.float32),
    "two-d-column": _swap(2, shape=(5, 2)),
    "images-not-a-list": lambda meta, arrays: meta.__setitem__("images", {}),
    "no-names": lambda meta, arrays: meta.pop("names"),
    "unknown-compute-field": lambda meta, arrays: meta["images"][0]["compute"].update(
        gpus=1
    ),
    "image-not-a-dict": lambda meta, arrays: meta["images"].__setitem__(2, "big"),
}


def _forged_control(name):
    meta, arrays = _every_op_frame()
    _FORGED_CONTROL[name](meta, arrays)
    return meta, arrays


class TestControlFrames:
    """One CONTROL frame carries a worker's lifecycle operations in order."""

    def test_rows_rebuild_what_the_shadow_did(self):
        supervisor = _Supervisor()
        shadow = MachineManager(Host(index=10, cpu_cores=8, memory_mib=4096,
                                     allow_memory_overcommit=True))
        worker = _control_worker()
        shadow._rng.bit_generator.state = worker.by_position[0]._rng.bit_generator.state
        _every_op(MirroredManager(shadow, supervisor, 0, 0))
        meta, arrays = supervisor.batch.payload()
        # One name per ground-station row (create, boot, quota).
        assert len(meta["images"]) == 3 and meta["names"] == ["hawaii"] * 3
        assert [array.dtype.str for array in arrays] == [
            "|u1", "<i4", "<i4", "<i4", "<i4", "<f8"
        ]
        assert supervisor.batch.latest_s == 4.0
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, meta, arrays)))
        assert worker.deferred_errors == [] and worker.controls == 1
        manager = worker.by_position[0]
        assert _machines(manager) == _machines(shadow)
        assert manager.counters_snapshot() == shadow.counters_snapshot()
        supervisor.batch.clear()
        assert len(supervisor.batch) == 0 and supervisor.batch.latest_s is None

    @pytest.mark.parametrize("name", sorted(_FORGED_CONTROL))
    def test_malformed_frames_are_wire_errors_and_run_no_row(self, name):
        meta, arrays = _forged_control(name)
        worker = _control_worker()
        with pytest.raises(WireError):
            worker._dispatch(FrameKind.CONTROL, meta, arrays)
        assert worker.by_position[0].host.machines == {}
        assert worker.controls == 1  # still a ledger frame: replay counts it

    def test_failing_rows_are_reported_and_the_rows_after_them_run(self):
        supervisor = _Supervisor()
        batch = supervisor.batch
        batch.append(wire.ControlOp.CPU_QUOTA, 0, MachineId(0, 9, "9.0.celestial"), 0.5)
        batch.append(wire.ControlOp.BOOT_CREATED, 7, value=1.0)  # not this worker's
        proxy = MirroredManager(MachineManager(Host(index=10)), supervisor, 0, 0)
        proxy.create_machine(MachineId(0, 4, "4.0.celestial"), ComputeParams())
        proxy.boot(MachineId(0, 4, "4.0.celestial"), 2.0)
        worker = _control_worker()
        worker._dispatch(*decode_frame(encode_frame(FrameKind.CONTROL, *batch.payload())))
        first, second = worker.deferred_errors
        assert first.startswith("CONTROL row 0 (CPU_QUOTA): HostError")
        assert second.startswith("CONTROL row 1 (BOOT_CREATED): LookupError")
        assert "position 7 is not owned" in second
        machine = worker.by_position[0].host.machines["4.0.celestial"]
        assert machine.is_running

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
        assert kind is FrameKind.ACK and ack["controls"] == 1
        (error,) = ack["deferred_errors"]
        assert error.startswith("CONTROL: WireError: CONTROL column lengths differ")


def _reference_frame() -> bytes:
    rng = np.random.default_rng(11)
    return encode_frame(
        FrameKind.APPLY_SLICE,
        {"epoch": 12, "names": ["hawaii", "tahiti"], "dirty_active": {"a": True}},
        (
            rng.integers(0, 100, size=(7, 2)).astype(np.int64),
            rng.random(31),
            np.array([], dtype=np.float32),
        ),
    )


class TestFrameFuzz:
    """Property corpus: truncated / bit-flipped / garbage inputs either
    decode cleanly or raise a *typed* wire error — nothing else escapes."""

    def _decode_or_typed_error(self, data: bytes):
        try:
            kind, meta, arrays = decode_frame(data)
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
        frame = _reference_frame()
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(WireError):
            decode_frame(frame[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_bit_flips(self, data):
        frame = bytearray(_reference_frame())
        position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[position] ^= 1 << bit
        # A flip inside an array buffer still decodes (to different data —
        # the wire layer is framing, not end-to-end integrity); any flip
        # that breaks decoding must surface as a typed wire error.
        self._decode_or_typed_error(bytes(frame))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512))
    def test_random_garbage(self, data):
        self._decode_or_typed_error(data)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_byte_corruption_bursts(self, data):
        frame = bytearray(_reference_frame())
        start = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        burst = data.draw(st.binary(min_size=1, max_size=16))
        frame[start : start + len(burst)] = burst
        self._decode_or_typed_error(bytes(frame[: len(_reference_frame())]))


class TestSliceCodec:
    def test_typical_slice_roundtrips_byte_identically(self):
        activated = (MachineId(0, 4, "4.0.celestial"), MachineId(1, 9, "9.1.celestial"))
        deactivated = (MachineId(0, 2, "2.0.celestial"),)
        sent = _slice(
            activated=activated,
            deactivated=deactivated,
            dirty={"4.0.celestial": True, "11.0.celestial": False},
        )
        assert _roundtrip(sent) == sent

    def test_empty_slice_roundtrips(self):
        # A quiet epoch: no flips, no dirty machines.
        sent = _slice()
        received = _roundtrip(sent)
        assert received == sent
        assert received.activated == () and received.deactivated == ()
        assert received.dirty_active == {}

    def test_dirty_active_only_slice_roundtrips(self):
        # No bounding-box flip, but machines rebooted between updates.
        sent = _slice(dirty={"7.0.celestial": False, "8.0.celestial": True})
        received = _roundtrip(sent)
        assert received == sent
        assert list(received.dirty_active) == ["7.0.celestial", "8.0.celestial"]
        assert all(type(flag) is bool for flag in received.dirty_active.values())

    def test_slice_carries_exactly_what_a_manager_applies(self):
        assert [field.name for field in dataclasses.fields(HostStateSlice)] == [
            "epoch",
            "activated",
            "deactivated",
            "dirty_active",
        ]

    def test_slice_frame_size_is_independent_of_fleet_size(self):
        # One host with 1,000 satellite microVMs (no bounding box, so no
        # epoch flips activity): the slice the coordinator shards for it
        # names no machine and its frame stays a few dozen bytes.
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
            state, diff = coordinator.calculation.diff_since(
                coordinator.database.state, 2.0
            )
            assert diff.topology.change_count > 1000  # every link's delay moved
            (state_slice,) = coordinator._shard(state, diff)
        finally:
            coordinator.close()
        assert state_slice.activated == () and state_slice.deactivated == ()
        assert len(_slice_frame(state_slice)) < 512

    def test_activity_payload_roundtrip(self):
        masks = {
            0: np.array([True, False, True]),
            1: np.zeros(0, dtype=bool),
            2: np.ones(5, dtype=bool),
        }
        kind, meta, arrays = decode_frame(
            encode_frame(
                FrameKind.APPLY_ACTIVITY, *wire.activity_payload(masks, 42.0, 7)
            )
        )
        assert kind is FrameKind.APPLY_ACTIVITY
        received, time_s, epoch = wire.decode_activity(meta, arrays)
        assert time_s == 42.0 and epoch == 7
        assert list(received) == [0, 1, 2]
        for shell, mask in masks.items():
            _assert_bytes_identical(mask, received[shell])
