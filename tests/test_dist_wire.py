"""Wire-protocol round-trip tests for the distribution runtime.

The contract under test: an :class:`EpochRecord` (and every other frame
payload) crosses the coordinator ↔ worker seam **byte-identically** — same
dtypes, same shapes, same payload bits — including quiet epochs, frames
from a different protocol generation are rejected before any payload is
deserialised, and a malformed record is refused before any manager sees it.
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
from repro.core.machine_manager import EpochRecord, MachineManager
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


def _record(active, flipped=None, epoch=9, first=False):
    masks = {shell: np.array(mask, dtype=bool) for shell, mask in active.items()}
    if flipped is None:
        flipped = {shell: np.zeros_like(mask) for shell, mask in masks.items()}
    flips = {shell: np.array(mask, dtype=bool) for shell, mask in flipped.items()}
    return EpochRecord(epoch=epoch, active=masks, flipped=flips, first=first)


def _record_frame(record: EpochRecord) -> bytes:
    # The path WorkerSupervisor.begin_epoch takes: payload, then frame.
    return encode_frame(FrameKind.APPLY_EPOCH, *wire.slice_payload(record))


def _roundtrip(record: EpochRecord) -> EpochRecord:
    kind, meta, arrays = decode_frame(_record_frame(record))
    assert kind is FrameKind.APPLY_EPOCH
    return wire.decode_record(meta, arrays)


def _assert_records_identical(sent: EpochRecord, received: EpochRecord):
    assert (received.epoch, received.first) == (sent.epoch, sent.first)
    for masks, received_masks in ((sent.active, received.active), (sent.flipped, received.flipped)):
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

    def test_rows_rebuild_what_a_manager_does(self):
        # The proxy's rows, run by a worker, build what the same operations
        # build on an in-process manager; the proxy's ledger holds the
        # worker's states, boot times and quotas, and its stream stands
        # where the worker's does.
        supervisor = _Supervisor()
        worker = _control_worker()
        start = worker.by_position[0]._rng.bit_generator.state
        reference, driver = (
            MachineManager(Host(index=10, cpu_cores=8, memory_mib=4096,
                                allow_memory_overcommit=True))
            for _ in range(2)
        )
        for manager in (reference, driver):
            manager._rng.bit_generator.state = start
        _every_op(reference)
        proxy = MirroredManager(driver, supervisor, 0, 0)
        _every_op(proxy)
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
        assert _machines(manager) == _machines(reference)
        assert manager.counters_snapshot() == reference.counters_snapshot()
        assert {
            name: (record.state, record.boot_finished_at_s, record.quota_fraction)
            for name, record in proxy.host.machines.items()
        } == {name: entry[:3] for name, entry in _machines(manager).items()}
        assert proxy.host.rng.bit_generator.state == manager._rng.bit_generator.state
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


def _record_reference_frame() -> bytes:
    rng = np.random.default_rng(12)
    return _record_frame(
        _record(
            {0: rng.random(13) < 0.5, 3: rng.random(8) < 0.5},
            {0: rng.random(13) < 0.2, 3: rng.random(8) < 0.2},
        )
    )


_REFERENCE_FRAMES = {"generic": _generic_frame, "record": _record_reference_frame}


class TestFrameFuzz:
    """Property corpus: truncated / bit-flipped / garbage inputs either
    decode cleanly or raise a *typed* wire error — nothing else escapes.
    A record frame that still frames must decode to a record or be a
    :class:`WireError` too."""

    def _decode_or_typed_error(self, data: bytes):
        try:
            kind, meta, arrays = decode_frame(data)
            if kind is FrameKind.APPLY_EPOCH:
                wire.decode_record(meta, arrays)
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
        assert not any(mask.any() for mask in received.flipped.values())
        first = _record({0: [True, False, True]}, {0: [True, False, True]}, epoch=1, first=True)
        _assert_records_identical(first, _roundtrip(first))

    def test_slice_carries_exactly_what_a_manager_applies(self):
        assert [field.name for field in dataclasses.fields(EpochRecord)] == [
            "epoch",
            "active",
            "flipped",
            "first",
        ]
        # Two packed masks per shell, the activity masks first.
        meta, arrays = wire.slice_payload(_record({2: [True] * 9, 0: [False] * 3}))
        assert meta == {"shells": [0, 2], "sizes": [3, 9], "epoch": 9, "first": False}
        assert [(array.dtype.str, array.size) for array in arrays] == [
            ("|u1", 1), ("|u1", 2), ("|u1", 1), ("|u1", 2)
        ]

    def test_slice_frame_size_is_independent_of_fleet_size(self):
        # One host with 1,000 satellite microVMs: the record names no
        # machine, so its frame is two 125-byte masks plus a few dozen bytes
        # whatever the fleet — and the same for every worker.
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
            record = EpochRecord.of(2, state, previous)
        finally:
            coordinator.close()
        assert not record.flipped[0].any()
        assert 250 < len(_record_frame(record)) < 512

    def test_activity_payload_roundtrip(self):
        # RESTORE's payload: one packed activity mask per shell.
        masks = {
            0: np.array([True, False, True]),
            1: np.zeros(0, dtype=bool),
            2: np.ones(5, dtype=bool),
        }
        meta, arrays = wire.mask_payload(masks)
        kind, meta, arrays = decode_frame(encode_frame(FrameKind.RESTORE, meta, arrays))
        assert kind is FrameKind.RESTORE
        (received,) = wire.decode_masks(meta, arrays)
        assert list(received) == [0, 1, 2]
        for shell, mask in masks.items():
            _assert_bytes_identical(mask, received[shell])


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
    "wide-mask": _array(3, lambda packed: packed.astype("<u2")),
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
    return worker.epoch, manager.counters_snapshot(), _machines(manager)


class TestRecordFrames:
    """A malformed record is a WireError and changes no manager."""

    def test_a_record_applies_and_reports_its_dirty_reconciles(self):
        worker = _record_worker()
        meta, arrays = _record_payload()
        ack = worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 5.0}, arrays)
        # 5.0 flipped out of the box: the flip pass suspends it, and the ack
        # reports it.  4.0 did not flip but was rebooted (dirty): the dirty
        # pass reconciles it against its mask, which keeps it running, so
        # there is nothing to report; the ground station is not a satellite
        # and is skipped.
        assert ack == {"transitions": {0: {"5.0.celestial": "suspended"}}}
        machines = worker.by_position[0].host.machines
        assert machines["5.0.celestial"].state.value == "suspended"
        assert machines["4.0.celestial"].state.value == "running"
        assert worker.epoch == 9 and worker.by_position[0].applied_diffs == 1
        # Rebooted again and then outside the box without a flip: the dirty
        # pass suspends it, and the ack reports that.
        batch = wire.ControlBatch()
        batch.append(wire.ControlOp.REBOOT, 0, MachineId(0, 4, "4.0.celestial"), 6.0)
        worker._dispatch(FrameKind.CONTROL, *batch.payload())
        meta, arrays = wire.slice_payload(
            _record({0: [True] * 4 + [False] * 9, 1: [True, False] * 4}, epoch=10)
        )
        ack = worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 7.0}, arrays)
        assert ack == {"transitions": {0: {"4.0.celestial": "suspended"}}}

    @pytest.mark.parametrize("name", sorted(_FORGED_RECORD))
    def test_malformed_records_are_wire_errors_and_change_nothing(self, name):
        worker = _record_worker()
        meta, arrays = _record_payload()
        _FORGED_RECORD[name](meta, arrays)
        before = _worker_census(worker)
        with pytest.raises(WireError):
            worker._dispatch(FrameKind.APPLY_EPOCH, {**meta, "now_s": 5.0}, arrays)
        assert _worker_census(worker) == before
