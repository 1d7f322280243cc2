"""Versioned wire protocol for coordinator ↔ worker traffic.

Frame layout
------------

Every message is one self-contained frame::

    +---------+---------+------+-------+----------+-------------+
    | magic   | version | kind | flags | meta_len | array_count |   header
    | 4 bytes |   u16   |  u8  |  u8   |   u32    |     u32     |
    +---------+---------+------+-------+----------+-------------+
    | metadata blob (meta_len bytes)                            |
    +-----------------------------------------------------------+
    | raw array buffers, concatenated in descriptor order       |
    +-----------------------------------------------------------+

The metadata blob holds the small, scalar part of the payload (epoch
numbers, machine names, counters) plus one *descriptor* per NumPy array:
``(dtype_str, shape)``.  The arrays themselves travel as their raw memory
buffers appended after the blob, so a per-shell activity mask or an epoch
update's link arrays cost one ``memcpy`` each way and round-trip
byte-identically (dtype, shape and payload bits).

The ``flags`` byte is reserved and must be zero.  The header is parsed with
:mod:`struct`; version and flags are checked *before* the metadata blob is
deserialised, so a frame from a different protocol generation is rejected
with :class:`WireVersionError` instead of being misinterpreted.  Every array
descriptor is validated before its buffer is sliced: the dtype string must
name a fixed-size bool / integer / unsigned / float dtype (the only kinds an
encoder ships) and every shape dimension must be a non-negative integer, so
a corrupt or forged descriptor (e.g. a negative dimension that would make
``nbytes`` negative and defeat the bounds check) raises :class:`WireError`
instead of producing a nonsense array view.

The metadata blob is a *security boundary*: frames arrive from network
peers that have not authenticated yet (the worker listener's ``HELLO``,
the streaming gateway's ``SUBSCRIBE``), so decoding it must never be able to
execute code.  Its one codec (:func:`encode_blob` / :func:`decode_blob`) is
a closed, self-describing binary encoding of
``None``/bool/int/float/str/bytes/list/tuple/dict — no object construction,
no imports, no callables.  Dataclass payloads (the worker blueprint in
``SPEC``, the compute/kernel/rootfs images of a ``CONTROL`` frame) travel as
their ``dataclasses.asdict`` form and are rebuilt by the receiver; anything
else is a :class:`TypeError` at the sender.

Frame kinds
-----------

=================  ============  =============================================
kind               direction     payload
=================  ============  =============================================
``ACK``/``ERROR``  worker → sup  checkpoint (counters, dirty sets, RNG states,
                                 epoch, control frames applied), the machines
                                 a record suspended or resumed / a traceback
``CONTROL``        sup → worker  one worker's lifecycle operations in program
                                 order, journalled (see below)
``APPLY_EPOCH``    sup → worker  one :class:`EpochRecord`, the same for every
                                 worker (see below)
``SAMPLE_USAGE``   sup → worker  ``now_s`` and the sample's flags
``RESTORE``        sup → worker  the checkpoint of every manager the worker
                                 owns and its epoch's activity masks
``PING`` …         both          heartbeat, shutdown, test hooks, handshake
``KEYFRAME`` …     gateway       the serving tier (:mod:`repro.serve.codec`)
=================  ============  =============================================

A ``CONTROL`` frame is six equally long columns, one row per lifecycle
operation (:class:`ControlOp`), run by the worker in row order:

===========  =========  ======================================================
array        dtype      meaning
===========  =========  ======================================================
op           ``u1``     :class:`ControlOp` code
position     ``<i4``    host position of the manager the row acts on
shell        ``<i4``    machine shell (``-1``: ground station; unused by
                        ``BOOT_CREATED``)
identifier   ``<i4``    in-shell identifier / ground-station index
image        ``<i4``    ``CREATE``: index into the meta's ``images`` table;
                        ``-1`` otherwise
value        ``<f8``    ``now_s`` (``BOOT``, ``BOOT_CREATED``, ``STOP``,
                        ``REBOOT``), the quota (``CPU_QUOTA``) or the busy
                        fraction (``BUSY``); ``0.0`` for ``CREATE``
===========  =========  ======================================================

The meta holds ``images`` — the distinct ``{"compute", "kernel", "rootfs"}``
dicts the frame's ``CREATE`` rows use — and ``names``, the ground-station
names of the rows with shell ``-1``, in row order; satellite names are
rebuilt with :func:`~repro.core.constellation.satellite_name`.  A frame
whose columns differ in length or dtype, whose op code or image index is out
of range or whose name count does not match is a :class:`WireError` and
runs no row.  Version 7 replaced the seven one-operation control frame
kinds, one frame per lifecycle call, by this one frame per flush.

Epoch records
-------------

An ``APPLY_EPOCH`` frame is one
:class:`~repro.core.machine_manager.EpochRecord`, encoded once per epoch by
:func:`slice_payload` and sent to every worker alike.  The meta holds
``epoch``, ``first`` and the record's ``shells`` with their ``sizes`` (the
satellite count of each); the arrays are two packed masks per shell, all the
activity masks first, then all the flip masks, each in ``shells`` order:

===========  =========  ======================================================
array        dtype      meaning
===========  =========  ======================================================
active[i]    ``u1``     activity of shell ``shells[i]``: ``np.packbits`` of
                        its mask, ⌈``sizes[i]``/8⌉ bytes, padding bits zero
flipped[i]   ``u1``     the satellites of that shell whose activity changed
                        since the previous epoch, packed alike
===========  =========  ======================================================

On Starlink's 4,409 satellites a mask is 552 bytes.  :func:`decode_record`
checks the whole frame before a manager sees it: a shell list that does not
match the arrays, an array that is not 1-D ``u1``, a mask of the wrong
length for its shell or a set padding bit is a :class:`WireError`.  A
``RESTORE`` frame carries one mask per shell in the same layout
(:func:`mask_payload` / :func:`decode_masks`).  Nothing else crosses the
seam per epoch: the network half of an update is applied on the
coordinator's side (``VirtualNetwork.apply_diff``,
``ConstellationDatabase.pair_rule``).  Version 8 replaced the per-host slice
frame and the first epoch's full-activity frame by this one record.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import struct
from typing import Any, Optional

import numpy as np

from repro.core.constellation import MachineId, satellite_name
from repro.core.machine_manager import EpochRecord

#: Frame magic: "CeLestial Wire".
WIRE_MAGIC = b"CLW1"
#: Protocol generation.  Bump on any incompatible frame/codec change.
#: 5: the serving tier's KEYFRAME / DIFF payloads name links by position in
#: the canonical link order and ship delays as grid steps (``serve/codec.py``).
#: 6: ``SUBSCRIBE_ACK`` is ``client`` + ``epoch`` and nothing else, a SUBSCRIBE
#: carrying ``scope`` is refused, a DIFF has no ``skip`` marker form.
#: 7: one array-coded ``CONTROL`` frame per flush carries every lifecycle
#: operation; the seven per-operation control frame kinds are gone.
#: 8: one ``APPLY_EPOCH`` record per epoch, the same for every worker,
#: replaces the per-host slice frames and the first epoch's full-activity
#: frame; ``RESTORE`` is one frame per worker.
WIRE_VERSION = 8

#: ``dtype.kind`` of the arrays a frame may carry: bool, signed, unsigned,
#: float.  No encoder ships anything else, so nothing else is decoded.
_ARRAY_KINDS = "biuf"

_HEADER = struct.Struct("<4sHBBII")


class WireError(ValueError):
    """Raised when a frame cannot be decoded."""


class WireVersionError(WireError):
    """Raised when a frame was produced by an incompatible protocol version."""


# -- safe metadata-blob codec -------------------------------------------------
#
# A tiny tag-length-value encoding over a closed type set.  It can only
# ever *construct data* — decoding allocates containers and
# scalars, never looks up classes or calls anything — so it is safe to run
# on bytes from an unauthenticated network peer.

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Maximum container nesting in a metadata blob.  Deep enough for every
#: real payload (an RNG checkpoint in an ack nests 6 levels), shallow enough
#: that a forged blob cannot drive the recursive decoder into a RecursionError.
_BLOB_MAX_DEPTH = 32


def encode_blob(obj: Any) -> bytes:
    """Encode one metadata object with the safe blob codec.

    Supports ``None``, bool, int (arbitrary precision), float, str, bytes,
    list, tuple and dict (NumPy scalars are coerced to their Python
    equivalents).  Raises :class:`TypeError` for anything else.
    """
    out: list[bytes] = []
    _encode_obj(obj, out, 0)
    return b"".join(out)


def _encode_obj(obj: Any, out: list[bytes], depth: int) -> None:
    if depth > _BLOB_MAX_DEPTH:
        raise TypeError("metadata blob nests too deeply for the safe codec")
    if obj is None:
        out.append(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        out.append(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        value = int(obj)
        if -(1 << 63) <= value < (1 << 63):
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            # Arbitrary-precision escape hatch: RNG-state checkpoints carry
            # 128-bit PCG64 state integers through acknowledgement metas.
            magnitude = abs(value)
            raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "little")
            out.append(b"I" + (b"\x01" if value < 0 else b"\x00"))
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f")
        out.append(_F64.pack(float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8", "surrogatepass")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(b"b")
        out.append(_U32.pack(len(obj)))
        out.append(bytes(obj))
    elif isinstance(obj, (list, tuple)):
        out.append(b"l" if isinstance(obj, list) else b"t")
        out.append(_U32.pack(len(obj)))
        for item in obj:
            _encode_obj(item, out, depth + 1)
    elif isinstance(obj, dict):
        out.append(b"d")
        out.append(_U32.pack(len(obj)))
        for key, value in obj.items():
            _encode_obj(key, out, depth + 1)
            _encode_obj(value, out, depth + 1)
    else:
        raise TypeError(
            f"{type(obj).__name__} cannot travel in a safe metadata blob"
        )


def decode_blob(data: bytes) -> Any:
    """Decode one safe-codec metadata blob; :class:`WireError` on corruption."""
    obj, offset = _decode_obj(data, 0, 0)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes in metadata blob")
    return obj


def _blob_slice(data: bytes, offset: int, count: int) -> bytes:
    if len(data) - offset < count:
        raise WireError("metadata blob truncated")
    return data[offset : offset + count]


def _decode_obj(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > _BLOB_MAX_DEPTH:
        raise WireError("metadata blob nests too deeply")
    tag = _blob_slice(data, offset, 1)
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        (value,) = _I64.unpack(_blob_slice(data, offset, 8))
        return value, offset + 8
    if tag == b"I":
        sign = _blob_slice(data, offset, 1)
        (length,) = _U32.unpack(_blob_slice(data, offset + 1, 4))
        raw = _blob_slice(data, offset + 5, length)
        value = int.from_bytes(raw, "little")
        return (-value if sign == b"\x01" else value), offset + 5 + length
    if tag == b"f":
        (value,) = _F64.unpack(_blob_slice(data, offset, 8))
        return value, offset + 8
    if tag in (b"s", b"b"):
        (length,) = _U32.unpack(_blob_slice(data, offset, 4))
        raw = _blob_slice(data, offset + 4, length)
        offset += 4 + length
        if tag == b"b":
            return raw, offset
        try:
            return raw.decode("utf-8", "surrogatepass"), offset
        except UnicodeDecodeError as error:
            raise WireError(f"undecodable string in metadata blob: {error}") from error
    if tag in (b"l", b"t"):
        (count,) = _U32.unpack(_blob_slice(data, offset, 4))
        offset += 4
        if count > len(data) - offset:  # every element costs >= 1 byte
            raise WireError("metadata blob truncated inside a sequence")
        items = []
        for _ in range(count):
            item, offset = _decode_obj(data, offset, depth + 1)
            items.append(item)
        return (items if tag == b"l" else tuple(items)), offset
    if tag == b"d":
        (count,) = _U32.unpack(_blob_slice(data, offset, 4))
        offset += 4
        if 2 * count > len(data) - offset:
            raise WireError("metadata blob truncated inside a mapping")
        mapping = {}
        for _ in range(count):
            key, offset = _decode_obj(data, offset, depth + 1)
            value, offset = _decode_obj(data, offset, depth + 1)
            try:
                mapping[key] = value
            except TypeError as error:
                raise WireError(
                    f"unhashable mapping key in metadata blob: {error}"
                ) from error
        return mapping, offset
    raise WireError(f"unknown metadata blob tag {tag!r}")


class FrameKind(enum.IntEnum):
    """Message types of the coordinator ↔ worker protocol."""

    # worker → coordinator
    ACK = 0
    ERROR = 1
    # control plane (durable: replayed from the ledger after a crash)
    CONTROL = 10
    # data plane (recovered from the checkpoint epoch, never journalled)
    APPLY_EPOCH = 20
    SAMPLE_USAGE = 22
    RESTORE = 23
    # lifecycle
    PING = 30
    SHUTDOWN = 31
    CRASH = 32  # test hook: hard-exit without cleanup
    WEDGE = 33  # test hook: hang forever while staying alive
    # transport handshake (TCP): worker → supervisor greeting carrying the
    # worker index (the frame header itself carries WIRE_VERSION), answered
    # by the supervisor with the worker's blueprint.  When the listener is
    # configured with a shared secret the greeting is interposed by a
    # CHALLENGE (nonce) → AUTH (HMAC response) exchange before SPEC is sent.
    HELLO = 40
    SPEC = 41
    CHALLENGE = 42
    AUTH = 43
    # serving tier (repro.serve): one epoch's state distribution unit — a
    # full-state KEYFRAME or the DIFF against the previous epoch — plus the
    # subscription/query handshake of the streaming gateway.
    KEYFRAME = 50
    DIFF = 51
    SUBSCRIBE = 52
    SUBSCRIBE_ACK = 53
    QUERY = 54
    RESULT = 55


def encode_frame(
    kind: FrameKind,
    meta: Optional[dict[str, Any]] = None,
    arrays: tuple[np.ndarray, ...] = (),
) -> bytes:
    """Serialise one frame: header + metadata blob + raw array buffers.

    Raises :class:`TypeError` — before any byte is produced — for metadata
    outside the safe blob codec's closed type set and for arrays that are
    not bool / integer / unsigned / float.
    """
    descriptors = []
    buffers = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in _ARRAY_KINDS:
            raise TypeError(
                f"{array.dtype} arrays cannot travel as raw frame buffers"
            )
        descriptors.append((array.dtype.str, array.shape))
        buffers.append(array.tobytes())
    blob = encode_blob(
        {"meta": meta if meta is not None else {}, "arrays": descriptors}
    )
    header = _HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, int(kind), 0, len(blob), len(descriptors)
    )
    return b"".join([header, blob, *buffers])


def decode_frame(
    data: bytes,
) -> tuple[FrameKind, dict[str, Any], list[np.ndarray]]:
    """Parse one frame back into ``(kind, meta, arrays)``.

    The returned arrays are zero-copy read-only views over ``data``; copy
    them before mutating.  Raises :class:`WireError` on malformed frames and
    :class:`WireVersionError` on a protocol-version mismatch (checked before
    anything else is deserialised).
    """
    if len(data) < _HEADER.size:
        raise WireError(f"frame truncated: {len(data)} bytes < header size")
    magic, version, kind, flags, meta_len, array_count = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"wire protocol version {version} is not supported "
            f"(this codec speaks version {WIRE_VERSION})"
        )
    if flags:
        raise WireError(f"reserved header flags {flags:#04x} are set")
    try:
        frame_kind = FrameKind(kind)
    except ValueError as error:
        raise WireError(f"unknown frame kind {kind}") from error
    offset = _HEADER.size
    if len(data) < offset + meta_len:
        raise WireError("frame truncated inside the metadata blob")
    try:
        blob = decode_blob(data[offset : offset + meta_len])
        meta, descriptors = blob["meta"], blob["arrays"]
    except Exception as error:
        raise WireError(f"undecodable metadata blob: {error}") from error
    if not isinstance(meta, dict):
        raise WireError(f"frame metadata is {type(meta).__name__}, not a dict")
    if not isinstance(descriptors, (list, tuple)):
        raise WireError(
            f"descriptor table is {type(descriptors).__name__}, not a sequence"
        )
    if len(descriptors) != array_count:
        raise WireError(
            f"descriptor count {len(descriptors)} != header array count {array_count}"
        )
    offset += meta_len
    view = memoryview(data)
    arrays = []
    for descriptor in descriptors:
        dtype, shape = _validated_descriptor(descriptor)
        # Python ints: arbitrary precision, so a forged dimension can never
        # overflow the byte count into passing the bounds check below.
        nbytes = dtype.itemsize * math.prod(shape)
        if len(data) < offset + nbytes:
            raise WireError("frame truncated inside an array buffer")
        arrays.append(
            np.frombuffer(view[offset : offset + nbytes], dtype=dtype).reshape(shape)
        )
        offset += nbytes
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after the last array")
    return frame_kind, meta, arrays


def _validated_descriptor(descriptor: Any) -> tuple[np.dtype, tuple[int, ...]]:
    """Validate one ``(dtype_str, shape)`` array descriptor.

    Descriptors arrive in the frame's metadata blob, i.e. from outside this
    process; they must never be able to slice a nonsense array view out of
    the frame (negative dimensions producing a negative ``nbytes``, object
    dtypes materialising arbitrary pointers, dimension counts beyond what
    NumPy supports).  Anything suspicious is a :class:`WireError`.
    """
    if not isinstance(descriptor, (tuple, list)) or len(descriptor) != 2:
        raise WireError(f"malformed array descriptor {descriptor!r}")
    dtype_str, shape = descriptor
    if not isinstance(dtype_str, str):
        raise WireError(f"array dtype descriptor {dtype_str!r} is not a string")
    try:
        dtype = np.dtype(dtype_str)
    except Exception as error:
        raise WireError(f"invalid array dtype {dtype_str!r}: {error}") from error
    if dtype.hasobject:
        raise WireError(f"object dtype {dtype_str!r} cannot travel as a raw buffer")
    if dtype.itemsize == 0:
        raise WireError(f"zero-itemsize dtype {dtype_str!r} in array descriptor")
    if dtype.kind not in _ARRAY_KINDS:
        raise WireError(
            f"array dtype {dtype_str!r} is not a bool/integer/unsigned/float dtype"
        )
    if not isinstance(shape, (tuple, list)) or len(shape) > 32:
        raise WireError(f"malformed array shape {shape!r}")
    dims = []
    for dim in shape:
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 0:
            raise WireError(f"invalid array shape dimension {dim!r} in {shape!r}")
        dims.append(int(dim))
    return dtype, tuple(dims)


# -- epoch records -------------------------------------------------------------


def mask_payload(
    masks: dict[int, np.ndarray],
) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
    """The ``shells`` / ``sizes`` meta and the packed arrays of per-shell masks."""
    shells = sorted(masks)
    meta = {"shells": shells, "sizes": [int(masks[shell].size) for shell in shells]}
    return meta, tuple(np.packbits(masks[shell]) for shell in shells)


def decode_masks(
    meta: dict[str, Any], arrays: list[np.ndarray], count: int = 1
) -> list[dict[int, np.ndarray]]:
    """``count`` groups of per-shell masks from :func:`mask_payload` layouts.

    Checks every array before unpacking any, so a malformed frame is a
    :class:`WireError` and nothing of it is used.
    """
    shells, sizes = meta.get("shells"), meta.get("sizes")
    if not isinstance(shells, list) or not isinstance(sizes, list):
        raise WireError("a mask frame's meta needs a shells and a sizes list")
    if len(shells) != len(sizes) or len(arrays) != count * len(shells):
        raise WireError(
            f"{len(shells)} shells and {len(sizes)} sizes do not match "
            f"{len(arrays)} arrays ({count} per shell)"
        )
    if not all(_is_int(value) for value in shells + sizes) or min(sizes, default=0) < 0:
        raise WireError("mask shells and sizes must be non-negative integers")
    if len(set(shells)) != len(shells):
        raise WireError(f"shell listed twice in {shells}")
    for index, packed in enumerate(arrays):
        size = sizes[index % len(shells)]
        if packed.ndim != 1 or packed.dtype != np.uint8:
            raise WireError(
                f"mask of dtype {packed.dtype.str} and shape {packed.shape}, "
                f"expected 1-D |u1"
            )
        if packed.size != -(-size // 8):
            raise WireError(
                f"a {packed.size}-byte mask for a shell of {size} satellites"
            )
        if size % 8 and int(packed[-1]) & (0xFF >> (size % 8)):
            raise WireError("padding bits set after the last satellite of a mask")
    groups = []
    for group in range(count):
        packed = arrays[group * len(shells) : (group + 1) * len(shells)]
        groups.append(
            {
                shell: np.unpackbits(mask, count=size).view(bool)
                for shell, size, mask in zip(shells, sizes, packed)
            }
        )
    return groups


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def slice_payload(record: EpochRecord) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
    """The ``(meta, arrays)`` payload of one ``APPLY_EPOCH`` frame."""
    meta, active = mask_payload(record.active)
    _, flipped = mask_payload(record.flipped)
    return {**meta, "epoch": record.epoch, "first": record.first}, active + flipped


def decode_record(meta: dict[str, Any], arrays: list[np.ndarray]) -> EpochRecord:
    """Rebuild the :class:`EpochRecord` of a decoded ``APPLY_EPOCH`` frame."""
    epoch, first = meta.get("epoch"), meta.get("first")
    if not _is_int(epoch) or epoch < 0 or not isinstance(first, bool):
        raise WireError(f"malformed record epoch {epoch!r} / first {first!r}")
    active, flipped = decode_masks(meta, arrays, 2)
    return EpochRecord(epoch, active, flipped, first)


# -- CONTROL codec -------------------------------------------------------------


class ControlOp(enum.IntEnum):
    """The lifecycle operation of one ``CONTROL`` row (a manager method)."""

    CREATE = 0  # create_machine from an ``images`` table entry
    BOOT = 1  # boot(machine, now_s)
    BOOT_CREATED = 2  # boot_all(now_s): every created, unbooted machine
    STOP = 3  # stop_machine(machine, now_s)
    REBOOT = 4  # reboot_machine(machine, now_s)
    CPU_QUOTA = 5  # set_cpu_quota(machine, quota)
    BUSY = 6  # set_busy_fraction(machine, fraction)


_CONTROL_OPS = tuple(ControlOp)
_TIMED_OPS = frozenset(
    (ControlOp.BOOT, ControlOp.BOOT_CREATED, ControlOp.STOP, ControlOp.REBOOT)
)
#: Column dtypes of a ``CONTROL`` frame: op, position, shell, identifier,
#: image, value.
_CONTROL_DTYPES = tuple(
    np.dtype(dtype) for dtype in ("u1", "<i4", "<i4", "<i4", "<i4", "<f8")
)


class ControlBatch:
    """One worker's lifecycle operations not yet sent, in program order.

    The encoder half of a ``CONTROL`` frame: every :meth:`append` /
    :meth:`create` adds one row to the columns, :meth:`payload` is the
    frame's ``(meta, arrays)`` and :meth:`clear` starts the next batch.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every row (after the batch was flushed)."""
        self._columns: tuple[list, ...] = ([], [], [], [], [], [])
        self._names: list[str] = []
        self._images: dict[tuple, int] = {}
        #: Latest ``now_s`` any row carries; ``None`` without a timed row.
        self.latest_s: Optional[float] = None

    def __len__(self) -> int:
        return len(self._columns[0])

    def append(
        self,
        op: ControlOp,
        position: int,
        machine_id: Optional[MachineId] = None,
        value: float = 0.0,
        image: int = -1,
    ) -> None:
        """Add one row; ``machine_id`` is ``None`` only for ``BOOT_CREATED``."""
        ops, positions, shells, identifiers, images, values = self._columns
        ops.append(op)
        positions.append(position)
        if machine_id is None:
            shells.append(0)
            identifiers.append(0)
        else:
            shells.append(machine_id.shell)
            identifiers.append(machine_id.identifier)
            if machine_id.is_ground_station:
                self._names.append(machine_id.name)
        images.append(image)
        values.append(value)
        if op in _TIMED_OPS and (self.latest_s is None or value > self.latest_s):
            self.latest_s = value

    def create(self, position: int, machine_id: MachineId, compute, kernel, rootfs) -> None:
        """Add a ``CREATE`` row; equal images share one ``images`` entry."""
        image = self._images.setdefault((compute, kernel, rootfs), len(self._images))
        self.append(ControlOp.CREATE, position, machine_id, image=image)

    def payload(self) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
        """The ``(meta, arrays)`` of this batch's ``CONTROL`` frame."""
        images = [
            {
                "compute": dataclasses.asdict(compute),
                "kernel": None if kernel is None else dataclasses.asdict(kernel),
                "rootfs": None if rootfs is None else dataclasses.asdict(rootfs),
            }
            for compute, kernel, rootfs in self._images
        ]
        arrays = tuple(
            np.array(column, dtype=dtype)
            for column, dtype in zip(self._columns, _CONTROL_DTYPES)
        )
        return {"images": images, "names": list(self._names)}, arrays


#: One decoded ``CONTROL`` row: op, position, machine (``None`` for
#: ``BOOT_CREATED``), image index, value.
ControlRow = tuple[ControlOp, int, Optional[MachineId], int, float]


def decode_control(
    meta: dict[str, Any], arrays: list[np.ndarray]
) -> tuple[list[ControlRow], list[Any]]:
    """The rows and the ``images`` table of a decoded ``CONTROL`` frame.

    Checks the whole frame before returning a row, so a malformed frame is a
    :class:`WireError` and nothing of it runs.  Whether a row's position is
    owned, and whether its machine exists, is the worker's to check per row.
    """
    if len(arrays) != len(_CONTROL_DTYPES):
        raise WireError(f"a CONTROL frame has 6 columns, not {len(arrays)}")
    for array, dtype in zip(arrays, _CONTROL_DTYPES):
        if array.ndim != 1 or array.dtype != dtype:
            raise WireError(
                f"CONTROL column of dtype {array.dtype.str} and shape "
                f"{array.shape}, expected 1-D {dtype.str}"
            )
    ops, positions, shells, identifiers, images, values = arrays
    if len({len(array) for array in arrays}) != 1:
        raise WireError(
            f"CONTROL column lengths differ: {[len(array) for array in arrays]}"
        )
    table, names = meta.get("images"), meta.get("names")
    if not isinstance(table, list) or not isinstance(names, list):
        raise WireError("a CONTROL frame's meta needs an images and a names list")
    if not all(isinstance(name, str) for name in names):
        raise WireError("CONTROL ground-station names must be strings")
    if len(ops) and int(ops.max()) >= len(_CONTROL_OPS):
        raise WireError(f"unknown CONTROL op code {int(ops.max())}")
    creates = images[ops == ControlOp.CREATE]
    if creates.size and (int(creates.min()) < 0 or int(creates.max()) >= len(table)):
        raise WireError(
            f"CONTROL image index out of range for a table of {len(table)}"
        )
    named = (ops != ControlOp.BOOT_CREATED) & (shells == MachineId.GROUND_SHELL)
    if int(np.count_nonzero(named)) != len(names):
        raise WireError(
            f"{int(np.count_nonzero(named))} CONTROL rows name a ground station "
            f"but {len(names)} names were sent"
        )
    ground_names = iter(names)
    rows: list[ControlRow] = []
    for op, position, shell, identifier, image, value in zip(
        ops.tolist(),
        positions.tolist(),
        shells.tolist(),
        identifiers.tolist(),
        images.tolist(),
        values.tolist(),
    ):
        op = _CONTROL_OPS[op]
        if op is ControlOp.BOOT_CREATED:
            machine_id = None
        elif shell == MachineId.GROUND_SHELL:
            machine_id = MachineId(shell, identifier, next(ground_names))
        else:
            machine_id = MachineId(shell, identifier, satellite_name(shell, identifier))
        rows.append((op, position, machine_id, image, value))
    return rows, table
