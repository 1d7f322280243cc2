"""Versioned wire protocol for coordinator ↔ worker traffic.

Frame layout
------------

Every message is one self-contained frame::

    +---------+---------+------+-------+----------+-------------+
    | magic   | version | kind | flags | meta_len | array_count |   header
    | 4 bytes |   u16   |  u8  |  u8   |   u32    |     u32     |
    +---------+---------+------+-------+----------+-------------+
    | metadata: one compact UTF-8 JSON object (meta_len bytes)  |
    |   {"meta": {...}, "arrays": [[dtype_str, shape], ...]}    |
    +-----------------------------------------------------------+
    | raw array buffers, concatenated in descriptor order       |
    +-----------------------------------------------------------+

The metadata holds the small, scalar part of the payload (epoch numbers,
machine names, counters) plus one *descriptor* per NumPy array:
``[dtype_str, shape]``.  The arrays themselves travel as their raw memory
buffers appended after it, so a per-shell activity mask or an epoch
update's link arrays cost one ``memcpy`` each way and round-trip
byte-identically (dtype, shape and payload bits).

The ``flags`` byte is reserved and must be zero.  The header is parsed with
:mod:`struct`; version and flags are checked *before* the metadata is
parsed, so a frame from a different protocol generation is rejected with
:class:`WireVersionError` instead of being misinterpreted.  Every array
descriptor is validated before its buffer is sliced: the dtype string must
name a fixed-size bool / integer / unsigned / float dtype (the only kinds an
encoder ships) and every shape dimension must be a non-negative integer, so
a corrupt or forged descriptor (e.g. a negative dimension that would make
``nbytes`` negative and defeat the bounds check) raises :class:`WireError`
instead of producing a nonsense array view.

The metadata is a *security boundary*: frames arrive from network peers
that have not authenticated yet (the worker listener's ``HELLO``, the
streaming gateway's ``SUBSCRIBE``), so parsing it must never be able to
execute code.  It is stdlib JSON, which can only build ``dict``, ``list``,
``str``, ``int``, ``float``, ``bool`` and ``None`` — no object
construction, no imports, no callables.  The parser refuses the
non-standard ``NaN`` / ``Infinity`` tokens and any number that overflows to
a non-finite float (the encoder writes neither: ``allow_nan=False``), and
integers outside signed 64 bits; invalid UTF-8, malformed or too deeply
nested JSON and bytes after the object are a :class:`WireError` too.
Per-host answers travel as ``[position, value]`` pairs, because a JSON
object's keys are strings; dataclass payloads (the compute tables of a
``CONTROL`` frame) travel as their ``dataclasses.asdict`` form and are
rebuilt by the receiver.  Anything that is not JSON data is a
:class:`TypeError` at the sender.

Frame kinds
-----------

=================  ============  =============================================
kind               direction     payload
=================  ============  =============================================
``ACK``/``ERROR``  worker → sup  ``counters``: per host ``[position,
                                 checkpoint]`` (row count, counters, dirty
                                 set, state checksum); ``sample_crc``: per
                                 host ``[position, CRC-32]`` of its sample
                                 (:func:`sample_checksum`) / a traceback
``SPEC``           sup → worker  answers ``HELLO``: every host the worker owns
                                 as the driver's replica holds it — host
                                 blueprint, key root, checkpoint and machine
                                 table (see below)
``CONTROL``        sup → worker  one worker's lifecycle operations in program
                                 order (see below)
``APPLY_EPOCH``    sup → worker  one :class:`EpochRecord`, the same for every
                                 worker (see below)
``SAMPLE_USAGE``   sup → worker  ``now_s``, the sample's flags and per host
                                 position the sample's index
``EPOCH_AT``       driver →      ``time_s`` of the epoch the driver takes:
                   child         the child's guessed ``DIFF`` if it is for
                                 that time, else the child computes that
                                 time's and sends it too
                                 (:mod:`repro.dist.calculation`)
``PING`` …         both          heartbeat, shutdown, handshake
``KEYFRAME`` …     gateway       the serving tier: a full state with its delay
                   (a ``DIFF``:  steps and curves, or a DIFF whose delays
                   also child    are third-difference residuals
                   → driver)     (:mod:`repro.serve.codec`); the calculation
                                 child sends the driver each epoch's ``DIFF``
=================  ============  =============================================

A ``SPEC`` frame's meta holds ``hosts``, one entry per host the worker
owns: its ``position``, the :class:`~repro.hosts.Host` blueprint (``index``,
``cpu_cores``, ``memory_mib``, ``allow_memory_overcommit``), the manager's
``key_root``, its ``checkpoint`` (:meth:`MachineManager.counters_snapshot`:
row count, the three counters, the dirty set and the state checksum) and
``names``, the ground-station names of its table in row order.  The arrays
are each host's table, twelve columns per host, in
:attr:`MachineTable.COLUMNS` order after the names:

===============  =========  ==================================================
array            dtype      meaning
===============  =========  ==================================================
shells           ``<i4``    machine shell (``-1``: ground station)
identifiers      ``<i4``    in-shell identifier / ground-station index
vcpus            ``<i4``    vCPU count
memory_mib       ``<i8``    reserved memory
quota            ``<f8``    CPU quota fraction
busy             ``<f8``    busy share of the vCPUs
seeds            ``<i8``    boot-time generator seed
states           ``i1``     :class:`~repro.microvm.MachineState` code, never
                            ``BOOTING`` (0)
boot_counts      ``<i4``    boots so far, at least one
boot_started_s   ``<f8``    start of the latest boot
held_until_s     ``<f8``    finish of an earlier boot still running then
_finished_s      ``<f8``    the latest boot's finish once drawn, NaN before
===============  =========  ==================================================

:func:`decode_spec` builds no manager before the whole frame checked out:
a column of the wrong dtype or length, a state code out of range or
``BOOTING``, a boot count below one, a name count that does not match the
ground stations, a repeated name, a bad host blueprint or a table that does
not reproduce its checkpoint is a :class:`WireError`.  At pool start the
tables are empty; after a crash they are the replica's, so a worker is
started and restarted alike.

A ``CONTROL`` frame is two tables of equally long columns: one row per
lifecycle operation (:class:`ControlOp`), run by the worker in row order,
and one entry per machine the rows name, the machines of each row in turn:

===========  =========  ======================================================
array        dtype      meaning
===========  =========  ======================================================
op           ``u1``     :class:`ControlOp` code
position     ``<i4``    host position of the manager the row acts on
count        ``<i4``    machines the row names: a ``CREATE`` row its batch
                        (at least one), any other row exactly one
value        ``<f8``    ``CREATE``: the batch's boot time, finite;
                        ``now_s`` (``STOP``, ``REBOOT``), the quota
                        (``CPU_QUOTA``) or the busy fraction (``BUSY``)
shell        ``<i4``    machine shell (``-1``: ground station)
identifier   ``<i4``    in-shell identifier / ground-station index
image        ``<i4``    a ``CREATE`` row's machine: index into the meta's
                        ``images`` table; ``-1`` otherwise
===========  =========  ======================================================

The meta holds ``images`` — the distinct compute tables
(``ComputeParams`` as a dict) the frame's ``CREATE`` rows use — and
``names``, the ground-station names of the machine entries with shell
``-1``, in order; satellite names are rebuilt with
:func:`~repro.core.constellation.satellite_name`.  A frame whose columns
differ in length or dtype, whose op code, count or image index is out of
range, whose counts do not add up to the machine entries, whose ``CREATE``
boot time is not finite, whose name count does not match or whose images
are not compute tables is a :class:`WireError` and runs no row.

Epoch records
-------------

An ``APPLY_EPOCH`` frame is one
:class:`~repro.core.machine_manager.EpochRecord`, encoded once per epoch by
:func:`slice_payload` and sent to every worker alike.  The meta holds
``epoch``, ``first`` and the record's ``shells`` with their ``sizes`` (the
satellite count of each); the arrays are two satellite sets per shell, all
the active sets first, then all the flip sets, each in ``shells`` order:

===========  ===========  ====================================================
array        dtype        meaning
===========  ===========  ====================================================
active[i]    a set        the satellites of shell ``shells[i]`` inside the
                          bounding box
flips[i]     a set        the satellites of that shell whose activity changed
                          since the previous epoch
===========  ===========  ====================================================

A *set* of places among ``n`` — satellites of a shell here, links of the
canonical order in :mod:`repro.serve.codec` — travels in whichever of two
forms is smaller (:func:`pack_set`): its bits, packed most significant
first (``u1``, ⌈``n``/8⌉ bytes, padding bits zero), or the strictly
ascending positions themselves (``<u2`` when ``n <= 65,536``, else
``<u4``).  The dtype says which.  :func:`unpack_set` is the one decoder: a
set over more than :data:`MAX_SET_PLACES`, a bits array of the wrong
length or with a set padding bit, positions that repeat, descend or reach
``n``, and any other dtype or shape are the caller's error class.  A steady
all-shell Starlink record without a bounding box is 794 bytes, 552 of them
the active sets' bits: a quiet epoch's flip sets are empty position
arrays.  :func:`decode_record` checks the whole frame before a manager
sees it: a shell list that does not match the arrays, or a set that does
not decode, is a :class:`WireError`.  Nothing else crosses the seam per
epoch: the network half of an update is applied on the coordinator's side
(``VirtualNetwork.apply_diff``, ``ConstellationDatabase.pair_rule``).
:data:`WIRE_VERSION`'s comment keeps the protocol's history.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import struct
import zlib
from typing import Any, Optional

import numpy as np

from repro.core.config import ComputeParams
from repro.core.constellation import MachineId, satellite_name
from repro.core.machine_manager import ControlOp, EpochRecord, MachineManager
from repro.hosts import Host, UsageSample
from repro.microvm import MachineBatch, MachineState, MachineTable

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
#: frame; a worker's activity restore is one frame.
#: 9: a ``CONTROL`` row names its machines in a second table, so one
#: ``CREATE`` row is a host's whole batch (with its boot time); the images
#: table holds compute tables only.
#: 10: no RNG state travels: ``SPEC`` names each host's key root, a
#: checkpoint its row count, ``SAMPLE_USAGE`` the sample index; the blob
#: codec's arbitrary-precision integer tag is gone.
#: 11: an ``ACK`` no longer names the machines a record suspended or
#: resumed; a checkpoint carries ``states``, its host's state-column checksum.
#: 12: ``SPEC`` carries each host's machine table, counters and dirty set;
#: the activity-restore frame and the two test-hook kinds are gone, and an
#: ``ACK`` carries no epoch or count of control frames.
#: 13: a ``SAMPLE_USAGE`` acknowledgement carries one CRC-32 per host
#: (``sample_crc``) instead of the sample's fields.
#: 14: a ``DIFF`` may carry its changed delays as ``int8`` residuals against
#: the previous epoch's steps, with an escape array 9; a ``KEYFRAME`` carries
#: the epoch's steps and may carry its bandwidths as indices into a palette
#: (layouts in :mod:`repro.serve.codec`).
#: 15: the metadata is compact JSON instead of the hand-written blob codec;
#: an ``ACK`` carries its per-host answers as ``[position, value]`` pairs and
#: the ``CHALLENGE`` nonce and ``AUTH`` digest travel as hex strings.
#: 16: a ``DIFF``'s link masks travel as packed bits or as ascending
#: positions, whichever is smaller; with residual delays its delay-changed
#: mask is the XOR with the links that have a step.
#: 17: a ``DIFF``'s residuals are third differences against the previous
#: epoch's delay trend (step and curve), packed as ``bits``-bit fields (a new
#: meta key, present with residuals) with escapes down to ``int8``; a
#: ``KEYFRAME`` carries the epoch's curves beside its steps (array 6) and its
#: endpoints at the narrowest signed width.
#: 18: a delay array is ``uint32`` grid counts only (``KEYFRAME`` array 2,
#: ``DIFF`` arrays 4 and 8 without ``bits``); the ``float64`` forms for
#: delays off the grid are gone, because a graph holds its delays as grid
#: counts.
#: 19: a ``DIFF``'s delays are ``bits``-bit residual fields only (meta
#: ``bits`` always present, array 8 never ``uint32`` counts); a
#: ``KEYFRAME``'s bandwidths are palette indices only.
#: 20: a machine is created booted: the ``BOOT`` and ``BOOT_CREATED`` ops and
#: the ``CREATED`` state are gone, so op and state codes renumber.
#: 21: every set travels in the one form of :func:`pack_set`: a record's
#: active and flip sets (flip masks no longer), a ``KEYFRAME``'s activity and
#: a ``DIFF``'s flips, one set per flipping shell instead of ``int64``
#: activated and deactivated ids.
#: 22: ``EPOCH_AT``, the driver's answer to its calculation child's guessed
#: ``DIFF``: the time of the epoch it takes.
WIRE_VERSION = 22

#: ``dtype.kind`` of the arrays a frame may carry: bool, signed, unsigned,
#: float.  No encoder ships anything else, so nothing else is decoded.
_ARRAY_KINDS = "biuf"

_HEADER = struct.Struct("<4sHBBII")


class WireError(ValueError):
    """Raised when a frame cannot be decoded."""


class WireVersionError(WireError):
    """Raised when a frame was produced by an incompatible protocol version."""


# -- metadata parsing hooks -----------------------------------------------------


def _int64(text: str) -> int:
    # The length check comes first: int() of a 5,000-digit string is slow.
    if len(text) > 20 or not -(1 << 63) <= (value := int(text)) < (1 << 63):
        raise ValueError(f"integer {text[:24]} does not fit 64 bits")
    return value


def _finite(text: str) -> float:
    # Also the hook of the NaN / Infinity / -Infinity tokens.
    if not math.isfinite(value := float(text)):
        raise ValueError(f"number {text[:24]} is not finite")
    return value


_META_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_META_DECODER = json.JSONDecoder(parse_int=_int64, parse_float=_finite, parse_constant=_finite)


class FrameKind(enum.IntEnum):
    """Message types of the coordinator ↔ worker protocol."""

    # worker → coordinator
    ACK = 0
    ERROR = 1
    # control plane: lifecycle rows the driver's replica already ran
    CONTROL = 10
    # data plane
    APPLY_EPOCH = 20
    EPOCH_AT = 21
    SAMPLE_USAGE = 22
    # lifecycle
    PING = 30
    SHUTDOWN = 31
    # transport handshake (TCP): worker → driver greeting carrying the
    # worker index (the frame header itself carries WIRE_VERSION), answered
    # by the driver with the worker's hosts.  When the listener is
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
    """Serialise one frame: header + JSON metadata + raw array buffers.

    Raises — before any byte is produced — :class:`TypeError` for metadata
    that is not JSON data and for arrays that are not bool / integer /
    unsigned / float, :class:`ValueError` for a non-finite float.
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
    blob = _META_ENCODER.encode(
        {"meta": meta if meta is not None else {}, "arrays": descriptors}
    ).encode()
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
        raise WireError("frame truncated inside the metadata")
    try:
        blob = _META_DECODER.decode(data[offset : offset + meta_len].decode())
    except (ValueError, RecursionError) as error:  # UnicodeDecodeError is a ValueError
        raise WireError(f"undecodable frame metadata: {error}") from error
    if not isinstance(blob, dict) or blob.keys() != {"meta", "arrays"}:
        raise WireError("frame metadata is not a {meta, arrays} object")
    meta, descriptors = blob["meta"], blob["arrays"]
    if not isinstance(meta, dict):
        raise WireError(f"frame metadata is {type(meta).__name__}, not a dict")
    if not isinstance(descriptors, list):
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
    """Validate one ``[dtype_str, shape]`` array descriptor.

    Descriptors arrive in the frame's metadata, i.e. from outside this
    process; they must never be able to slice a nonsense array view out of
    the frame (negative dimensions producing a negative ``nbytes``, object
    dtypes materialising arbitrary pointers, dimension counts beyond what
    NumPy supports).  Anything suspicious is a :class:`WireError`.
    """
    if not isinstance(descriptor, list) or len(descriptor) != 2:
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
    if not isinstance(shape, list) or len(shape) > 32:
        raise WireError(f"malformed array shape {shape!r}")
    if not all(_is_int(dim) and dim >= 0 for dim in shape):
        raise WireError(f"invalid array shape dimension in {shape!r}")
    return dtype, tuple(shape)


# -- epoch records -------------------------------------------------------------


#: The dtypes of a set's positions, among at most 2**16 places and more.
_POSITIONS = (np.dtype(np.uint16), np.dtype(np.uint32))
#: The most places a set spans: far more satellites or links than any
#: constellation here has, and a 16 MiB mask at most for a decoder to build
#: from a length that a few bytes of positions claim.
MAX_SET_PLACES = 2**24


def _positions_dtype(length: int) -> np.dtype:
    return _POSITIONS[length > 2**16]


def pack_set(positions: np.ndarray, length: int) -> np.ndarray:
    """A set on the wire: ascending ``positions`` among ``length`` places as
    packed bits or as themselves, whichever is smaller (module docstring)."""
    dtype = _positions_dtype(length)
    if positions.size * dtype.itemsize < (length + 7) // 8:
        return positions.astype(dtype)
    bits = np.zeros(length, dtype=bool)
    bits[positions] = True
    return np.packbits(bits)


def unpack_set(packed: np.ndarray, length: int, error: type = WireError) -> np.ndarray:
    """The ascending positions among ``length`` places that a :func:`pack_set`
    array names; anything else is an ``error``."""
    if not 0 <= length <= MAX_SET_PLACES:
        raise error(f"a set over {length} places: at most {MAX_SET_PLACES} travel")
    if packed.dtype == np.uint8:
        if packed.shape != ((length + 7) // 8,):
            raise error(f"a {packed.dtype}{packed.shape} set does not cover {length} places")
        if length % 8 and int(packed[-1]) & (0xFF >> length % 8):
            raise error(f"the pad bits after a set of {length} places are not 0")
        return np.flatnonzero(np.unpackbits(packed, count=length))
    if packed.dtype != _positions_dtype(length) or packed.ndim != 1:
        raise error(
            f"a {packed.dtype}{packed.shape} set: {length} places travel as uint8 bits "
            f"or 1-D {_positions_dtype(length)} positions"
        )
    positions = packed.astype(np.intp)
    if positions.size and (
        int(positions[-1]) >= length or (positions[1:] <= positions[:-1]).any()
    ):
        raise error(f"set positions must ascend strictly and stay below {length}")
    return positions


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def slice_payload(record: EpochRecord) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
    """The ``(meta, arrays)`` payload of one ``APPLY_EPOCH`` frame."""
    shells = sorted(record.active)
    sizes = [int(record.active[shell].size) for shell in shells]
    active = [np.flatnonzero(record.active[shell]) for shell in shells]
    flips = [record.flips[shell] for shell in shells]
    meta = {"shells": shells, "sizes": sizes, "epoch": record.epoch, "first": record.first}
    return meta, tuple(pack_set(ids, size) for ids, size in zip(active + flips, sizes * 2))


def decode_record(meta: dict[str, Any], arrays: list[np.ndarray]) -> EpochRecord:
    """Rebuild the :class:`EpochRecord` of a decoded ``APPLY_EPOCH`` frame.

    Decodes every set before building the record, so a malformed frame is a
    :class:`WireError` and nothing of it is used.
    """
    epoch, first = meta.get("epoch"), meta.get("first")
    if not _is_int(epoch) or epoch < 0 or not isinstance(first, bool):
        raise WireError(f"malformed record epoch {epoch!r} / first {first!r}")
    shells, sizes = meta.get("shells"), meta.get("sizes")
    if not isinstance(shells, list) or not isinstance(sizes, list):
        raise WireError("a record's meta needs a shells and a sizes list")
    if len(shells) != len(sizes) or len(arrays) != 2 * len(shells):
        raise WireError(
            f"{len(shells)} shells and {len(sizes)} sizes do not match "
            f"{len(arrays)} arrays (two sets per shell)"
        )
    if not all(_is_int(value) for value in shells + sizes) or min(sizes, default=0) < 0:
        raise WireError("record shells and sizes must be non-negative integers")
    if len(set(shells)) != len(shells):
        raise WireError(f"shell listed twice in {shells}")
    sets = [unpack_set(packed, size) for packed, size in zip(arrays, sizes * 2)]
    active = {}
    for shell, size, ids in zip(shells, sizes, sets):
        active[shell] = np.zeros(size, dtype=bool)
        active[shell][ids] = True
    return EpochRecord(epoch, active, dict(zip(shells, sets[len(shells):])), first)


_SAMPLE = struct.Struct("<5dq")


def sample_checksum(sample: UsageSample) -> int:
    """CRC-32 of a usage sample's fields, packed ``<5dq`` in declaration order."""
    return zlib.crc32(_SAMPLE.pack(*vars(sample).values()))


# -- CONTROL codec -------------------------------------------------------------


_CONTROL_OPS = tuple(ControlOp)
#: Column dtypes of a ``CONTROL`` frame: op, position, count, value, then
#: the machine entries' shell, identifier, image.
_CONTROL_DTYPES = tuple(
    np.dtype(dtype) for dtype in ("u1", "<i4", "<i4", "<f8", "<i4", "<i4", "<i4")
)


class ControlBatch:
    """One worker's lifecycle operations not yet sent, in program order.

    The encoder half of a ``CONTROL`` frame: every :meth:`append` adds one
    row (and the machines it names), :meth:`payload` is the frame's
    ``(meta, arrays)`` and :meth:`clear` starts the next batch.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every row (after the batch was flushed)."""
        self._columns: tuple[list, ...] = ([], [], [], [], [], [], [])
        self._names: list[str] = []
        self._images: dict[ComputeParams, int] = {}

    def __len__(self) -> int:
        return len(self._columns[0])

    def append(
        self,
        position: int,
        op: ControlOp,
        machine: MachineBatch | MachineId,
        value: float,
    ) -> None:
        """Add one row for the manager at host ``position``: ``machine`` is a
        ``CREATE`` row's batch and the machine the row acts on otherwise.
        Bound to a position, this is a replica manager's
        :attr:`~repro.core.machine_manager.MachineManager.sink`."""
        ops, positions, counts, values, shells, identifiers, images = self._columns
        if isinstance(machine, MachineBatch):
            table = np.array(
                [self._images.setdefault(compute, len(self._images))
                 for compute in machine.computes],
                dtype=np.int32,
            )
            shells.extend(machine.shells.tolist())
            identifiers.extend(machine.identifiers.tolist())
            images.extend(table[machine.images].tolist())
            grounded = machine.shells == MachineId.GROUND_SHELL
            self._names.extend(machine.names[index] for index in np.flatnonzero(grounded))
            count = len(machine)
        else:
            shells.append(machine.shell)
            identifiers.append(machine.identifier)
            images.append(-1)
            if machine.is_ground_station:
                self._names.append(machine.name)
            count = 1
        ops.append(op)
        positions.append(position)
        counts.append(count)
        values.append(value)

    def payload(self) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
        """The ``(meta, arrays)`` of this batch's ``CONTROL`` frame."""
        images = [dataclasses.asdict(compute) for compute in self._images]
        arrays = tuple(
            np.array(column, dtype=dtype)
            for column, dtype in zip(self._columns, _CONTROL_DTYPES)
        )
        return {"images": images, "names": list(self._names)}, arrays


#: One decoded ``CONTROL`` row: op, position, the machines (a ``CREATE``
#: row's batch, else one machine), value.
ControlRow = tuple[ControlOp, int, "MachineBatch | MachineId", float]


def _check_columns(kind: str, arrays: list[np.ndarray], dtypes: tuple[np.dtype, ...]) -> None:
    """Refuse a table whose columns are not 1-D, of their dtypes and equally long."""
    for array, dtype in zip(arrays, dtypes):
        if array.ndim != 1 or array.dtype != dtype:
            raise WireError(
                f"{kind} column of dtype {array.dtype.str} and shape "
                f"{array.shape}, expected 1-D {dtype.str}"
            )
    if len({len(array) for array in arrays}) > 1:
        raise WireError(f"{kind} column lengths differ: {[len(array) for array in arrays]}")


def _machine_names(
    kind: str, shells: np.ndarray, identifiers: np.ndarray, names: Any
) -> list[str]:
    """Every machine's name: a ground station's the next of ``names``, a satellite's rebuilt."""
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise WireError(f"a {kind} frame's meta needs a names list of strings")
    grounded = int(np.count_nonzero(shells == MachineId.GROUND_SHELL))
    if grounded != len(names):
        raise WireError(
            f"{grounded} {kind} machines are ground stations but {len(names)} names were sent"
        )
    ground_names = iter(names)
    return [
        next(ground_names) if shell == MachineId.GROUND_SHELL else satellite_name(shell, number)
        for shell, number in zip(shells.tolist(), identifiers.tolist())
    ]


def _computes(table: Any) -> tuple[ComputeParams, ...]:
    if not isinstance(table, list):
        raise WireError("a CONTROL frame's meta needs an images list")
    try:
        return tuple(ComputeParams(**entry) for entry in table)
    except (TypeError, ValueError) as error:
        raise WireError(f"malformed CONTROL image entry: {error!r}") from error


def decode_control(meta: dict[str, Any], arrays: list[np.ndarray]) -> list[ControlRow]:
    """The rows of a decoded ``CONTROL`` frame.

    Checks the whole frame before returning a row, so a malformed frame is a
    :class:`WireError` and nothing of it runs.  Whether a row's position is
    owned, and whether its machine exists, is the worker's to check per row.
    """
    if len(arrays) != len(_CONTROL_DTYPES):
        raise WireError(f"a CONTROL frame has 7 columns, not {len(arrays)}")
    _check_columns("CONTROL", arrays[:4], _CONTROL_DTYPES[:4])
    _check_columns("CONTROL", arrays[4:], _CONTROL_DTYPES[4:])
    ops, positions, counts, values = arrays[:4]
    shells, identifiers, images = arrays[4:]
    computes = _computes(meta.get("images"))
    if len(ops) and int(ops.max()) >= len(_CONTROL_OPS):
        raise WireError(f"unknown CONTROL op code {int(ops.max())}")
    creates = ops == ControlOp.CREATE
    # A CREATE row names its batch, every other row one machine.
    if np.any(np.where(creates, counts < 1, counts != 1)):
        raise WireError("a CONTROL row names a wrong number of machines")
    if not np.all(np.isfinite(values[creates])):
        raise WireError("a CONTROL CREATE row's boot time is not finite")
    if int(counts.sum()) != len(shells):
        raise WireError(f"CONTROL rows name {int(counts.sum())} machines, {len(shells)} sent")
    outside = (images < 0) | (images >= len(computes))
    if np.any(np.where(np.repeat(creates, counts), outside, images != -1)):
        raise WireError(f"CONTROL image index out of range for a table of {len(computes)}")
    machine_names = _machine_names("CONTROL", shells, identifiers, meta.get("names"))
    rows: list[ControlRow] = []
    start = 0
    for op, position, count, value in zip(
        ops.tolist(), positions.tolist(), counts.tolist(), values.tolist()
    ):
        op = _CONTROL_OPS[op]
        stop = start + count
        if op is ControlOp.CREATE:
            machine = MachineBatch(
                machine_names[start:stop],
                shells[start:stop],
                identifiers[start:stop],
                images[start:stop],
                computes,
            )
        else:
            machine = MachineId(int(shells[start]), int(identifiers[start]), machine_names[start])
        rows.append((op, position, machine, value))
        start = stop
    return rows


# -- SPEC codec ------------------------------------------------------------------


#: Column dtypes of one host's machine table in a ``SPEC`` frame, in
#: :attr:`MachineTable.COLUMNS` order after ``names``.
_TABLE_DTYPES = tuple(
    np.dtype(dtype)
    for dtype in ("<i4", "<i4", "<i4", "<i8", "<f8", "<f8", "<i8", "i1", "<i4", "<f8", "<f8", "<f8")
)
_STATES = MachineTable.COLUMNS.index("states") - 1
_BOOT_COUNTS = MachineTable.COLUMNS.index("boot_counts") - 1
#: The integer fields of a ``SPEC`` host entry: its position, then the host
#: blueprint (``allow_memory_overcommit`` is the one bool) and the key root.
_SPEC_INTEGERS = ("position", "index", "cpu_cores", "memory_mib", "key_root")
_COUNTERS = ("suspension_count", "resume_count", "applied_diffs")


def spec_payload(
    managers: dict[int, MachineManager],
) -> tuple[dict[str, Any], tuple[np.ndarray, ...]]:
    """The ``(meta, arrays)`` of the ``SPEC`` frame that starts a worker owning ``managers``."""
    hosts, arrays = [], []
    for position, manager in managers.items():
        host, table = manager.host, manager.host.machines
        hosts.append(
            {
                "position": position,
                "index": host.index,
                "cpu_cores": host.cpu_cores,
                "memory_mib": host.memory_mib,
                "allow_memory_overcommit": host.allow_memory_overcommit,
                "key_root": manager.key_root,
                "checkpoint": manager.counters_snapshot(),
                "names": [
                    name
                    for name, shell in zip(table.names, table.shells)
                    if shell == MachineId.GROUND_SHELL
                ],
            }
        )
        arrays.extend(
            np.array(getattr(table, column), dtype=dtype)
            for column, dtype in zip(MachineTable.COLUMNS[1:], _TABLE_DTYPES)
        )
    return {"hosts": hosts}, tuple(arrays)


def decode_spec(meta: dict[str, Any], arrays: list[np.ndarray]) -> dict[int, MachineManager]:
    """The managers of a decoded ``SPEC`` frame, by host position.

    Every host entry is checked before its table is built, and the built
    manager must reproduce the entry's checkpoint, so a malformed frame is a
    :class:`WireError` and no manager of it is returned.
    """
    hosts, width = meta.get("hosts"), len(_TABLE_DTYPES)
    if not isinstance(hosts, list) or len(arrays) != width * len(hosts):
        raise WireError(f"a SPEC frame needs a hosts list and {width} columns per host")
    managers: dict[int, MachineManager] = {}
    for number, fields in enumerate(hosts):
        position, manager = _spec_manager(fields, arrays[number * width : (number + 1) * width])
        if position in managers:
            raise WireError(f"host position {position} is sent twice")
        managers[position] = manager
    return managers


def _spec_manager(fields: Any, columns: list[np.ndarray]) -> tuple[int, MachineManager]:
    """One ``SPEC`` host entry and its table columns, as ``(position, manager)``."""
    _check_columns("SPEC", columns, _TABLE_DTYPES)
    # A table never stores BOOTING (code 0), and every machine has booted.
    states = columns[_STATES]
    if np.any((states < 1) | (states >= len(MachineState)) | (columns[_BOOT_COUNTS] < 1)):
        raise WireError(f"SPEC state code outside 1..{len(MachineState) - 1} or no boot")
    if not isinstance(fields, dict) or not isinstance(fields.get("checkpoint"), dict):
        raise WireError("a SPEC host entry needs a mapping with a checkpoint")
    checkpoint = fields["checkpoint"]
    position, index, cpu_cores, memory_mib, root = (fields.get(key) for key in _SPEC_INTEGERS)
    counters = [checkpoint.get(key) for key in _COUNTERS]
    dirty = checkpoint.get("dirty")
    if (
        not all(_is_int(value) for value in (position, index, cpu_cores, memory_mib, root, *counters))
        or not isinstance(fields.get("allow_memory_overcommit"), bool)
        or not isinstance(dirty, list)
        or not all(isinstance(name, str) for name in dirty)
    ):
        raise WireError("malformed SPEC host blueprint or checkpoint")
    names = _machine_names("SPEC", columns[0], columns[1], fields.get("names"))
    if len(set(names)) < len(names):
        raise WireError("a SPEC table names a machine twice")
    try:
        host = Host(index, cpu_cores, memory_mib, fields["allow_memory_overcommit"])
    except ValueError as error:
        raise WireError(f"malformed SPEC host: {error}") from error
    host.machines = MachineTable.of_columns([names, *(column.tolist() for column in columns)])
    manager = MachineManager(host)
    manager.key_root = root
    manager.suspension_count, manager.resume_count, manager.applied_diffs = counters
    manager.dirty = set(dirty)
    if manager.counters_snapshot() != checkpoint:
        raise WireError(f"host position {position}: the SPEC table does not match its checkpoint")
    return position, manager
