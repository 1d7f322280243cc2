"""Every set on the wire goes through one packer pair.

A set of places among ``n`` — a DIFF's link masks, a KEYFRAME's active
satellites, a DIFF's flipped satellites, a record's active and flip sets —
travels as :func:`repro.dist.wire.pack_set` makes it, packed bits or
ascending positions, whichever is smaller, and decodes through
:func:`repro.dist.wire.unpack_set`.  Each carrier round-trips the empty and
the full set, both forms and the 2**16 places where positions widen; a
forged set is a :class:`WireError` in a record frame and a
:class:`CodecError` in a KEYFRAME or DIFF.
"""

from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from repro.core.constellation import ConstellationDiff, DelayTrend
from repro.core.machine_manager import EpochRecord
from repro.dist import wire
from repro.dist.wire import FrameKind, WireError
from repro.serve import EpochReplica
from repro.serve.codec import CodecError, EpochUpdate, EpochUpdateCodec
from repro.topology.graph import NetworkGraph, NodeIndex


class Carried(NamedTuple):
    """A frame's payload with a set in it, and how its reader gets it back."""

    kind: FrameKind
    meta: dict
    arrays: list
    index: Optional[int]  # the set's array; None when the set does not travel
    read: Callable[[dict, list], np.ndarray]  # (meta, arrays) -> the set's positions
    error: type


def _mask(positions, length):
    mask = np.zeros(length, dtype=bool)
    mask[positions] = True
    return mask


def _state(index, pairs, bandwidths, active, previous=None):
    """A stand-in for what the codec reads of a state: its graph, activity
    and delay trend, every delay 1,000 grid counts."""
    graph = NetworkGraph.from_edge_arrays(
        index,
        pairs[:, 0],
        pairs[:, 1],
        np.zeros(len(pairs)),
        np.full(len(pairs), 1000, dtype=np.uint32),
        bandwidths,
        (pairs[:, 1] >= index.satellite_count).astype(np.int8),
    )
    trend = (
        DelayTrend.cold(graph)
        if previous is None
        else previous.trend.after(graph.diff_from(previous.graph))
    )
    time_s = 0.0 if previous is None else 1.0
    return SimpleNamespace(graph=graph, time_s=time_s, active_satellites={0: active}, trend=trend)


def _payload(data):
    _, meta, arrays = wire.decode_frame(data)
    return meta, [np.array(array) for array in arrays]


def _diff(previous, current, positions, read) -> tuple:
    """The DIFF from ``previous`` to ``current`` that flips ``positions``,
    read by a replica keyed to ``previous``."""
    keyframe = EpochUpdateCodec().keyframe_update(1, previous)
    diff = ConstellationDiff(
        time_s=current.time_s,
        topology=current.graph.diff_from(previous.graph),
        flipped={0: positions},
        previous_trend=previous.trend,
        trend=current.trend,
    )
    meta, arrays = _payload(EpochUpdateCodec().diff_update(2, diff).data)

    def replay(meta, arrays):
        replica = EpochReplica()
        replica.apply(keyframe)
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        replica.apply(EpochUpdate(FrameKind.DIFF, 2, data))
        return read(replica)

    return meta, arrays, replay


def _record_active(positions, length) -> Carried:
    record = EpochRecord(9, {0: _mask(positions, length)}, {0: np.empty(0, np.intp)})
    meta, arrays = wire.slice_payload(record)
    read = lambda meta, arrays: np.flatnonzero(wire.decode_record(meta, arrays).active[0])
    return Carried(FrameKind.APPLY_EPOCH, meta, list(arrays), 0, read, WireError)


def _record_flips(positions, length) -> Carried:
    record = EpochRecord(9, {0: np.zeros(length, dtype=bool)}, {0: positions})
    meta, arrays = wire.slice_payload(record)
    read = lambda meta, arrays: wire.decode_record(meta, arrays).flips[0]
    return Carried(FrameKind.APPLY_EPOCH, meta, list(arrays), 1, read, WireError)


def _satellites(length, active, previous=None):
    """A shell of ``length`` satellites and a ground station linked to the first."""
    index = NodeIndex([length], ["g"])
    pairs = np.array([[0, length]])
    return _state(index, pairs, np.full(1, 1e4), active, previous)


def _keyframe_activity(positions, length) -> Carried:
    state = _satellites(length, _mask(positions, length))
    meta, arrays = _payload(EpochUpdateCodec().keyframe_update(1, state).data)

    def read(meta, arrays):
        replica = EpochReplica()
        data = wire.encode_frame(FrameKind.KEYFRAME, meta, arrays)
        replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, data))
        return np.flatnonzero(replica.active[0])

    return Carried(FrameKind.KEYFRAME, meta, arrays, 8, read, CodecError)


def _diff_flips(positions, length) -> Carried:
    previous = _satellites(length, np.zeros(length, dtype=bool))
    current = _satellites(length, _mask(positions, length), previous)
    meta, arrays, read = _diff(
        previous, current, positions, lambda replica: np.flatnonzero(replica.active[0])
    )
    # Only a shell with a flip travels.
    return Carried(FrameKind.DIFF, meta, arrays, 12 if positions.size else None, read, CodecError)


def _link_mask(positions, length) -> Carried:
    """``length`` links among as few satellites as hold them; the set is
    the links whose bandwidth changed (array 10)."""
    nodes = next(n for n in range(2, 400) if n * (n - 1) // 2 >= length)
    pairs = np.array([(a, b) for a in range(nodes) for b in range(a + 1, nodes)][:length])
    index = NodeIndex([nodes], [])
    active = np.ones(nodes, dtype=bool)
    previous = _state(index, pairs, np.full(length, 1e4), active)
    bandwidths = np.where(_mask(positions, length), 2e4, 1e4)
    current = _state(index, pairs, bandwidths, active, previous)
    meta, arrays, read = _diff(
        previous,
        current,
        np.empty(0, dtype=np.intp),
        lambda replica: np.flatnonzero(replica.snapshot().bandwidth_kbps != 1e4),
    )
    return Carried(FrameKind.DIFF, meta, arrays, 10, read, CodecError)


CARRIERS = {
    "record-active": _record_active,
    "record-flips": _record_flips,
    "keyframe-activity": _keyframe_activity,
    "diff-flips": _diff_flips,
    "link-mask": _link_mask,
}


def _spread(length, count):
    positions = np.linspace(0, length - 1, count).astype(np.intp)
    assert np.unique(positions).size == count
    return positions


#: ``(length, positions, the form they travel in)``: positions travel when
#: strictly smaller than the bits, as ``uint16`` over up to 2**16 places.
CASES = {
    "empty": (13, np.empty(0, dtype=np.intp), np.uint16),
    "full": (13, np.arange(13), np.uint8),
    "one-of-one": (1, np.arange(1), np.uint8),
    "bits": (13, np.arange(0, 13, 2), np.uint8),
    "positions": (100, np.array([3, 50, 99]), np.uint16),
    "2**16-positions": (2**16, _spread(2**16, 4095), np.uint16),
    "2**16-bits": (2**16, _spread(2**16, 4096), np.uint8),
    "2**16+1-positions": (2**16 + 1, _spread(2**16 + 1, 2048), np.uint32),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@pytest.mark.parametrize("case", list(CASES))
def test_every_set_round_trips_through_the_one_pair(carrier, case):
    length, positions, dtype = CASES[case]
    carried = CARRIERS[carrier](positions, length)
    if carried.index is None:
        assert positions.size == 0 and len(carried.arrays) == 12
    else:
        packed = carried.arrays[carried.index]
        assert packed.dtype == dtype and packed.ndim == 1
        expected = wire.pack_set(positions, length)
        assert packed.dtype == expected.dtype and packed.tobytes() == expected.tobytes()
        assert wire.unpack_set(packed, length).tolist() == positions.tolist()
    assert carried.read(carried.meta, carried.arrays).tolist() == positions.tolist()


#: Forgeries of the set {1, 3} among 13 places (two bytes of bits).
FORGERIES = {
    "descending": (lambda bits: np.array([3, 1], np.uint16), "ascend strictly"),
    "repeated": (lambda bits: np.array([1, 1], np.uint16), "ascend strictly"),
    "beyond": (lambda bits: np.array([1, 13], np.uint16), "stay below 13"),
    "pad-bit": (lambda bits: bits | np.uint8(1), "pad bits"),
    "short-bits": (lambda bits: bits[:1], "does not cover 13"),
    "int64-ids": (lambda bits: np.array([1, 3], np.int64), "travel as uint8 bits"),
    "wide-positions": (lambda bits: np.array([1, 3], np.uint32), "travel as uint8 bits"),
    "2-D": (lambda bits: bits.reshape(1, -1), "does not cover 13"),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_a_forged_set_is_the_carriers_error(carrier, forgery):
    carried = CARRIERS[carrier](np.array([1, 3]), 13)
    forge, match = FORGERIES[forgery]
    assert carried.arrays[carried.index].tolist() == [0b01010000, 0]
    arrays = list(carried.arrays)
    arrays[carried.index] = forge(arrays[carried.index])
    # Through the frame codec, as a receiver gets it.
    _, meta, arrays = wire.decode_frame(wire.encode_frame(carried.kind, carried.meta, arrays))
    with pytest.raises(carried.error, match=match):
        carried.read(meta, arrays)


@pytest.mark.parametrize(
    ("carrier", "key", "sets"),
    [("record-active", "sizes", (0, 1)), ("keyframe-activity", "satellites", (8,))],
)
def test_a_set_over_too_many_places_is_refused_before_its_mask_is_built(carrier, key, sets):
    """A length comes from the meta here: a few bytes of positions must not
    make the reader build a mask of 2**40 satellites."""
    carried = CARRIERS[carrier](np.empty(0, dtype=np.intp), 13)
    arrays = list(carried.arrays)
    for index in sets:
        arrays[index] = np.empty(0, dtype=np.uint32)
    meta = {**carried.meta, key: [2**40]}
    with pytest.raises(carried.error, match=f"at most {wire.MAX_SET_PLACES}"):
        carried.read(meta, arrays)
