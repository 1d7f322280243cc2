"""The shared epoch-update codec of the serving tier.

One unit of distribution — the :class:`EpochUpdate` — carries an epoch's
constellation change set.  It is encoded **exactly once** per epoch into
the versioned :mod:`repro.dist.wire` frame format (``KEYFRAME`` / ``DIFF``
frame kinds) and the streaming gateway (:mod:`repro.serve.gateway`) fans
the shared encoded bytes out to every subscriber.

What travels is the network-observable projection of a
:class:`~repro.core.constellation.ConstellationState` — the
:class:`EpochSnapshot`: simulation clock, the undirected link set with
per-link delay/bandwidth/type, and the per-shell bounding-box activity
masks.  Satellite positions are *not* streamed (they change every epoch
and would make every diff as large as a keyframe); consumers that need
geometry query the info API.  A subscriber that applies its keyframe+diff
stream through an :class:`EpochReplica` reconstructs the snapshot
bit-for-bit at every epoch.

The driver is such a subscriber too.  The coordinator's calculation child
(:mod:`repro.dist.calculation`) computes each epoch one ahead and encodes
its DIFF there; the driver applies the frame to its own replica, rebuilds
the state and diff from what the replica applied
(:attr:`EpochReplica.applied`; :meth:`~repro.core.constellation
.ConstellationCalculation.state_from_replica`) and publishes the frame's
bytes with them, which the codec adopts instead of encoding the diff again
(:meth:`EpochUpdateCodec.diff_update`).  One reconstruction of an epoch
serves the subscribers and the driver.

Frame layout
------------

Server and replica share one *canonical link order*: links with ``node_a <
node_b``, ascending by ``node_a * node_count + node_b`` — the order of a
``NetworkGraph``'s edge ids, so a link's position is its edge id and a
:class:`~repro.topology.graph.TopologyDiff`'s arrays are positions as they
are.  A frame names a set of links by their positions in that order, and a
set of a shell's satellites by their identifiers, in the wire's one set
form (:func:`repro.dist.wire.pack_set`): packed bits or strictly ascending
``uint16`` / ``uint32`` positions, whichever is smaller.  A set that does
not decode (:func:`repro.dist.wire.unpack_set`) is a :class:`CodecError`.
A DIFF therefore means something only to a replica that holds the previous
epoch's links: its meta carries the link counts before and after, and a
frame that does not chain is a :class:`CodecError`.
A delay array is ``uint32`` counts of ``DELAY_GRID_MS`` steps — the
graph's own delay column (``NetworkGraph.delay_counts``), so every delay is
on the grid by construction — or, in a DIFF, residual fields against them.
A delay array of any other dtype is a :class:`CodecError`.

Satellites move smoothly, so a link's delay count ``c`` follows a curve
that three epochs pin down.  Every published epoch carries its
:class:`~repro.core.constellation.DelayTrend`: per link a *step* ``c[k] -
c[k-1]`` (non-zero only where epoch ``k`` changed the link's delay) and a
*curve* ``step[k] - step[k-1]`` (where both steps are non-zero, else 0).  The
server computes it once per epoch, as provenance of the state, and the
diff carries the trends before and after; a replica that follows the
stream derives the same from the delays it held before and after each
DIFF, and a KEYFRAME carries it, so a subscriber that joined mid-stream, or
was evicted and resynced, predicts exactly as one that never left — every
frame is a function of the publication it is encoded from, and a DIFF is
still encoded once for all of them.

A DIFF sends each changed delay as the residual ``c[k] - (c[k-1] + step +
curve)`` against the previous epoch's trend — a third difference, near 0 —
as ``b``-bit two's-complement fields packed most-significant bit first
(meta ``bits``), ``b`` in 1…8 the width that makes the fields plus their
escapes smallest (1 when no delay changed: no fields).  The most negative
field, ``-2**(b-1)``, marks an escaped residual, which array 9 holds at the
narrowest of ``int8`` … ``int64``.  The trailing pad bits are 0.  The same
steps predict *which* links change: the delay-changed mask is sent as its
XOR with the links whose previous step is not 0 (after the removed / added
merge; an added link's step is 0), which leaves the few links that started
or stopped changing, and fixes the number of fields.

``DIFF`` — meta ``epoch``, ``time_s``, ``links`` (``[before, after]``),
``shells`` (those with an activity flip) and ``bits`` (the field width).
A set is "a set" in the table, over the previous or current link order, or
over a shell's satellites.

== ================= ===================== =========================== ========
#  array             dtype                 meaning                     mask
                                                                       order
== ================= ===================== =========================== ========
0  removed           a set                 links that disappeared      previous
1  added             a set                 links that appeared         current
2  added node_a      int8 … int64          their lower endpoints
3  added node_b      int8 … int64          their higher endpoints
4  added delay       uint32                their delays [grid counts]
5  added bandwidth   float64               their bandwidths [kbps]
6  added type        int8                  their link type codes
7  delay changed     a set                 surviving links, new delay  current
                                           XOR the links with a step
8  new delay         uint8 (``bits``-bit   those delays' residuals
                     fields)
9  escapes           int8 | int16 |        the residuals array 8 marks
                     int32 | int64         escaped, in order
10 bandwidth changed a set                 surviving links, new b/w    current
11 new bandwidth     float64               those bandwidths [kbps]
12 flipped           a set, per shell      satellites that entered or  shell
                                           left the box
== ================= ===================== =========================== ========

Value arrays hold one entry per link of their mask, in mask order.  The
replica applies *removed* (a mask over the links it holds), then *added*
(a mask over the new order: kept links fill the other positions), then
*delay changed* and *bandwidth changed* (masks over the new order), then
toggles the activity of each shell's flipped satellites.  Added links
carry absolute delays and a zero trend.

``KEYFRAME`` — meta ``epoch``, ``time_s``, ``node_count``, ``shells``,
``satellites`` (each shell's mask length); arrays in canonical order, the
graph's columns and its trend's as they are:

== =========== ============================= ================================
#  array       dtype                         meaning
== =========== ============================= ================================
0  node_a      int8 | int16 | int32 | int64  lower endpoints
1  node_b      int8 | int16 | int32 | int64  higher endpoints
2  delay       uint32                        delays [grid counts]
3  bandwidth   uint8 | uint16 | uint32       indices into the palette
4  type        int8                          link type codes
5  step        int8 | int16 | int32 | int64  the epoch's steps, at the
                                             narrowest width
6  curve       int8 | int16 | int32 | int64  the epoch's curves, at the
                                             narrowest width
7  palette     float64                       the distinct bandwidths [kbps]
8  activity    a set, per shell              the satellites inside the box
== =========== ============================= ================================

Endpoints travel at the narrowest signed width that holds every node index
of the graph (``int16`` for phase-I Starlink's ≈ 4,400 nodes), and the
bandwidth indices at the narrowest unsigned width that indexes the palette
(``uint8`` up to 256 entries; the shells built here have one or two).

A replica checks a frame where it decodes it, before it changes anything;
each violation is a :class:`CodecError`.  Meta: ``epoch`` an int >= 0,
``time_s`` a number (finite: the wire refuses others), ``shells`` strictly
ascending ints; a KEYFRAME's ``node_count`` an int > 0 and ``satellites``
one int >= 0 per shell, a DIFF's ``links`` two ints >= 0 and ``bits`` an
int in 1…8.  Links: endpoints signed ints with ``0 <= node_a < node_b <
node_count``, a KEYFRAME's in strictly ascending canonical order and each
added one between its neighbours in the new order; type codes ``int8`` in
0…1; bandwidths ``float64``, or a KEYFRAME's indices into its palette.
Sets decode as :func:`repro.dist.wire.unpack_set` requires; packed
residual fields have their pad bits 0.  A DIFF flips only shells the
replica holds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.constellation import DelayTrend
from repro.dist import wire
from repro.dist.wire import FrameKind
from repro.topology.linkparams import DELAY_GRID_MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.constellation import ConstellationDiff, ConstellationState
    from repro.topology.graph import TopologyDiff


class CodecError(ValueError):
    """Raised when an epoch-update frame does not decode to a valid update."""


# -- the streamed projection ---------------------------------------------------


@dataclass(frozen=True)
class EpochSnapshot:
    """The streamed, canonically ordered projection of one epoch's state.

    Links are in the canonical order (``node_a < node_b``, ascending by the
    flat edge key ``node_a * node_count + node_b``), the graph's own, so the
    snapshot of a server-side state and of a client-side replica are
    comparable column for column.  ``active`` maps shell index to the
    boolean bounding-box activity mask.
    """

    epoch: int
    time_s: float
    node_count: int
    node_a: np.ndarray
    node_b: np.ndarray
    delay_ms: np.ndarray
    bandwidth_kbps: np.ndarray
    link_type: np.ndarray
    active: dict[int, np.ndarray]

    @classmethod
    def from_state(cls, state: "ConstellationState", epoch: int) -> "EpochSnapshot":
        """The canonical projection of a server-side state: its graph's
        (read-only) columns."""
        graph = state.graph
        return cls(
            epoch=epoch,
            time_s=state.time_s,
            node_count=len(graph.index),
            node_a=graph.node_a,
            node_b=graph.node_b,
            delay_ms=graph.delays_ms,
            bandwidth_kbps=graph.bandwidths_kbps,
            link_type=graph.link_type_codes,
            active={
                shell: np.ascontiguousarray(mask)
                for shell, mask in sorted(state.active_satellites.items())
            },
        )

    def same_bits(self, other: "EpochSnapshot") -> bool:
        """Bitwise equality of the projections (exact float bit patterns)."""
        if (
            self.epoch != other.epoch
            or self.time_s != other.time_s
            or self.node_count != other.node_count
            or sorted(self.active) != sorted(other.active)
        ):
            return False
        pairs = [
            (self.node_a, other.node_a),
            (self.node_b, other.node_b),
            (self.delay_ms, other.delay_ms),
            (self.bandwidth_kbps, other.bandwidth_kbps),
            (self.link_type, other.link_type),
            *((self.active[s], other.active[s]) for s in sorted(self.active)),
        ]
        return all(
            mine.dtype == theirs.dtype
            and mine.shape == theirs.shape
            and mine.tobytes() == theirs.tobytes()
            for mine, theirs in pairs
        )


# -- encoded updates -----------------------------------------------------------


@dataclass(frozen=True)
class EpochUpdate:
    """One epoch's encoded distribution unit (a KEYFRAME or DIFF frame).

    ``data`` is the shared wire-frame encoding the gateway fans out.  A receiver
    that decoded it already passes ``_decoded=[(meta, arrays)]``: no second decode.
    """

    kind: FrameKind
    epoch: int
    data: bytes
    _decoded: list = field(default_factory=list, repr=False, compare=False)

    def decoded(self) -> tuple[dict[str, Any], list[np.ndarray]]:
        """The decoded ``(meta, arrays)`` payload (cached)."""
        if not self._decoded:
            kind, meta, arrays = wire.decode_frame(self.data)
            if kind is not self.kind:
                raise CodecError(f"frame kind {kind.name} != update kind {self.kind.name}")
            self._decoded.append((meta, arrays))
        return self._decoded[0]


#: The largest residual magnitude a ``b``-bit field holds beside the escape
#: mark, by ``b`` = 1 … 8.
_FIELD_LIMITS = [(1 << (bits - 1)) - 1 for bits in range(1, 9)]
#: Eight ``b``-bit fields make one 64-bit word, the i-th ``i * b`` bits
#: below the top: by ``b`` = 1 … 8, the weights that place them there.
_FIELD_WEIGHTS = [
    np.array([1 << (64 - (i + 1) * bits) for i in range(8)], dtype=np.uint64)
    for bits in range(1, 9)
]
#: What each bit of a ``b``-bit two's-complement field is worth, top first
#: (``float32``: a field's value, at most 128 in magnitude, is exact, and
#: the product runs in BLAS).
_FIELD_VALUES = [
    np.array([-(1 << (bits - 1)), *(1 << bit for bit in range(bits - 2, -1, -1))], np.float32)
    for bits in range(1, 9)
]
#: Arrays of a KEYFRAME / DIFF frame ahead of the per-shell ones.
_KEYFRAME_ARRAYS = 8
_DIFF_ARRAYS = 12
#: Signed integer dtypes, narrowest first, with their bounds.
_SIGNED = tuple(
    (np.dtype(dtype), np.iinfo(dtype).min, np.iinfo(dtype).max)
    for dtype in (np.int8, np.int16, np.int32, np.int64)
)


def _check_delays(values: np.ndarray) -> None:
    if values.dtype != np.uint32:
        raise CodecError(f"delays travel as uint32 grid counts, not {values.dtype}")


def _is_number(value: Any) -> bool:
    """A JSON number: the wire's decoder already refuses NaN and infinities."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    return wire._is_int(value) and value >= 0


def _are_shells(shells: Any) -> bool:
    """Whether a meta's ``shells`` is a list of strictly ascending ints."""
    return (
        isinstance(shells, list)
        and all(wire._is_int(shell) for shell in shells)
        and all(low < high for low, high in zip(shells, shells[1:]))
    )


def _check_link_dtypes(node_a: np.ndarray, node_b: np.ndarray, types: np.ndarray) -> None:
    if node_a.dtype.kind != "i" or node_b.dtype.kind != "i" or types.dtype != np.int8:
        raise CodecError(
            f"links travel as signed int endpoints and int8 types, not "
            f"{node_a.dtype} / {node_b.dtype} / {types.dtype}"
        )


def _signed_dtype(low: int, high: int) -> np.dtype:
    """The narrowest signed dtype that holds ``low`` … ``high`` (``int64``
    holds any)."""
    for dtype, least, most in _SIGNED:
        if least <= low and high <= most:
            break
    return dtype


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Integer ``values`` at their narrowest signed width."""
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return values.astype(_signed_dtype(low, high))


def _pack_residuals(residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``residuals`` as packed ``b``-bit fields, the escaped ones and ``b``:
    the width that makes fields plus escapes smallest (module docstring)."""
    count = residuals.size
    magnitudes = np.abs(residuals)
    histogram = np.bincount(np.minimum(magnitudes, 128), minlength=129)
    fits = np.cumsum(histogram)[_FIELD_LIMITS]  # residuals each width holds
    escape_dtype = (
        _signed_dtype(int(residuals.min()), int(residuals.max()))
        if histogram[128]
        else np.dtype(np.int8)  # every magnitude is below 128
    )
    sizes = [
        (count * bits + 7) // 8 + (count - fitting) * escape_dtype.itemsize
        for bits, fitting in enumerate(fits.tolist(), start=1)
    ]
    bits = 1 + sizes.index(min(sizes))
    escaped = np.flatnonzero(magnitudes > _FIELD_LIMITS[bits - 1])
    # Each eight fields in one word: pad to a whole number of words.
    fields = np.zeros(-(-count // 8) * 8, dtype=np.int64)
    np.bitwise_and(residuals, (1 << bits) - 1, out=fields[:count])  # two's complement
    fields[escaped] = 1 << (bits - 1)  # the most negative field
    words = fields.view(np.uint64).reshape(-1, 8) @ _FIELD_WEIGHTS[bits - 1]
    packed = words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, :bits].reshape(-1)
    return packed[: (count * bits + 7) // 8], residuals[escaped].astype(escape_dtype), bits


def _unpack_residuals(
    packed: np.ndarray, bits: int, count: int, escapes: np.ndarray
) -> np.ndarray:
    """The ``count`` residuals that ``bits``-bit fields and their escapes
    carry (module docstring)."""
    length = (count * bits + 7) // 8
    if packed.dtype != np.uint8 or packed.shape != (length,):
        raise CodecError(
            f"{packed.dtype}{packed.shape} residuals: {count} fields of {bits} bits "
            f"are {length} packed bytes"
        )
    padding = 8 * length - count * bits
    if padding and int(packed[-1]) & ((1 << padding) - 1):
        raise CodecError("the pad bits after the residual fields are not 0")
    fields = np.unpackbits(packed, count=count * bits).reshape(count, bits).astype(np.float32)
    residuals = (fields @ _FIELD_VALUES[bits - 1]).astype(np.int64)
    escaped = np.flatnonzero(residuals == -(1 << (bits - 1)))
    if escapes.dtype.kind != "i" or escapes.shape != escaped.shape:
        raise CodecError(
            f"{escapes.dtype}{escapes.shape} escapes for {escaped.size} escaped residuals"
        )
    residuals[escaped] = escapes
    return residuals


def _index_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes ``size`` palette entries."""
    return np.min_scalar_type(max(size - 1, 0))


def _pack_bandwidths(bandwidths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A KEYFRAME's bandwidth column and palette: indices into the distinct
    bit patterns, at the narrowest width that indexes them."""
    palette, index = np.unique(bandwidths.view(np.uint64), return_inverse=True)
    return index.astype(_index_dtype(palette.size)), palette.view(np.float64)


def _unpack_bandwidths(column: np.ndarray, palette: np.ndarray) -> np.ndarray:
    width = _index_dtype(palette.size)
    if column.dtype != width or palette.dtype != np.float64 or palette.ndim != 1:
        raise CodecError(
            f"bandwidths travel as indices into a float64 palette at the narrowest "
            f"width, not as {column.dtype} with a {palette.dtype}{palette.shape} palette"
        )
    if column.size and int(column.max()) >= palette.size:
        raise CodecError(f"a bandwidth index beyond the {palette.size}-entry palette")
    return palette[column]


def _pack_nodes(
    node_a: np.ndarray, node_b: np.ndarray, node_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint columns of some links at the narrowest signed width that
    holds every node index of the graph."""
    dtype = _signed_dtype(0, node_count - 1)
    return node_a.astype(dtype), node_b.astype(dtype)


def _positions(packed: np.ndarray, length: int, *values: np.ndarray) -> np.ndarray:
    """The ascending positions among ``length`` that a set names; each of
    ``values`` must hold one entry per position."""
    positions = wire.unpack_set(packed, length, CodecError)
    for array in values:
        if array.shape != positions.shape:
            raise CodecError(f"{array.shape} values for a set of {positions.size} links")
    return positions


def _surprises(topology: "TopologyDiff", trend: DelayTrend, held: np.ndarray) -> np.ndarray:
    """Array 7 with residuals: the delay-changed links XOR those that
    survive with a step in ``trend``, the previous epoch's.  ``held`` is
    each changed link's step there."""
    changed, removed, added = topology.delay_changed, topology.links_removed, topology.links_added
    started = changed[held == 0]
    # A link that stopped changing is rarer still: count before looking.
    survived = trend.stepped - np.count_nonzero(trend.step[removed])
    if survived == changed.size - started.size:
        return started
    stepped = trend.step != 0
    stepped[topology.delay_changed_previous] = stepped[removed] = False
    ranks = np.flatnonzero(stepped)
    ranks -= np.searchsorted(removed, ranks)  # among the kept links
    # The i-th added link follows added[i] - i kept ones.
    stopped = ranks + np.searchsorted(added - np.arange(added.size), ranks, side="right")
    return np.sort(np.concatenate([started, stopped]))


def encode_keyframe_update(state: "ConstellationState", epoch: int) -> bytes:
    """Encode one epoch's full-state KEYFRAME frame from its graph, its
    activity and its delay trend."""
    graph, active = state.graph, state.active_satellites
    shells = sorted(active)
    meta = {
        "epoch": epoch,
        "time_s": state.time_s,
        "node_count": len(graph.index),
        "shells": shells,
        "satellites": [active[shell].size for shell in shells],
    }
    bandwidths, palette = _pack_bandwidths(graph.bandwidths_kbps)
    arrays = (
        *_pack_nodes(graph.node_a, graph.node_b, len(graph.index)),
        graph.delay_counts,
        bandwidths,
        graph.link_type_codes,
        _narrowest(state.trend.step),
        _narrowest(state.trend.curve),
        palette,
        *(wire.pack_set(np.flatnonzero(active[shell]), active[shell].size) for shell in shells),
    )
    return wire.encode_frame(FrameKind.KEYFRAME, meta, arrays)


def encode_diff_update(diff: "ConstellationDiff", epoch: int) -> bytes:
    """Encode one epoch's DIFF frame from the constellation diff: each
    changed link's step from the epoch's trend, predicted from the previous
    epoch's (both ride on the diff)."""
    topology, trend = diff.topology, diff.previous_trend
    current, added = topology.current, topology.links_added
    changed, was = topology.delay_changed, topology.delay_changed_previous
    held = trend.step[was]
    residuals, escapes, bits = _pack_residuals(diff.trend.step[changed] - held - trend.curve[was])
    # Only shells with a flip travel: an array descriptor costs more than most sets.
    shells = sorted(shell for shell, ids in diff.flipped.items() if ids.size)
    satellites = current.index.shell_sizes
    links = [topology.previous.total_links(), current.total_links()]
    meta = {"epoch": epoch, "time_s": diff.time_s, "links": links, "shells": shells, "bits": bits}
    arrays = (
        wire.pack_set(topology.links_removed, links[0]),
        wire.pack_set(added, links[1]),
        *_pack_nodes(current.node_a[added], current.node_b[added], len(current.index)),
        current.delay_counts[added],
        current.bandwidths_kbps[added],
        current.link_type_codes[added],
        wire.pack_set(_surprises(topology, trend, held), links[1]),
        residuals,
        escapes,
        wire.pack_set(topology.bandwidth_changed, links[1]),
        current.bandwidths_kbps[topology.bandwidth_changed],
        *(wire.pack_set(diff.flipped[shell], satellites[shell]) for shell in shells),
    )
    return wire.encode_frame(FrameKind.DIFF, meta, arrays)


def _merge(
    columns: list[np.ndarray], gone: np.ndarray, at: np.ndarray, fresh: list[np.ndarray]
) -> list[np.ndarray]:
    """``columns`` without the links at positions ``gone`` and with added ones
    at positions ``at`` of the new order, whose values ``fresh`` holds: the
    runs of held links between the changes, copied whole (an epoch changes a
    handful of links among thousands)."""
    # The i-th added link follows at[i] - i kept links: it goes in ahead of
    # the held link at ahead[i] (and ahead of a removal there).
    cuts = at - np.arange(at.size)
    ahead = cuts + np.searchsorted(gone - np.arange(gone.size), cuts, side="right")
    additions = ((position, 0, i) for i, position in enumerate(ahead.tolist()))
    removals = ((position, 1, 0) for position in gone.tolist())
    # A piece is (0, slice) of a held column or (1, slice) of ``fresh``.
    pieces, start = [], 0
    for position, removed, i in sorted([*additions, *removals]):
        pieces.append((0, slice(start, position)))
        if removed:
            start = position + 1
        else:
            pieces.append((1, slice(i, i + 1)))
            start = position
    pieces.append((0, slice(start, columns[0].size)))
    return [
        np.concatenate(
            [(held, new)[source][part] for source, part in pieces],
            dtype=held.dtype,
            casting="unsafe",
        )
        for held, new in zip(columns, fresh)
    ]


# -- client-side replica -------------------------------------------------------


class EpochReplica:
    """A subscriber's reconstruction of the streamed state projection.

    Holds the links as five parallel arrays in canonical order (the link
    columns of :class:`EpochSnapshot`), plus the held epoch's
    :class:`~repro.core.constellation.DelayTrend` that a DIFF's residuals
    predict from — the publication's, column for column — and patches them
    with each DIFF's masks.  A DIFF
    that does not chain onto the replica — not the next epoch, or not the
    link count it holds — raises :class:`CodecError` and changes nothing:
    the subscriber must resynchronise from a keyframe, which the gateway
    provides after a slow-client eviction.
    :meth:`snapshot` is bit-identical to :meth:`EpochSnapshot.from_state`
    at the same epoch.
    """

    def __init__(self):
        self.epoch: Optional[int] = None
        self.time_s: Optional[float] = None
        self.node_count = 0
        dtypes = (np.int64, np.int64, np.uint32, np.float64, np.int8)
        #: node_a, node_b, delay (grid counts), bandwidth_kbps, link_type:
        #: the replica's own arrays, patched in place by the next DIFF.
        self.links: list[np.ndarray] = [np.empty(0, dtype=dtype) for dtype in dtypes]
        #: The held epoch's delay trend (module docstring).
        self.trend = DelayTrend(*np.empty((2, 0), dtype=np.int64), 0)
        self.active: dict[int, np.ndarray] = {}
        #: What the last DIFF applied, as positions: removed (previous
        #: order), added, delay changed and bandwidth changed (new order),
        #: and the flipped satellites of each shell that had a flip.  ``None``
        #: after a KEYFRAME.
        self.applied: Optional[tuple] = None
        self.applied_keyframes = 0
        self.applied_diffs = 0

    def apply(self, update: EpochUpdate) -> None:
        """Apply one decoded update (keyframe resync or chained diff)."""
        meta, arrays = update.decoded()
        if update.kind is FrameKind.KEYFRAME:
            self._apply_keyframe(meta, arrays)
        elif update.kind is FrameKind.DIFF:
            self._apply_diff(meta, arrays)
        else:
            raise CodecError(f"cannot apply a {update.kind.name} frame to a replica")

    def _apply_keyframe(self, meta: dict, arrays: list[np.ndarray]) -> None:
        epoch, time_s, node_count, shells, satellites = (
            meta.get(key) for key in ("epoch", "time_s", "node_count", "shells", "satellites")
        )
        if not (
            _is_count(epoch)
            and _is_number(time_s)
            and _is_count(node_count)
            and node_count > 0
            and _are_shells(shells)
            and isinstance(satellites, list)
            and all(map(_is_count, satellites))
        ):
            raise CodecError(f"a malformed KEYFRAME meta: {meta!r:.200}")
        if not len(shells) == len(satellites) == len(arrays) - _KEYFRAME_ARRAYS:
            raise CodecError(f"a KEYFRAME of {len(shells)} shells has no {len(arrays)} arrays")
        columns = arrays[:5]  # positions: the module docstring's table
        steps, curves, palette = arrays[5:_KEYFRAME_ARRAYS]
        _check_delays(columns[2])
        columns[3] = _unpack_bandwidths(columns[3], palette)
        if steps.dtype.kind != "i" or curves.dtype.kind != "i":
            raise CodecError(
                f"steps and curves travel as signed integers, not {steps.dtype} / {curves.dtype}"
            )
        if any(column.shape != (columns[0].size,) for column in (*columns, steps, curves)):
            raise CodecError("the link arrays of a KEYFRAME differ in length")
        node_a, node_b, types = columns[0], columns[1], columns[4]
        _check_link_dtypes(node_a, node_b, types)
        if not ((node_a >= 0) & (node_a < node_b) & (node_b < node_count)).all():
            raise CodecError(f"a link's endpoints are not 0 <= a < b < {node_count}")
        if not (types.view(np.uint8) <= 1).all():
            raise CodecError("a link type code is not 0 … 1")
        # (node_a, node_b) pairs ascend: the canonical order, with no key
        # product to overflow.
        low, high = node_a[:-1], node_a[1:]
        if not ((low < high) | ((low == high) & (node_b[:-1] < node_b[1:]))).all():
            raise CodecError("the links of a KEYFRAME do not ascend in the canonical order")
        active = {}
        for shell, length, packed in zip(shells, satellites, arrays[_KEYFRAME_ARRAYS:]):
            ids = wire.unpack_set(packed, length, CodecError)
            active[shell] = np.zeros(length, dtype=bool)
            active[shell][ids] = True
        # Decoded arrays are read-only views of the frame; the replica owns copies.
        self.links = [np.array(new, dtype=held.dtype) for held, new in zip(self.links, columns)]
        self.trend = DelayTrend(
            steps.astype(np.int64), curves.astype(np.int64), int(np.count_nonzero(steps))
        )
        self.active = active
        self.applied = None
        self.epoch = epoch
        self.time_s = time_s
        self.node_count = node_count
        self.applied_keyframes += 1

    def _apply_diff(self, meta: dict, arrays: list[np.ndarray]) -> None:
        if self.epoch is None:
            raise CodecError("a replica must start from a KEYFRAME")
        epoch, time_s, links, shells = (
            meta.get(key) for key in ("epoch", "time_s", "links", "shells")
        )
        if not (
            _is_count(epoch)
            and _is_number(time_s)
            and _are_shells(shells)
            and isinstance(links, list)
            and len(links) == 2
            and all(map(_is_count, links))
        ):
            raise CodecError(f"a malformed DIFF meta: {meta!r:.200}")
        if epoch != self.epoch + 1:
            raise CodecError(
                f"diff for epoch {epoch} does not chain onto replica epoch "
                f"{self.epoch}; resynchronise from a keyframe"
            )
        self._patch(meta, arrays)
        self.epoch = epoch
        self.time_s = time_s
        self.applied_diffs += 1

    def _patch(self, meta: dict, arrays: list[np.ndarray]) -> None:
        """Apply a DIFF's link and activity changes — every check first."""
        shells = meta["shells"]
        if len(arrays) != _DIFF_ARRAYS + len(shells):
            raise CodecError(f"a DIFF of {len(shells)} shells has no {len(arrays)} arrays")
        removed, added, *fresh = arrays[:7]  # arrays 0-6 of the module docstring's table
        delay_mask, delays, escapes, bandwidth_changed, bandwidths = arrays[7:_DIFF_ARRAYS]
        bits = meta.get("bits")
        if type(bits) is not int or not 1 <= bits <= 8:
            raise CodecError(f"residual fields are 1 to 8 bits wide, not {bits!r}")
        _check_delays(fresh[2])
        if fresh[3].dtype != np.float64 or bandwidths.dtype != np.float64:
            raise CodecError(
                f"bandwidths travel as float64, not {fresh[3].dtype} / {bandwidths.dtype}"
            )
        before, after = meta["links"]
        if before != self.links[0].size:
            raise CodecError(
                f"a diff of {before} links onto a replica of {self.links[0].size}; "
                f"resynchronise from a keyframe"
            )
        removed = _positions(removed, before)
        if after != before - removed.size + fresh[0].size:
            raise CodecError(f"diff for epoch {meta['epoch']} does not add up to {after} links")
        added = _positions(added, after, *fresh)
        if added.size:
            _check_link_dtypes(fresh[0], fresh[1], fresh[4])
        delay_mask = _positions(delay_mask, after)
        bandwidth_changed = _positions(bandwidth_changed, after, bandwidths)
        active, flips = {}, {}
        for shell, packed in zip(shells, arrays[_DIFF_ARRAYS:]):
            if shell not in self.active:
                raise CodecError(f"diff for epoch {meta['epoch']} flips shell {shell}, not held")
            active[shell] = self.active[shell].copy()
            flips[shell] = wire.unpack_set(packed, active[shell].size, CodecError)
            active[shell][flips[shell]] ^= True
        links, steps, curves = self.links, self.trend.step, self.trend.curve
        if added.size or removed.size:
            zeros = np.zeros(added.size, dtype=np.int64)  # an added link's trend is 0
            *links, steps, curves = _merge(
                [*links, steps, curves], removed, added, [*fresh, zeros, zeros]
            )
            self._check_added(links, added)
        stepped = steps != 0  # the mask is the surprises: XOR the links with a step
        stepped[delay_mask] ^= True
        delay_changed = np.flatnonzero(stepped)
        held_steps = steps[delay_changed]
        residuals = _unpack_residuals(delays, bits, delay_changed.size, escapes)
        new_steps = held_steps + curves[delay_changed] + residuals
        counts = links[2][delay_changed] + new_steps
        if counts.size and (counts.min() < 0 or counts.max() >= 2**32):
            raise CodecError("a residual decodes to a delay count outside the uint32 grid")
        self.trend = DelayTrend.of(after, delay_changed, new_steps, held_steps)
        links[2][delay_changed] = counts
        links[3][bandwidth_changed] = bandwidths
        self.links = links
        self.active.update(active)
        self.applied = (removed, added, delay_changed, bandwidth_changed, flips)

    def _check_added(self, links: list[np.ndarray], at: np.ndarray) -> None:
        """The added links at positions ``at`` of the merged ``links``, one by
        one, as the KEYFRAME's columns are checked at once (a DIFF adds a
        handful): ``0 <= node_a < node_b < node_count``, a type code in 0…1,
        and a place strictly between the link's neighbours there.  Links
        compare as ``(node_a, node_b)`` tuples: the canonical order, with no
        key product to overflow."""
        node_a, node_b, types = links[0], links[1], links[4]
        last = node_a.size - 1
        for position in at.tolist():
            link, code = (int(node_a[position]), int(node_b[position])), int(types[position])
            if not (0 <= link[0] < link[1] < self.node_count and 0 <= code <= 1):
                raise CodecError(
                    f"added link {link} of type {code}: not 0 <= a < b < {self.node_count}, "
                    f"type 0 … 1"
                )
            if (position and (int(node_a[position - 1]), int(node_b[position - 1])) >= link) or (
                position < last and link >= (int(node_a[position + 1]), int(node_b[position + 1]))
            ):
                raise CodecError(f"added link {link} is out of place in the canonical order")

    def snapshot(self) -> EpochSnapshot:
        """The canonical projection of the replica (compare with the server's)."""
        if self.epoch is None:
            raise CodecError("the replica has not applied any update yet")
        node_a, node_b, counts, bandwidths, types = self.links
        active = {shell: mask.copy() for shell, mask in sorted(self.active.items())}
        return EpochSnapshot(
            self.epoch,
            self.time_s,
            self.node_count,
            node_a.copy(),
            node_b.copy(),
            np.multiply(counts, DELAY_GRID_MS, dtype=np.float64),
            bandwidths.copy(),
            types.copy(),
            active=active,
        )


# -- the codec -----------------------------------------------------------------


class EpochUpdateCodec:
    """Encodes the current epoch's keyframe/diff exactly once.

    Owned by the :class:`~repro.core.database.ConstellationDatabase`, and
    handed by its callers — the gateway's publish, subscribe and eviction
    paths — the state or diff to encode.  The codec remembers one epoch —
    the newest it was asked about — and that epoch's KEYFRAME and DIFF
    bytes, made on first use.  A diff the coordinator rebuilt from the
    calculation child's frame carries that frame
    (:attr:`~repro.core.constellation.ConstellationDiff.frame`), and the
    codec adopts its bytes instead of encoding them again: the driver
    consumes its own stream, as a subscriber does.  ``encode_count`` counts
    the frames made for the stream, encoded here or adopted — one encoding
    each, the single-encode guarantee the fan-out benchmark pins down.

    Every frame is a function of the publication it is encoded from: a
    KEYFRAME of the state (which carries its delay trend), a DIFF of the
    diff (which carries the trends before and after), so the order in which
    seed keyframes and queued publications are encoded changes no byte.

    The codec is shared between the coordinator thread (publications) and
    the gateway's event-loop thread (fan-out, eviction resyncs), so an
    internal lock makes the check-and-encode atomic, keeping the
    exactly-once guarantee under concurrency.  A request for an epoch older
    than the remembered one (a publication still queued behind a newer
    subscription seed) is encoded and returned, not remembered.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._epoch = 0
        #: The remembered epoch's encoded frames, by kind.
        self._frames: dict[FrameKind, bytes] = {}
        self.encode_count = 0

    def _update(self, kind: FrameKind, epoch: int, encode) -> EpochUpdate:
        with self._lock:
            if epoch > self._epoch:
                self._epoch = epoch
                self._frames = {}
            data = self._frames.get(kind) if epoch == self._epoch else None
            if data is None:
                data = encode()
                self.encode_count += 1
                if epoch == self._epoch:
                    self._frames[kind] = data
        return EpochUpdate(kind, epoch, data)

    def keyframe_update(self, epoch: int, state: "ConstellationState") -> EpochUpdate:
        """The KEYFRAME update of ``epoch``, whose state is ``state``."""
        return self._update(FrameKind.KEYFRAME, epoch, lambda: encode_keyframe_update(state, epoch))

    def diff_update(self, epoch: int, diff: "ConstellationDiff") -> EpochUpdate:
        """The DIFF update advancing ``epoch - 1`` to ``epoch`` by ``diff``:
        the frame the diff was rebuilt from, when it carries one, else its
        encoding."""
        return self._update(
            FrameKind.DIFF, epoch, lambda: diff.frame or encode_diff_update(diff, epoch)
        )
