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

Frame layout
------------

Server and replica share one *canonical link order*: links normalised to
``node_a < node_b``, ascending by ``node_a * node_count + node_b``
(``NetworkGraph.sorted_edge_ids``).  A frame names a link by its position
in that order — one bit of an ``np.packbits`` mask (none set: an empty
array) — so a DIFF means something only to a replica that holds the
previous epoch's links: its meta carries the link counts before and after,
and a frame that does not chain is a :class:`CodecError`.  A delay array
travels as ``uint32`` counts of ``DELAY_GRID_MS`` steps when every value is
a non-negative multiple of the grid below 2**32 steps — every delay the
pipeline computes — and as its ``float64`` values otherwise; the array's
dtype in the frame says which, so off-grid delays stay bit-exact.

``DIFF`` — meta ``epoch``, ``time_s``, ``links`` (``[before, after]``),
``shells`` (those with an activity flip).

== ================= ================ ============================ ==========
#  array             dtype            meaning                      mask order
== ================= ================ ============================ ==========
0  removed           uint8 (packed)   links that disappeared       previous
1  added             uint8 (packed)   links that appeared          current
2  added node_a      int32            their lower endpoints
3  added node_b      int32            their higher endpoints
4  added delay       uint32 | float64 their delays
5  added bandwidth   float64          their bandwidths [kbps]
6  added type        int8             their link type codes
7  delay changed     uint8 (packed)   surviving links, new delay   current
8  new delay         uint32 | float64 those delays
9  bandwidth changed uint8 (packed)   surviving links, new b/w     current
10 new bandwidth     float64          those bandwidths [kbps]
11 activated         int64, per shell satellite ids entering the box
.. deactivated       int64, per shell satellite ids leaving the box
== ================= ================ ============================ ==========

Value arrays hold one entry per set bit of their mask, in mask order.  The
replica applies *removed* (a mask over the links it holds), then *added*
(a mask over the new order: kept links fill the clear positions, added
ones the set positions), then *delay changed* and *bandwidth changed*
(masks over the new order), then the activity flips.

``KEYFRAME`` — meta ``epoch``, ``time_s``, ``node_count``, ``shells``,
``satellites`` (each shell's mask length); arrays in canonical order:
``node_a``, ``node_b`` (``int32``), delay (coded as above), bandwidth
(``float64``), type (``int8``), then one packed activity mask per shell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.dist import wire
from repro.dist.wire import FrameKind
from repro.topology.linkparams import DELAY_GRID_MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.constellation import ConstellationDiff, ConstellationState
    from repro.core.database import ConstellationDatabase
    from repro.topology.graph import NetworkGraph


class CodecError(ValueError):
    """Raised when an epoch-update frame does not decode to a valid update."""


# -- the streamed projection ---------------------------------------------------


@dataclass(frozen=True)
class EpochSnapshot:
    """The streamed, canonically ordered projection of one epoch's state.

    Links are normalised to ``node_a < node_b`` and sorted by the flat
    edge key ``node_a * node_count + node_b``, so the snapshot of a
    server-side state and of a client-side replica are comparable
    independently of graph insertion order.  ``active`` maps shell index
    to the boolean bounding-box activity mask.
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
        """The canonical projection of a server-side state."""
        graph = state.graph
        node_count = len(graph.index)
        a, b = graph.node_a, graph.node_b
        low, high = np.minimum(a, b), np.maximum(a, b)
        order = graph.sorted_edge_ids
        return cls(
            epoch=epoch,
            time_s=state.time_s,
            node_count=node_count,
            node_a=np.ascontiguousarray(low[order]),
            node_b=np.ascontiguousarray(high[order]),
            delay_ms=np.ascontiguousarray(graph.delays_ms[order]),
            bandwidth_kbps=np.ascontiguousarray(graph.bandwidths_kbps[order]),
            link_type=np.ascontiguousarray(graph.link_type_codes[order]),
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


_GRID_STEPS_PER_MS = 1.0 / DELAY_GRID_MS
_NO_LINKS = np.empty(0, dtype=np.uint8)
#: Arrays of a KEYFRAME / DIFF frame ahead of the per-shell ones.
_KEYFRAME_ARRAYS = 5
_DIFF_ARRAYS = 11


def _pack_delays(delays_ms: np.ndarray) -> np.ndarray:
    """Delays as ``uint32`` grid-step counts when that decodes to the same bits
    (else as they are: off the grid, out of range, -0.0, not finite)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the cast's garbage fails the test
        steps = (delays_ms * _GRID_STEPS_PER_MS).astype(np.uint32)
    return steps if _unpack_delays(steps).tobytes() == delays_ms.tobytes() else delays_ms


def _unpack_delays(values: np.ndarray) -> np.ndarray:
    if values.dtype == np.uint32:
        return np.multiply(values, DELAY_GRID_MS, dtype=np.float64)
    if values.dtype == np.float64:
        return values
    raise CodecError(f"delays travel as uint32 grid steps or float64, not {values.dtype}")


def _pack_nodes(node_a: np.ndarray, node_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``int32`` endpoint columns of some links, lower node first.  (A graph
    allocates per-node arrays, so its node indices are far below 2**31.)"""
    return np.minimum(node_a, node_b).astype(np.int32), np.maximum(node_a, node_b).astype(np.int32)


def _pack_positions(graph: "NetworkGraph", edge_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``edge_ids`` as a packed mask over ``graph``'s canonical link order,
    and the same ids sorted into that order."""
    if not edge_ids.size:
        return _NO_LINKS, edge_ids
    order = graph.sorted_edge_ids
    chosen = np.zeros(order.size, dtype=bool)
    chosen[edge_ids] = True
    mask = chosen[order]
    return np.packbits(mask), order[mask]


def _unpack_mask(packed: np.ndarray, length: int, *values: np.ndarray) -> np.ndarray:
    """The boolean mask over ``length`` positions that a frame carries packed
    (empty: no bit set); each of ``values`` must hold one entry per set bit."""
    if not packed.size:
        mask = np.zeros(length, dtype=bool)
    elif packed.dtype == np.uint8 and packed.shape == ((length + 7) // 8,):
        mask = np.unpackbits(packed, count=length).view(bool)
    else:
        raise CodecError(f"a {packed.dtype}{packed.shape} mask does not cover {length} positions")
    chosen = int(np.count_nonzero(mask))
    for array in values:
        if array.shape != (chosen,):
            raise CodecError(f"{array.shape} values for a mask with {chosen} bits set")
    return mask


def encode_keyframe_update(state: "ConstellationState", epoch: int) -> bytes:
    """Encode one epoch's full-state KEYFRAME frame from its snapshot."""
    snapshot = EpochSnapshot.from_state(state, epoch)
    shells = sorted(snapshot.active)
    meta = {
        "epoch": epoch,
        "time_s": snapshot.time_s,
        "node_count": snapshot.node_count,
        "shells": shells,
        "satellites": [snapshot.active[shell].size for shell in shells],
    }
    arrays = (
        *_pack_nodes(snapshot.node_a, snapshot.node_b),
        _pack_delays(snapshot.delay_ms),
        snapshot.bandwidth_kbps,
        snapshot.link_type,
        *(np.packbits(snapshot.active[shell]) for shell in shells),
    )
    return wire.encode_frame(FrameKind.KEYFRAME, meta, arrays)


def encode_diff_update(diff: "ConstellationDiff", epoch: int) -> bytes:
    """Encode one epoch's DIFF frame from the constellation diff."""
    topology = diff.topology
    previous, current = topology.previous, topology.current
    removed_mask, _ = _pack_positions(previous, topology.links_removed)
    added_mask, added = _pack_positions(current, topology.links_added)
    delay_mask, delay_changed = _pack_positions(current, topology.delay_changed)
    bandwidth_mask, bandwidth_changed = _pack_positions(current, topology.bandwidth_changed)
    # Only shells with a flip travel: an array descriptor costs more than most id lists.
    shells = sorted(
        shell for shell, ids in diff.activated.items() if ids.size or diff.deactivated[shell].size
    )
    meta = {
        "epoch": epoch,
        "time_s": diff.time_s,
        "links": [previous.total_links(), current.total_links()],
        "shells": shells,
    }
    arrays = (
        removed_mask,
        added_mask,
        *_pack_nodes(current.node_a[added], current.node_b[added]),
        _pack_delays(current.delays_ms[added]),
        current.bandwidths_kbps[added],
        current.link_type_codes[added],
        delay_mask,
        _pack_delays(current.delays_ms[delay_changed]),
        bandwidth_mask,
        current.bandwidths_kbps[bandwidth_changed],
        *(diff.activated[shell] for shell in shells),
        *(diff.deactivated[shell] for shell in shells),
    )
    return wire.encode_frame(FrameKind.DIFF, meta, arrays)


# -- client-side replica -------------------------------------------------------


class EpochReplica:
    """A subscriber's reconstruction of the streamed state projection.

    Holds the links as five parallel arrays in canonical order (the link
    columns of :class:`EpochSnapshot`) and patches them with each DIFF's
    masks.  A DIFF that does not chain onto the replica — not the next
    epoch, or not the link count it holds — raises :class:`CodecError` and
    changes nothing: the subscriber must resynchronise from a keyframe,
    which the gateway provides after a slow-client eviction.
    :meth:`snapshot` is bit-identical to :meth:`EpochSnapshot.from_state`
    at the same epoch.
    """

    def __init__(self):
        self.epoch: Optional[int] = None
        self.time_s: Optional[float] = None
        self.node_count = 0
        # node_a, node_b, delay_ms, bandwidth_kbps, link_type
        dtypes = (np.int64, np.int64, np.float64, np.float64, np.int8)
        self._links: list[np.ndarray] = [np.empty(0, dtype=dtype) for dtype in dtypes]
        self.active: dict[int, np.ndarray] = {}
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
        shells, satellites = meta["shells"], meta["satellites"]
        if not len(shells) == len(satellites) == len(arrays) - _KEYFRAME_ARRAYS:
            raise CodecError(f"a KEYFRAME of {len(shells)} shells has no {len(arrays)} arrays")
        columns = arrays[:_KEYFRAME_ARRAYS]
        columns[2] = _unpack_delays(columns[2])
        if any(column.shape != (columns[0].size,) for column in columns):
            raise CodecError("the link arrays of a KEYFRAME differ in length")
        active = {}
        for shell, length, packed in zip(shells, satellites, arrays[_KEYFRAME_ARRAYS:]):
            if not packed.size:  # "no bit set" is a DIFF's shorthand
                raise CodecError(f"the KEYFRAME has no activity mask for shell {shell}")
            active[shell] = _unpack_mask(packed, length)
        # Decoded arrays are read-only views of the frame; the replica owns copies.
        self._links = [np.array(new, dtype=held.dtype) for held, new in zip(self._links, columns)]
        self.active = active
        self.epoch = meta["epoch"]
        self.time_s = meta["time_s"]
        self.node_count = meta["node_count"]
        self.applied_keyframes += 1

    def _apply_diff(self, meta: dict, arrays: list[np.ndarray]) -> None:
        if self.epoch is None:
            raise CodecError("a replica must start from a KEYFRAME")
        if meta["epoch"] != self.epoch + 1:
            raise CodecError(
                f"diff for epoch {meta['epoch']} does not chain onto replica epoch "
                f"{self.epoch}; resynchronise from a keyframe"
            )
        self._patch(meta, arrays)
        self.epoch = meta["epoch"]
        self.time_s = meta["time_s"]
        self.applied_diffs += 1

    def _patch(self, meta: dict, arrays: list[np.ndarray]) -> None:
        """Apply a DIFF's link and activity changes — every check first."""
        shells = meta["shells"]
        if len(arrays) != _DIFF_ARRAYS + 2 * len(shells):
            raise CodecError(f"a DIFF of {len(shells)} shells has no {len(arrays)} arrays")
        removed, added, *fresh = arrays[:7]  # positions: the module docstring's table
        delay_changed, delays, bandwidth_changed, bandwidths = arrays[7:_DIFF_ARRAYS]
        fresh[2], delays = _unpack_delays(fresh[2]), _unpack_delays(delays)
        before, after = meta["links"]
        if before != self._links[0].size:
            raise CodecError(
                f"a diff of {before} links onto a replica of {self._links[0].size}; "
                f"resynchronise from a keyframe"
            )
        removed = _unpack_mask(removed, before)
        if after != before - np.count_nonzero(removed) + fresh[0].size:
            raise CodecError(f"diff for epoch {meta['epoch']} does not add up to {after} links")
        added = _unpack_mask(added, after, *fresh)
        delay_changed = _unpack_mask(delay_changed, after, delays)
        bandwidth_changed = _unpack_mask(bandwidth_changed, after, bandwidths)
        try:
            active = {shell: self.active[shell].copy() for shell in shells}
            for position, ids in enumerate(arrays[_DIFF_ARRAYS:]):  # activated come first
                active[shells[position % len(shells)]][ids] = position < len(shells)
        except (KeyError, IndexError) as error:
            raise CodecError(f"diff for epoch {meta['epoch']} flips unknown satellites") from error
        if fresh[0].size or removed.any():
            kept, surviving = ~removed, ~added
            for column, (held, new) in enumerate(zip(self._links, fresh)):
                merged = np.empty(after, dtype=held.dtype)
                merged[surviving] = held[kept]
                merged[added] = new
                self._links[column] = merged
        self._links[2][delay_changed] = delays
        self._links[3][bandwidth_changed] = bandwidths
        self.active.update(active)

    def snapshot(self) -> EpochSnapshot:
        """The canonical projection of the replica (compare with the server's)."""
        if self.epoch is None:
            raise CodecError("the replica has not applied any update yet")
        links = (column.copy() for column in self._links)
        active = {shell: mask.copy() for shell, mask in sorted(self.active.items())}
        return EpochSnapshot(self.epoch, self.time_s, self.node_count, *links, active=active)


# -- the codec -----------------------------------------------------------------


class EpochUpdateCodec:
    """Encodes the current epoch's keyframe/diff exactly once.

    Owned by the :class:`~repro.core.database.ConstellationDatabase`.  The
    codec remembers one epoch — the newest it was asked about — and that
    epoch's KEYFRAME and DIFF bytes, encoded on first use from the
    state/diff the caller passes at publish time (or the database's current
    ones).  ``encode_count`` counts actual frame encodings — the
    single-encode guarantee the fan-out benchmark pins down.

    The codec is shared between the coordinator thread (publications) and
    the gateway's event-loop thread (fan-out, eviction resyncs), so an
    internal lock makes the check-and-encode atomic, keeping the
    exactly-once guarantee under concurrency.  A request for an epoch older
    than the remembered one (a publication still queued behind a newer
    subscription seed) is encoded and returned, not remembered.  Lock
    ordering: callers may hold the database lock when entering the codec
    (database → codec); the codec reads the database *before* taking its
    own lock, so the reverse order never occurs.
    """

    def __init__(self, database: "ConstellationDatabase"):
        self._database = database
        self._lock = threading.Lock()
        self._epoch = 0
        #: The remembered epoch's encoded frames, by kind.
        self._frames: dict[FrameKind, bytes] = {}
        self.encode_count = 0

    def _update(self, kind: FrameKind, epoch: int, encode, source) -> EpochUpdate:
        with self._lock:
            if epoch > self._epoch:
                self._epoch = epoch
                self._frames = {}
            data = self._frames.get(kind) if epoch == self._epoch else None
            if data is None:
                data = encode(source, epoch)
                self.encode_count += 1
                if epoch == self._epoch:
                    self._frames[kind] = data
        return EpochUpdate(kind, epoch, data)

    def keyframe_update(
        self, epoch: Optional[int] = None, state: Optional["ConstellationState"] = None
    ) -> EpochUpdate:
        """The KEYFRAME update of an epoch (current epoch by default).

        ``state`` is the epoch's state when the caller — the gateway's
        publish path — already holds it; without it only the database's
        current epoch can be answered (``KeyError`` otherwise).
        """
        if state is None:
            with self._database.lock:
                current, state = self._database.epoch, self._database.state
            if epoch is None:
                epoch = current
            elif epoch != current:
                raise KeyError(f"epoch {epoch} is not the current epoch ({current})")
        elif epoch is None:
            epoch = self._database.epoch
        return self._update(FrameKind.KEYFRAME, epoch, encode_keyframe_update, state)

    def diff_update(
        self, epoch: int, diff: Optional["ConstellationDiff"] = None
    ) -> EpochUpdate:
        """The DIFF update advancing ``epoch - 1`` to ``epoch``.

        Without ``diff`` only the database's current epoch can be answered,
        and only when it was published with one (``KeyError`` otherwise).
        """
        if diff is None:
            with self._database.lock:
                current, diff = self._database.epoch, self._database.latest_diff
            if epoch != current or diff is None:
                raise KeyError(f"no diff recorded for epoch {epoch} (current: {current})")
        return self._update(FrameKind.DIFF, epoch, encode_diff_update, diff)
