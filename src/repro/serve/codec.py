"""The shared epoch-update codec of the serving tier.

One unit of distribution — the :class:`EpochUpdate` — carries an epoch's
constellation change set.  It is encoded **exactly once** per epoch into
the versioned :mod:`repro.dist.wire` frame format (``KEYFRAME`` / ``DIFF``
frame kinds) and rendered as *views* everywhere else:

* the streaming gateway (:mod:`repro.serve.gateway`) fans the shared
  encoded bytes out to every subscriber,
* the info API's ``/diffs/<epoch>`` JSON is :func:`diff_json_record` over
  the decoded frame (the info API's own wire format, unchanged).

What travels is the network-observable projection of a
:class:`~repro.core.constellation.ConstellationState` — the
:class:`EpochSnapshot`: simulation clock, the undirected link set with
per-link delay/bandwidth/type, and the per-shell bounding-box activity
masks.  Satellite positions are *not* streamed (they change every epoch
and would make every diff as large as a keyframe); consumers that need
geometry query the info API.  A subscriber that applies its keyframe+diff
stream through an :class:`EpochReplica` reconstructs the snapshot
bit-for-bit at every epoch: array payloads travel as raw buffers, so
float bit patterns survive the round trip unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.dist import wire
from repro.dist.wire import FrameKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.constellation import ConstellationDiff, ConstellationState
    from repro.core.database import ConstellationDatabase
    from repro.topology.graph import TopologyDiff


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

    ``data`` is the shared wire-frame encoding — every consumer (gateway
    fan-out, the info API's JSON view) works from these same bytes.
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

    def json_record(self) -> dict:
        """The JSON view of a DIFF update (the ``/diffs`` wire format)."""
        if self.kind is not FrameKind.DIFF:
            raise CodecError(f"a {self.kind.name} update has no JSON view")
        return diff_json_record(*self.decoded())


# Fixed array layout of a DIFF frame, ahead of the per-shell id arrays.
_DIFF_FIELDS = (
    "added_endpoints",
    "added_delay_ms",
    "added_bandwidth_kbps",
    "added_type",
    "removed_endpoints",
    "delay_changed_endpoints",
    "delay_changed_ms",
    "bandwidth_changed_endpoints",
    "bandwidth_changed_kbps",
)


def encode_keyframe_update(state: "ConstellationState", epoch: int) -> bytes:
    """Encode one epoch's full-state KEYFRAME frame from its snapshot."""
    snapshot = EpochSnapshot.from_state(state, epoch)
    shells = sorted(snapshot.active)
    meta = {
        "epoch": epoch,
        "time_s": snapshot.time_s,
        "node_count": snapshot.node_count,
        "shells": shells,
    }
    arrays = (
        snapshot.node_a,
        snapshot.node_b,
        snapshot.delay_ms,
        snapshot.bandwidth_kbps,
        snapshot.link_type,
        *(snapshot.active[shell] for shell in shells),
    )
    return wire.encode_frame(FrameKind.KEYFRAME, meta, arrays)


def encode_diff_update(diff: "ConstellationDiff", epoch: int) -> bytes:
    """Encode one epoch's DIFF frame from the constellation diff."""
    topology = diff.topology
    shells = sorted(diff.activated)
    meta = {
        "epoch": epoch,
        "time_s": diff.time_s,
        "previous_time_s": diff.previous_time_s,
        "summary": diff.summary(),
        "shells": shells,
    }
    arrays = (
        topology.added_endpoints(),
        topology.current.delays_ms[topology.links_added],
        topology.current.bandwidths_kbps[topology.links_added],
        topology.current.link_type_codes[topology.links_added],
        topology.removed_endpoints(),
        topology.delay_changed_endpoints(),
        topology.delay_changed_values_ms(),
        topology.bandwidth_changed_endpoints(),
        topology.bandwidth_changed_values_kbps(),
        *(diff.activated[shell] for shell in shells),
        *(diff.deactivated.get(shell, np.empty(0, dtype=np.int64)) for shell in shells),
    )
    return wire.encode_frame(FrameKind.DIFF, meta, arrays)


def encode_skip_update(diff: "ConstellationDiff", epoch: int) -> bytes:
    """Encode the out-of-scope marker of one epoch: an *empty* DIFF frame.

    Scoped subscribers are not sent changes outside their scope, but their
    epoch chain must keep advancing; this frame carries the epoch and
    clock of the real diff with every change array empty, so an
    :class:`EpochReplica` applies it like any other diff.  ``skip: True``
    in the meta lets clients tell filtered epochs from genuinely quiet
    ones.
    """
    meta = {
        "epoch": epoch,
        "time_s": diff.time_s,
        "previous_time_s": diff.previous_time_s,
        "summary": {},
        "shells": [],
        "skip": True,
    }
    endpoints = np.empty((0, 2), dtype=np.int64)
    arrays = (
        endpoints,
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int8),
        endpoints,
        endpoints,
        np.empty(0, dtype=np.float64),
        endpoints,
        np.empty(0, dtype=np.float64),
    )
    return wire.encode_frame(FrameKind.DIFF, meta, arrays)


def _diff_arrays(meta: dict, arrays: list[np.ndarray]) -> dict[str, Any]:
    """Name the fixed and per-shell arrays of a decoded DIFF frame."""
    fixed = dict(zip(_DIFF_FIELDS, arrays))
    shells = meta["shells"]
    cursor = len(_DIFF_FIELDS)
    fixed["activated"] = dict(zip(shells, arrays[cursor : cursor + len(shells)]))
    cursor += len(shells)
    fixed["deactivated"] = dict(zip(shells, arrays[cursor : cursor + len(shells)]))
    return fixed


def diff_json_record(meta: dict, arrays: list[np.ndarray]) -> dict:
    """The ``/diffs/<epoch>`` JSON record of one decoded DIFF frame.

    This *is* the wire format the info API serves — per
    epoch one record with the change counters and flat ``[node_a, node_b,
    ...]`` rows: ``links_added`` carries ``[a, b, delay_ms,
    bandwidth_kbps]``, ``links_removed`` ``[a, b]``, ``delay_changed``
    ``[a, b, delay_ms]``, ``bandwidth_changed`` ``[a, b,
    bandwidth_kbps]`` — plus the per-shell ``activated``/``deactivated``
    satellite ids.  Rendered from the decoded frame so the JSON and the
    fan-out bytes can never disagree.
    """
    named = _diff_arrays(meta, arrays)

    def _rows(endpoints: np.ndarray, *values: np.ndarray) -> list:
        # Zip integer endpoint pairs with float value columns so the JSON
        # keeps node ids integral (column_stack would upcast everything).
        columns = [value.tolist() for value in values]
        return [
            [a, b, *row_values]
            for (a, b), *row_values in zip(endpoints.tolist(), *columns)
        ]

    return {
        "epoch": meta["epoch"],
        "time_s": meta["time_s"],
        "previous_time_s": meta["previous_time_s"],
        "summary": meta["summary"],
        "links_added": _rows(
            named["added_endpoints"],
            named["added_delay_ms"],
            named["added_bandwidth_kbps"],
        ),
        "links_removed": named["removed_endpoints"].tolist(),
        "delay_changed": _rows(
            named["delay_changed_endpoints"], named["delay_changed_ms"]
        ),
        "bandwidth_changed": _rows(
            named["bandwidth_changed_endpoints"], named["bandwidth_changed_kbps"]
        ),
        "activated": {
            str(shell): ids.tolist() for shell, ids in named["activated"].items()
        },
        "deactivated": {
            str(shell): ids.tolist() for shell, ids in named["deactivated"].items()
        },
    }


def changed_nodes(topology: "TopologyDiff") -> np.ndarray:
    """Flat node indices a topology diff touches (for scope filtering).

    Sorted and unique: the endpoints of every added, removed,
    delay-changed and bandwidth-changed link — the endpoint arrays of the
    epoch's DIFF frame, read from the diff's graphs instead of decoded
    back out of the frame.
    """
    current, previous = topology.current, topology.previous
    changed = np.concatenate(
        [topology.links_added, topology.delay_changed, topology.bandwidth_changed]
    )
    removed = topology.links_removed
    return np.unique(
        np.concatenate(
            [
                current.node_a[changed],
                current.node_b[changed],
                previous.node_a[removed],
                previous.node_b[removed],
            ]
        )
    )


# -- client-side replica -------------------------------------------------------


class EpochReplica:
    """A subscriber's reconstruction of the streamed state projection.

    Applies KEYFRAME and DIFF updates in stream order; a DIFF whose epoch
    does not chain onto the replica's epoch, or that changes a link the
    replica does not hold, raises :class:`CodecError` (the subscriber must
    resynchronise from a keyframe, which the gateway provides after a
    slow-client eviction and after a skipped epoch).  Values are kept
    exactly as decoded, so :meth:`snapshot` is bit-identical to the
    server's :meth:`EpochSnapshot.from_state` at the same epoch.
    """

    def __init__(self):
        self.epoch: Optional[int] = None
        self.time_s: Optional[float] = None
        self.node_count = 0
        self._links: dict[tuple[int, int], tuple[float, float, int]] = {}
        self.active: dict[int, np.ndarray] = {}
        self.applied_keyframes = 0
        self.applied_diffs = 0

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

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
        node_a, node_b, delays, bandwidths, types = arrays[:5]
        self._links = {
            self._key(a, b): (delay, bandwidth, kind)
            for a, b, delay, bandwidth, kind in zip(
                node_a.tolist(),
                node_b.tolist(),
                delays.tolist(),
                bandwidths.tolist(),
                types.tolist(),
            )
        }
        shells = meta["shells"]
        self.active = {
            shell: np.array(mask, dtype=bool)
            for shell, mask in zip(shells, arrays[5 : 5 + len(shells)])
        }
        self.epoch = meta["epoch"]
        self.time_s = meta["time_s"]
        self.node_count = meta["node_count"]
        self.applied_keyframes += 1

    def _apply_diff(self, meta: dict, arrays: list[np.ndarray]) -> None:
        if self.epoch is None:
            raise CodecError("a replica must start from a KEYFRAME")
        if meta["epoch"] != self.epoch + 1:
            raise CodecError(
                f"diff for epoch {meta['epoch']} does not chain onto "
                f"replica epoch {self.epoch}; resynchronise from a keyframe"
            )
        named = _diff_arrays(meta, arrays)
        for (a, b), delay, bandwidth, kind in zip(
            named["added_endpoints"].tolist(),
            named["added_delay_ms"].tolist(),
            named["added_bandwidth_kbps"].tolist(),
            named["added_type"].tolist(),
        ):
            self._links[self._key(a, b)] = (delay, bandwidth, kind)
        for a, b in named["removed_endpoints"].tolist():
            self._links.pop(self._key(a, b), None)
        try:
            for (a, b), delay in zip(
                named["delay_changed_endpoints"].tolist(),
                named["delay_changed_ms"].tolist(),
            ):
                key = self._key(a, b)
                _, bandwidth, kind = self._links[key]
                self._links[key] = (delay, bandwidth, kind)
            for (a, b), bandwidth in zip(
                named["bandwidth_changed_endpoints"].tolist(),
                named["bandwidth_changed_kbps"].tolist(),
            ):
                key = self._key(a, b)
                delay, _, kind = self._links[key]
                self._links[key] = (delay, bandwidth, kind)
        except KeyError as error:
            # The replica's link table is stale (it was sent a skip marker
            # for an epoch that added this link).
            raise CodecError(
                f"diff for epoch {meta['epoch']} changes link {error.args[0]} "
                f"the replica does not hold; resynchronise from a keyframe"
            ) from None
        for shell, ids in named["activated"].items():
            self.active[shell][ids] = True
        for shell, ids in named["deactivated"].items():
            self.active[shell][ids] = False
        self.epoch = meta["epoch"]
        self.time_s = meta["time_s"]
        self.applied_diffs += 1

    def snapshot(self) -> EpochSnapshot:
        """The canonical projection of the replica (compare with the server's)."""
        if self.epoch is None:
            raise CodecError("the replica has not applied any update yet")
        keys = sorted(self._links)
        node_a = np.array([k[0] for k in keys], dtype=np.int64)
        node_b = np.array([k[1] for k in keys], dtype=np.int64)
        values = [self._links[k] for k in keys]
        return EpochSnapshot(
            epoch=self.epoch,
            time_s=self.time_s,
            node_count=self.node_count,
            node_a=node_a,
            node_b=node_b,
            delay_ms=np.array([v[0] for v in values], dtype=np.float64),
            bandwidth_kbps=np.array([v[1] for v in values], dtype=np.float64),
            link_type=np.array([v[2] for v in values], dtype=np.int8),
            active={shell: mask.copy() for shell, mask in sorted(self.active.items())},
        )


# -- the codec -----------------------------------------------------------------


class EpochUpdateCodec:
    """Encodes each epoch's keyframe/diff exactly once, pruned with history.

    Owned by the :class:`~repro.core.database.ConstellationDatabase`:
    updates are sourced from ``keyframe_state``/``diffs_between`` (or the
    state/diff the caller passes at publish time), encoded on first use
    and cached by epoch.  ``encode_count`` counts actual frame encodings —
    the single-encode guarantee the fan-out benchmark pins down.

    The codec is shared between the coordinator thread (publications,
    history pruning, info-API rendering) and the gateway's event-loop
    thread (fan-out, eviction resyncs), so an internal lock guards every
    cache mutation — the check-and-encode is atomic, keeping the
    exactly-once guarantee under concurrency.  ``prune`` additionally
    records a floor so a publish racing a prune cannot re-insert a pruned
    epoch that would then be cached forever.  Lock ordering: callers may
    hold the database lock when entering the codec (database → codec);
    the codec resolves any database lookups *before* taking its own lock,
    so the reverse order never occurs.
    """

    def __init__(self, database: "ConstellationDatabase"):
        self._database = database
        self._keyframes: dict[int, bytes] = {}
        self._diffs: dict[int, bytes] = {}
        self._lock = threading.Lock()
        self._oldest_keyframe = 0  # prune floor: see `prune`
        self.encode_count = 0

    def keyframe_update(
        self, epoch: Optional[int] = None, state: Optional["ConstellationState"] = None
    ) -> EpochUpdate:
        """The KEYFRAME update of an epoch (current epoch by default).

        ``state`` short-circuits the database lookup when the caller — the
        gateway's publish path — already holds the epoch's state; other
        epochs must be retained keyframes (``KeyError`` otherwise).
        """
        database = self._database
        if epoch is None:
            epoch = database.epoch
        with self._lock:
            data = self._keyframes.get(epoch)
        if data is None:
            if state is None:
                if epoch == database.epoch:
                    state = database.state
                else:
                    state = database.keyframe_state(epoch)
            with self._lock:
                data = self._keyframes.get(epoch)
                if data is None:
                    data = encode_keyframe_update(state, epoch)
                    self.encode_count += 1
                    if epoch >= self._oldest_keyframe:
                        self._keyframes[epoch] = data
        return EpochUpdate(FrameKind.KEYFRAME, epoch, data)

    def diff_update(
        self, epoch: int, diff: Optional["ConstellationDiff"] = None
    ) -> EpochUpdate:
        """The DIFF update advancing ``epoch - 1`` to ``epoch``."""
        with self._lock:
            data = self._diffs.get(epoch)
        if data is None:
            if diff is None:
                chain = self._database.diffs_between(epoch - 1, epoch)
                if not chain:
                    raise KeyError(f"no diff recorded for epoch {epoch}")
                diff = chain[0]
            with self._lock:
                data = self._diffs.get(epoch)
                if data is None:
                    data = encode_diff_update(diff, epoch)
                    self.encode_count += 1
                    if epoch > self._oldest_keyframe:
                        self._diffs[epoch] = data
        return EpochUpdate(FrameKind.DIFF, epoch, data)

    def prune(self, oldest_keyframe: int) -> None:
        """Drop cached frames the database's history pruning released.

        Mirrors ``ConstellationDatabase._prune_history``: keyframe bytes
        before the oldest retained keyframe and diff bytes at or before it
        are dropped, so the cache footprint tracks the retained window.
        The floor is remembered so concurrent encoders skip caching frames
        for already-pruned epochs (they still return the encoded update).
        """
        with self._lock:
            self._oldest_keyframe = max(self._oldest_keyframe, oldest_keyframe)
            floor = self._oldest_keyframe
            for epoch in [e for e in self._keyframes if e < floor]:
                del self._keyframes[epoch]
            for epoch in [e for e in self._diffs if e <= floor]:
                del self._diffs[epoch]
