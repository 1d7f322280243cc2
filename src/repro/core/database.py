"""Central constellation database on the coordinator.

The Constellation Calculation writes its results into a central database;
Celestial hosts serve this information to the emulated machines through the
HTTP info API (§3.2).  The database also acts as the rule provider for the
virtual network: the delay/bandwidth installed for a machine pair is derived
from the latest published state.

Diff history and keyframes
--------------------------

Under the differential update protocol the coordinator publishes, per
epoch, the new full state *plus* the
:class:`~repro.core.constellation.ConstellationDiff` against the previous
epoch.  The database keeps a rolling window of those diffs alongside
periodic full-state **keyframes**: every ``keyframe_interval``-th epoch
(and every epoch published without a diff) retains its complete state, and
the diff history is pruned so that it always spans back to the oldest
retained keyframe.  Consumers that fell behind can thus resynchronise from
the nearest keyframe at or before their epoch and replay
:meth:`diffs_since` forward, instead of re-reading the full constellation.

Pair rules: one batch per epoch
-------------------------------

A pair rule is valid for one epoch; :meth:`ConstellationDatabase.set_state`
drops them all.  What it keeps is *which* pairs had a rule in the epoch it
retires — the working set of the traffic.  The first
:meth:`~ConstellationDatabase.pair_rule` call of the new epoch that finds
no rule resolves its own pair and all of those with it, in one pass over
the path table (:meth:`ConstellationState.pair_metrics
<repro.core.constellation.ConstellationState.pair_metrics>`); a pair
outside the working set is the same pass with a batch of one.  Only pairs
the main path table answers are resolved ahead of demand: a
satellite-to-satellite pair still resolves when it is asked for, so the
extra-table cache sees exactly the queries the traffic makes.  The kept
list is bounded by the previous epoch's working set and replaced on every
``set_state``, whether or not it was used.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

import numpy as np

from repro.core.constellation import (
    ConstellationDiff,
    ConstellationState,
    MachineId,
    satellite_name,
)
from repro.net.network import PairRule

#: Signature of an epoch listener: ``(epoch, state, diff)`` per publication.
EpochListener = Callable[[int, ConstellationState, Optional[ConstellationDiff]], None]


def diff_json_record(diff: ConstellationDiff, epoch: int) -> dict:
    """The ``/diffs/<epoch>`` JSON record of one epoch's diff.

    This *is* the wire format the info API serves — per
    epoch one record with the change counters and flat ``[node_a, node_b,
    ...]`` rows: ``links_added`` carries ``[a, b, delay_ms,
    bandwidth_kbps]``, ``links_removed`` ``[a, b]``, ``delay_changed``
    ``[a, b, delay_ms]``, ``bandwidth_changed`` ``[a, b,
    bandwidth_kbps]`` — plus the per-shell ``activated``/``deactivated``
    satellite ids.  The streaming gateway's DIFF frame of the same epoch
    names links only relative to the previous epoch; a record is
    self-contained, so it is rendered from the diff that frame is encoded
    from, not from the frame.
    """
    topology = diff.topology
    current = topology.current
    shells = sorted(diff.activated)
    no_ids = np.empty(0, dtype=np.int64)

    def _rows(endpoints: np.ndarray, *values: np.ndarray) -> list:
        # Zip integer endpoint pairs with float value columns so the JSON
        # keeps node ids integral (column_stack would upcast everything).
        columns = [value.tolist() for value in values]
        return [
            [a, b, *row_values]
            for (a, b), *row_values in zip(endpoints.tolist(), *columns)
        ]

    return {
        "epoch": epoch,
        "time_s": diff.time_s,
        "previous_time_s": diff.previous_time_s,
        "summary": diff.summary(),
        "links_added": _rows(
            topology.added_endpoints(),
            current.delays_ms[topology.links_added],
            current.bandwidths_kbps[topology.links_added],
        ),
        "links_removed": topology.removed_endpoints().tolist(),
        "delay_changed": _rows(
            topology.delay_changed_endpoints(), topology.delay_changed_values_ms()
        ),
        "bandwidth_changed": _rows(
            topology.bandwidth_changed_endpoints(), topology.bandwidth_changed_values_kbps()
        ),
        "activated": {str(shell): diff.activated[shell].tolist() for shell in shells},
        "deactivated": {
            str(shell): diff.deactivated.get(shell, no_ids).tolist() for shell in shells
        },
    }


class ConstellationDatabase:
    """Holds the most recent constellation state and answers queries about it.

    The database is the publication point of the state-distribution path:
    :meth:`set_state` epochs feed the shared
    :class:`~repro.serve.codec.EpochUpdateCodec` (``self.codec``), which
    encodes each epoch's keyframe/diff exactly once for the streaming
    gateway's fan-out; the info API's ``/diffs`` JSON is rendered from the
    same recorded diffs.
    Reads and publications are serialised by an internal lock so info-API
    threads never observe a torn epoch; registered epoch listeners (the
    gateway) are notified after each publication, outside the lock.
    """

    def __init__(self, keyframe_interval: int = 10, retained_keyframes: int = 2):
        if keyframe_interval <= 0:
            raise ValueError("keyframe interval must be positive")
        if retained_keyframes <= 0:
            raise ValueError("at least one keyframe must be retained")
        self._state: Optional[ConstellationState] = None
        self.epoch = 0
        self.updated_at_s: Optional[float] = None
        self._rule_cache: dict[tuple[MachineId, MachineId], PairRule] = {}
        #: Pairs that had a rule in the previous epoch, until the first miss
        #: of this epoch resolves them in one batch.
        self._warm_pairs: list[tuple[MachineId, MachineId]] = []
        #: ``pair_rule`` calls / those that found no rule / pairs resolved
        #: ahead of demand by a batch (exact counts, for observability).
        self.rule_lookups = 0
        self.rule_misses = 0
        self.rule_batch_pairs = 0
        self.keyframe_interval = keyframe_interval
        self.retained_keyframes = retained_keyframes
        self._keyframes: dict[int, ConstellationState] = {}
        self._diffs: dict[int, ConstellationDiff] = {}
        self._lock = threading.RLock()
        self._listeners: list[EpochListener] = []
        # Imported here, not at module scope: repro.core imports the
        # database at package-import time, while the serving tier imports
        # repro.core — deferring to construction time breaks the cycle.
        from repro.serve.codec import EpochUpdateCodec

        self.codec = EpochUpdateCodec(self)

    # -- updates -----------------------------------------------------------

    def add_listener(self, listener: EpochListener) -> None:
        """Register a callable invoked after every published epoch."""
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: EpochListener) -> None:
        """Unregister a previously added epoch listener (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def set_state(
        self, state: ConstellationState, diff: Optional[ConstellationDiff] = None
    ) -> None:
        """Publish a new constellation state (called by the coordinator).

        ``diff`` is the change set between the previously published epoch
        and ``state``; epochs published without one (the first epoch, or a
        full resynchronisation) always become keyframes, because the diff
        chain towards them is broken.
        """
        with self._lock:
            self._state = state
            self.epoch += 1
            self.updated_at_s = state.time_s
            self._warm_pairs = list(self._rule_cache)
            self._rule_cache.clear()
            if diff is not None:
                self._diffs[self.epoch] = diff
            if diff is None or (self.epoch - 1) % self.keyframe_interval == 0:
                self._keyframes[self.epoch] = state
                self._prune_history()
            epoch = self.epoch
            listeners = list(self._listeners)
        # Listeners run outside the lock: the gateway's publish hook hands
        # the epoch to its event loop and must never delay the coordinator
        # or deadlock against a listener that reads the database back.
        for listener in listeners:
            listener(epoch, state, diff)

    def _prune_history(self) -> None:
        keyframe_epochs = sorted(self._keyframes)
        for stale in keyframe_epochs[: -self.retained_keyframes]:
            del self._keyframes[stale]
        oldest_keyframe = min(self._keyframes)
        for epoch in [e for e in self._diffs if e <= oldest_keyframe]:
            del self._diffs[epoch]
        self.codec.prune(oldest_keyframe)

    # -- diff history ------------------------------------------------------

    @property
    def latest_diff(self) -> Optional[ConstellationDiff]:
        """The diff between the two most recent epochs (None after a keyframe reset)."""
        with self._lock:
            return self._diffs.get(self.epoch)

    def keyframe_epochs(self) -> list[int]:
        """Epoch numbers of the retained full-state keyframes (ascending)."""
        with self._lock:
            return sorted(self._keyframes)

    def keyframe_state(self, epoch: int) -> ConstellationState:
        """The retained full state of a keyframe epoch."""
        with self._lock:
            if epoch not in self._keyframes:
                raise KeyError(f"epoch {epoch} is not a retained keyframe")
            return self._keyframes[epoch]

    def diffs_since(self, epoch: int) -> list[ConstellationDiff]:
        """The diff chain replaying ``epoch`` forward to the current epoch.

        ``epoch`` must be at or after the oldest retained keyframe (older
        history has been pruned) and the chain must be unbroken — a
        consumer at ``epoch`` applies the returned diffs in order to arrive
        at the current state.
        """
        with self._lock:
            if epoch > self.epoch:
                raise KeyError(
                    f"epoch {epoch} is in the future (current: {self.epoch})"
                )
            wanted = range(epoch + 1, self.epoch + 1)
            missing = [e for e in wanted if e not in self._diffs]
            if missing:
                raise KeyError(
                    f"diff history no longer covers epochs {missing}; "
                    f"resynchronise from a keyframe ({self.keyframe_epochs()})"
                )
            return [self._diffs[e] for e in wanted]

    def diffs_between(self, start_epoch: int, end_epoch: int) -> list[ConstellationDiff]:
        """The unbroken diff chain advancing ``start_epoch`` to ``end_epoch``.

        A consumer holding the state of ``start_epoch`` applies the returned
        diffs in order to arrive at ``end_epoch``.  Both epochs must lie
        within the retained history window; raises ``KeyError`` otherwise.
        (Retained diffs are contiguous — pruning only trims the old end —
        so the chain to the current epoch restricted to ``end_epoch`` is
        exactly the wanted chain.)
        """
        with self._lock:
            if not 0 <= start_epoch <= end_epoch <= self.epoch:
                raise KeyError(
                    f"epoch range [{start_epoch}, {end_epoch}] is not within "
                    f"[0, {self.epoch}]"
                )
            return self.diffs_since(start_epoch)[: end_epoch - start_epoch]

    def activity_at_epoch(self, epoch: int) -> dict[int, np.ndarray]:
        """Per-shell bounding-box activity masks as of a past epoch.

        Replayed from the nearest retained keyframe at or before ``epoch``
        plus the diff chain forward — this is how a crashed worker's
        supervisor reconstructs which of its satellites were suspended at
        the last acknowledged checkpoint (``repro.dist.supervisor``).
        Raises ``KeyError`` when the pruned history no longer reaches
        ``epoch``.
        """
        with self._lock:
            if epoch == self.epoch and self._state is not None:
                return {
                    shell: mask.copy()
                    for shell, mask in self._state.active_satellites.items()
                }
            anchors = [k for k in self._keyframes if k <= epoch]
            if not anchors:
                raise KeyError(
                    f"no retained keyframe at or before epoch {epoch} "
                    f"(keyframes: {self.keyframe_epochs()})"
                )
            anchor = max(anchors)
            masks = {
                shell: mask.copy()
                for shell, mask in self._keyframes[anchor].active_satellites.items()
            }
            for diff in self.diffs_between(anchor, epoch):
                for shell, identifiers in diff.activated.items():
                    masks[shell][identifiers] = True
                for shell, identifiers in diff.deactivated.items():
                    masks[shell][identifiers] = False
            return masks

    @property
    def lock(self) -> threading.RLock:
        """The reentrant lock serialising publications and reads.

        Consumers that make multiple correlated reads (e.g. the gateway's
        query path reading the state and its engine counters together)
        hold it across the whole read.
        """
        return self._lock

    @property
    def state(self) -> ConstellationState:
        """The latest published state."""
        if self._state is None:
            raise RuntimeError("no constellation state has been published yet")
        return self._state

    @property
    def has_state(self) -> bool:
        """Whether at least one state has been published."""
        return self._state is not None

    # -- virtual-network rule provider ---------------------------------------

    def pair_rule(self, source: MachineId, destination: MachineId) -> PairRule:
        """Delay/bandwidth rule currently installed for a machine pair."""
        with self._lock:
            self.rule_lookups += 1
            pair = (source, destination)
            rule = self._rule_cache.get(pair)
            if rule is None:
                self.rule_misses += 1
                warm, self._warm_pairs = self._warm_pairs, []
                self._resolve(pair, warm)
                rule = self._rule_cache[pair]
            return rule

    def _resolve(
        self,
        pair: tuple[MachineId, MachineId],
        warm: list[tuple[MachineId, MachineId]],
    ) -> None:
        """Derive and cache the rule of ``pair`` and, in the same pass, of
        every pair of ``warm`` that the main path table answers."""
        state = self.state
        is_source = state.paths.has_source
        nodes = {pair: (state.node_for(pair[0]), state.node_for(pair[1]))}
        for other in warm:
            node_a, node_b = state.node_for(other[0]), state.node_for(other[1])
            if is_source(node_a) or is_source(node_b):
                nodes.setdefault(other, (node_a, node_b))
        self.rule_batch_pairs += len(nodes) - 1
        delays, bandwidths = state.pair_metrics(*zip(*nodes.values()))
        for key, delay, bandwidth in zip(nodes, delays.tolist(), bandwidths.tolist()):
            reachable = math.isfinite(delay)
            self._rule_cache[key] = PairRule(
                delay_ms=delay if reachable else 0.0,
                bandwidth_kbps=bandwidth if reachable and bandwidth > 0 else None,
                reachable=reachable,
            )

    def diff_history_info(self, since_epoch: int) -> dict:
        """Wire-format diff history: "what changed since ``since_epoch``?".

        Served over the HTTP info API so emulated machines can poll the
        change stream instead of re-reading the full constellation: one
        :func:`diff_json_record` per epoch after ``since_epoch``.  Raises
        ``KeyError`` (→ 404 with a keyframe hint) when the pruned history no
        longer reaches back to ``since_epoch``.
        """
        with self._lock:
            chain = self.diffs_since(since_epoch)
            records = [
                diff_json_record(diff, since_epoch + offset)
                for offset, diff in enumerate(chain, start=1)
            ]
            return {
                "since_epoch": since_epoch,
                "epoch": self.epoch,
                "keyframe_epochs": self.keyframe_epochs(),
                "diffs": records,
            }

    # -- info-API queries ----------------------------------------------------

    def constellation_info(self) -> dict:
        """Summary of the constellation (served at ``/info``)."""
        # One publication: the info API's threads race the coordinator's
        # set_state, and state / epoch / diff must belong together.
        with self._lock:
            state = self.state
            diff = self.latest_diff
            return {
                "time_s": state.time_s,
                "epoch": self.epoch,
                "shells": len(state.satellite_positions_ecef),
                "satellites": int(state.node_index.satellite_count),
                "ground_stations": len(state.ground_positions_ecef),
                "active_satellites": state.active_count(),
                "links": state.graph.total_links(),
                "keyframe_epochs": self.keyframe_epochs(),
                "last_diff": diff.summary() if diff is not None else None,
            }

    def shell_info(self, shell: int) -> dict:
        """Information about one shell (served at ``/shell/<n>``)."""
        state = self.state
        if shell not in state.satellite_positions_ecef:
            raise KeyError(f"unknown shell {shell}")
        active = state.active_satellites[shell]
        return {
            "shell": shell,
            "satellites": int(active.shape[0]),
            "active": int(np.count_nonzero(active)),
        }

    def satellite_info(self, shell: int, identifier: int) -> dict:
        """Information about one satellite (served at ``/sat/<shell>/<id>``)."""
        state = self.state
        if shell not in state.satellite_positions_ecef:
            raise KeyError(f"unknown shell {shell}")
        positions = state.satellite_positions_ecef[shell]
        if not 0 <= identifier < positions.shape[0]:
            raise KeyError(f"unknown satellite {identifier} in shell {shell}")
        latitude, longitude = state.satellite_position_geodetic(shell, identifier)
        return {
            "shell": shell,
            "identifier": identifier,
            "name": satellite_name(shell, identifier),
            "position_ecef_km": [float(x) for x in positions[identifier]],
            "latitude_deg": latitude,
            "longitude_deg": longitude,
            "active": bool(state.active_satellites[shell][identifier]),
        }

    def ground_station_info(self, name: str) -> dict:
        """Information about one ground station (served at ``/gst/<name>``)."""
        state = self.state
        if name not in state.ground_positions_ecef:
            raise KeyError(f"unknown ground station {name!r}")
        uplinks = state.uplinks_of(name)
        return {
            "name": name,
            "position_ecef_km": [float(x) for x in state.ground_positions_ecef[name]],
            "uplinks": [
                {
                    "shell": uplink.shell,
                    "satellite": uplink.satellite,
                    "distance_km": uplink.distance_km,
                    "delay_ms": uplink.delay_ms,
                }
                for uplink in uplinks
            ],
        }

    def path_info(self, source: MachineId, destination: MachineId) -> dict:
        """Path information between two machines (served at ``/path/<a>/<b>``)."""
        state = self.state
        result = state.path(source, destination)
        return {
            "source": source.name,
            "destination": destination.name,
            "reachable": result.reachable,
            "delay_ms": result.delay_ms if result.reachable else None,
            "rtt_ms": result.rtt_ms if result.reachable else None,
            "hops": [state.node_index.describe(hop) for hop in result.hops],
            "bandwidth_kbps": state.bandwidth_kbps(source, destination),
        }
