"""Central constellation database on the coordinator.

The Constellation Calculation writes its results into a central database;
Celestial hosts serve this information to the emulated machines through the
HTTP info API (§3.2).  The database also acts as the rule provider for the
virtual network: the delay/bandwidth installed for a machine pair is derived
from the latest published state.

One epoch, published once
-------------------------

The coordinator publishes, per epoch, the new full state *plus* the
:class:`~repro.core.constellation.ConstellationDiff` against the previous
epoch, both rebuilt from the DIFF frame of its calculation child; the diff
carries that frame, so the codec this database owns forwards its bytes to
subscribers instead of encoding it again.  The database holds exactly that
publication — the current state and
:attr:`~ConstellationDatabase.latest_diff` — and keeps no archive beside it:
a consumer that is late, slow or new is given the current state (the
streaming gateway's KEYFRAME), never a replay of past epochs.  Nothing of
the previous epoch is kept either: a worker that crashed is restarted from
the ``SPEC`` frame of the driver's replica of its hosts
(:mod:`repro.dist.backend`), which holds every machine as the replica does
now, so no past record is needed.

Pair rules: one batch per epoch
-------------------------------

A pair rule is valid for one epoch; :meth:`ConstellationDatabase.set_state`
drops them all.  What it keeps is *which* pairs had a rule in the epoch it
retires — the working set of the traffic.  The first
:meth:`~ConstellationDatabase.pair_rule` call of the new epoch that finds
no rule resolves its own pair and all of those with it, in one pass over
the state's path rows (:meth:`ConstellationState.pair_metrics
<repro.core.constellation.ConstellationState.pair_metrics>`); a pair
outside the working set is the same pass with a batch of one.  The batch
is also what keeps the epoch's path rows few: the state solves rows on
demand, and a batch roots its pairs at the endpoint most of them share —
one row for a DART deployment whose every pair contains the central
station, where asking pair by pair would root each at its first ground
station.  The kept list is bounded by the previous epoch's working set and
replaced on every ``set_state``, whether or not it was used.  Pair rules
stay in the state's row regime even for a batch of one, because the rows a
batch solves serve the rest of the epoch's traffic; the single-pair
queries (:meth:`~ConstellationDatabase.path_info`, the gateway's ``QUERY``)
are answered by a bounded search that stores no row
(:meth:`ConstellationState.path
<repro.core.constellation.ConstellationState.path>`).
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


class ConstellationDatabase:
    """Holds the most recent constellation state and answers queries about it.

    The database is the publication point of the state-distribution path
    and owns the shared :class:`~repro.serve.codec.EpochUpdateCodec`
    (``self.codec``), which encodes each epoch's keyframe/diff exactly once
    for the streaming gateway's fan-out.  The codec reads nothing back: the
    gateway hands it the state or diff of the publication it serves.
    Reads and publications are serialised by an internal lock so info-API
    threads never observe a torn epoch; registered epoch listeners (the
    gateway) are notified after each publication, outside the lock.
    """

    def __init__(self):
        self._state: Optional[ConstellationState] = None
        self.epoch = 0
        self._rule_cache: dict[tuple[MachineId, MachineId], PairRule] = {}
        #: Pairs that had a rule in the previous epoch, until the first miss
        #: of this epoch resolves them in one batch.
        self._warm_pairs: list[tuple[MachineId, MachineId]] = []
        #: ``pair_rule`` calls / those that found no rule / pairs resolved
        #: ahead of demand by a batch (exact counts, for observability).
        self.rule_lookups = 0
        self.rule_misses = 0
        self.rule_batch_pairs = 0
        self._latest_diff: Optional[ConstellationDiff] = None
        self._lock = threading.RLock()
        self._listeners: list[EpochListener] = []
        # Imported here, not at module scope: repro.core imports the
        # database at package-import time, while the serving tier imports
        # repro.core — deferring to construction time breaks the cycle.
        from repro.serve.codec import EpochUpdateCodec

        self.codec = EpochUpdateCodec()

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
        and ``state``; an epoch published without one (the first epoch, or a
        full resynchronisation) reaches subscribers as a KEYFRAME.  A diff
        must lead from the published state itself, whose delay trend its
        DIFF predicts from, to ``state`` (``ValueError`` otherwise:
        subscribers would predict from another trend).
        """
        with self._lock:
            if diff is not None and (
                self._state is None
                or diff.previous_trend is not self._state.trend
                or diff.trend is not state.trend
            ):
                raise ValueError("a diff must lead from the published state to the new one")
            self._state = state
            self._latest_diff = diff
            self.epoch += 1
            self._warm_pairs = list(self._rule_cache)
            self._rule_cache.clear()
            epoch = self.epoch
            listeners = list(self._listeners)
        # Listeners run outside the lock: the gateway's publish hook hands
        # the epoch to its event loop and must never delay the coordinator
        # or deadlock against a listener that reads the database back.
        for listener in listeners:
            listener(epoch, state, diff)

    @property
    def latest_diff(self) -> Optional[ConstellationDiff]:
        """The diff the current epoch was published with (None: full state only)."""
        with self._lock:
            return self._latest_diff

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
        every pair of ``warm``."""
        state = self.state
        pairs = dict.fromkeys([pair, *warm])
        self.rule_batch_pairs += len(pairs) - 1
        nodes = [(state.node_for(source), state.node_for(target)) for source, target in pairs]
        delays, bandwidths = state.pair_metrics(*zip(*nodes))
        for key, delay, bandwidth in zip(pairs, delays.tolist(), bandwidths.tolist()):
            reachable = math.isfinite(delay)
            self._rule_cache[key] = PairRule(
                delay_ms=delay if reachable else 0.0,
                bandwidth_kbps=bandwidth if reachable and bandwidth > 0 else None,
                reachable=reachable,
            )

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
                "last_diff": (
                    diff.summary(state.active_satellites) if diff is not None else None
                ),
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
            "bandwidth_kbps": state.bottleneck_kbps(result),
        }
