"""The Constellation Calculation component.

This is the heart of Celestial (§3.1): it periodically updates the state of
the satellite network — positions of satellites and ground stations, network
link distances and delays, and shortest paths between nodes — based on the
SILLEO-SCNS approach extended with SGP4 support.  The resulting machine and
network parameters are handed to the Machine Managers without modification.
Shortest paths are solved on demand: each state owns one
:class:`~repro.topology.paths.PathRows` store and solves a source's row
the first time a query needs it, so computing an epoch solves none.

The snapshot hot path is fully vectorised: static structures (the node
index, per-shell +GRID ISL endpoint arrays as flat global node indices, and
ground-station nodes/positions) are computed once in
:class:`ConstellationCalculation` and reused across consecutive snapshots.
Each epoch's link set is derived as one ISL array chunk per shell plus ONE
flat uplink table — parallel ``(station, shell, satellite, distance_km,
delay_ms)`` arrays with a row per visible ground-station/satellite pair —
which one assembly step concatenates into the edge table of a
:class:`~repro.topology.graph.NetworkGraph`.  The elevation checks and
slant ranges of all ground stations are one batched operation per shell
(:func:`~repro.topology.uplinks.visible_satellites_batch`); nothing on the
epoch path loops over ground stations.  The graph's edge table is the only
place a state keeps its uplinks: :meth:`ConstellationState.uplinks_of`
reads a station's ``UPLINK`` edges back out of it.

Differential updates
--------------------

:meth:`ConstellationCalculation.state_at` is the cold reference,
:meth:`ConstellationCalculation.diff_since` the epoch-to-epoch fast path.
Both derive their link set from the same per-epoch arrays and build the
graph through the same assembly
(:meth:`ConstellationCalculation._assemble_graph`: ISLs by shell, then
uplinks by ground station, shell and satellite), so edge ids agree and the
states they produce are byte-identical.  What differs is what the diff path
reuses from the previous epoch:

* the certified visibility bounds (:class:`_UpdateHints`), which restrict
  the line-of-sight and elevation checks to the pairs that can have
  crossed a threshold — ``state_at`` evaluates every pair; either way the
  pairs go through the same ``visible_satellites_batch`` tail;
* the previous graph's derived structure (sorted keys, delay-matrix
  template), shared whenever the edge set did not change — ``state_at``
  passes no ``structure_from``;
* the path rows, handed on by
  :meth:`~repro.topology.paths.PathEngine.advance_all`: shared when the
  diff changed no delay and no link, otherwise an empty store, as
  ``state_at`` starts with — neither path solves a row.

The diff path also emits a :class:`ConstellationDiff` — the
:class:`~repro.topology.graph.TopologyDiff` edge index arrays plus the
per-shell bounding-box ``activated``/``deactivated`` satellite ids.  The
coordinator publishes the epoch's activity to every machine manager as one
:class:`~repro.core.machine_manager.EpochRecord` instead of replaying the
full state, and hands the topology half to the virtual network.

The bounding-box activity test runs on the certified geocentric-latitude
bound (:meth:`~repro.core.bounding_box.BoundingBox.contains_ecef`), so the
full per-shell geodetic conversion is only computed for satellites inside
the margin band of a box latitude edge; the exact sub-satellite
latitudes/longitudes a consumer may still ask for are derived on first use
per shell and cached on the state (:meth:`ConstellationState.geodetic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.orbits import Shell, constants
from repro.orbits.coordinates import ecef_to_geodetic, eci_to_ecef
from repro.orbits.visibility import (
    elevation_angle_deg,
    elevation_angle_matrix_deg,
    isl_closest_approach_km,
    slant_range_km,
)
from repro.topology import (
    LinkType,
    NetworkGraph,
    NodeIndex,
    PathEngine,
    PathRows,
    TopologyDiff,
)
from repro.topology.graph import _CODE_BY_LINK_TYPE
from repro.topology.isl import grid_plus_isl_pairs
from repro.topology.linkparams import link_delay_ms
from repro.topology.uplinks import visible_satellites_batch

_ISL_CODE = _CODE_BY_LINK_TYPE[LinkType.ISL]
_UPLINK_CODE = _CODE_BY_LINK_TYPE[LinkType.UPLINK]


def satellite_name(shell: int, identifier: int) -> str:
    """Canonical DNS-style name of a satellite server.

    The single source of the naming rule: machine creation, the info API
    and the distribution runtime's wire codec (which rebuilds identities
    from ``(shell, identifier)`` pairs) all derive names from here.
    """
    return f"{identifier}.{shell}.celestial"


@dataclass(frozen=True)
class MachineId:
    """Identity of one emulated machine (satellite or ground station)."""

    shell: int
    identifier: int
    name: str

    GROUND_SHELL = -1

    @property
    def is_ground_station(self) -> bool:
        """Whether this machine is a ground station."""
        return self.shell == self.GROUND_SHELL

    @property
    def is_satellite(self) -> bool:
        """Whether this machine is a satellite server."""
        return not self.is_ground_station


@dataclass(frozen=True)
class UplinkInfo:
    """One usable ground-to-satellite link."""

    shell: int
    satellite: int
    distance_km: float
    delay_ms: float


@dataclass(frozen=True)
class ConstellationDiff:
    """What changed between two consecutive constellation epochs.

    This is the unit of distribution of the differential update protocol:
    the coordinator computes one per epoch via
    :meth:`ConstellationCalculation.diff_since`, publishes it with the new
    state (the database holds that one publication, the streaming gateway
    encodes it as the epoch's DIFF) and hands it to the virtual network;
    the machine managers get the same epoch's activity as one
    :class:`~repro.core.machine_manager.EpochRecord`.

    ``topology`` carries the edge-level changes (see
    :class:`~repro.topology.graph.TopologyDiff`); ``activated`` and
    ``deactivated`` hold, per shell, the satellite identifiers that entered
    or left the bounding box since the previous epoch — the only machines a
    manager has to suspend or resume.
    """

    previous_time_s: float
    time_s: float
    topology: TopologyDiff
    activated: dict[int, np.ndarray]
    deactivated: dict[int, np.ndarray]

    @property
    def activity_change_count(self) -> int:
        """Number of satellites whose bounding-box activity flipped."""
        return int(
            sum(ids.size for ids in self.activated.values())
            + sum(ids.size for ids in self.deactivated.values())
        )

    @property
    def is_empty(self) -> bool:
        """Whether nothing observable changed between the two epochs."""
        return self.topology.is_empty and self.activity_change_count == 0

    def summary(self) -> dict[str, int]:
        """Compact counters (topology changes plus activity transitions)."""
        counters = self.topology.summary()
        counters["activated"] = int(sum(ids.size for ids in self.activated.values()))
        counters["deactivated"] = int(sum(ids.size for ids in self.deactivated.values()))
        return counters


@dataclass
class _UpdateHints:
    """Certified visibility bounds carried from one epoch to the next.

    ``elevation_bounds`` holds, per shell, a ``(G, N)`` matrix of *upper
    bounds* on each ground-station/satellite elevation angle [deg]:
    entries are exact where the elevation was last computed and grow by a
    certified maximum elevation rate × Δt per epoch otherwise.  A pair whose
    bound stays below the station's minimum elevation provably cannot have
    become visible, so the differential path skips its elevation check.

    ``los_lower``/``los_upper`` bracket, per shell, each candidate ISL's
    closest approach to Earth's centre [km]; the closest-approach function
    is 1-Lipschitz in the endpoint positions, so the interval widens by the
    maximum satellite displacement per epoch.  Only links whose interval
    straddles the atmosphere-grazing limit need an exact recomputation.

    The bounds are conservative: any Δt (including large gaps or stepping
    backwards in time) only widens them, degrading gracefully to the full
    recomputation while never changing a visibility verdict.
    """

    time_s: float
    elevation_bounds: list[np.ndarray]
    los_lower: list[np.ndarray]
    los_upper: list[np.ndarray]


@dataclass
class _EpochArrays:
    """Per-epoch intermediate arrays shared by ``state_at`` and ``diff_since``.

    ``isl_chunks`` holds one ``(node_a, node_b, distance_km, delay_ms,
    bandwidth_kbps)`` tuple per shell (line-of-sight filtered).
    ``uplinks`` is the epoch's whole uplink set as five parallel arrays
    ``(station, shell, satellite, distance_km, delay_ms)`` — ``station`` the
    ground station's position in the configuration, ``satellite`` the
    in-shell identifier — with one row per visible pair, sorted by ground
    station, then shell, then satellite: the order in which
    :meth:`ConstellationCalculation._assemble_graph` appends them to the
    ISLs, and hence their edge ids.  Keeping both code paths on these arrays
    guarantees byte-identical snapshots.
    """

    gmst: float
    satellite_positions: dict[int, np.ndarray]
    active: dict[int, np.ndarray]
    isl_chunks: list[tuple]
    uplinks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    hints: Optional[_UpdateHints] = None


@dataclass
class ConstellationState:
    """Snapshot of the constellation network at one instant."""

    time_s: float
    gmst_rad: float
    node_index: NodeIndex
    graph: NetworkGraph
    paths: PathRows
    satellite_positions_ecef: dict[int, np.ndarray]
    active_satellites: dict[int, np.ndarray]
    ground_positions_ecef: dict[str, np.ndarray]
    _update_hints: Optional[_UpdateHints] = field(default=None, repr=False, compare=False)
    _geodetic: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- machine-level queries -------------------------------------------

    def node_for(self, machine: MachineId) -> int:
        """Flat node index of a machine."""
        if machine.is_ground_station:
            return self.node_index.ground_station(machine.name)
        return self.node_index.satellite(machine.shell, machine.identifier)

    def is_active(self, machine: MachineId) -> bool:
        """Whether the machine is inside the bounding box (ground stations always are)."""
        if machine.is_ground_station:
            return True
        return bool(self.active_satellites[machine.shell][machine.identifier])

    def delay_ms(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """One-way shortest-path network delay between two machines [ms]."""
        node_a, node_b = self.node_for(machine_a), self.node_for(machine_b)
        if node_a == node_b:
            return 0.0
        return self.paths.delay_ms(*self.paths.oriented(node_a, node_b))

    def rtt_ms(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """Round-trip network delay between two machines [ms]."""
        return 2.0 * self.delay_ms(machine_a, machine_b)

    def reachable(self, machine_a: MachineId, machine_b: MachineId) -> bool:
        """Whether a network path exists between the machines."""
        return np.isfinite(self.delay_ms(machine_a, machine_b))

    def path(self, machine_a: MachineId, machine_b: MachineId):
        """Full path (hop node indices) between two machines.

        Reported from the row that answers the pair, so ``source`` may be
        ``machine_b``'s node (see :class:`~repro.topology.paths.PathRows`).
        """
        node_a, node_b = self.node_for(machine_a), self.node_for(machine_b)
        return self.paths.path(*self.paths.oriented(node_a, node_b))

    def bandwidth_kbps(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """Bottleneck bandwidth along the shortest path [kbps] (0 if unreachable)."""
        result = self.path(machine_a, machine_b)
        if not result.reachable or len(result.hops) < 2:
            return 0.0
        hops = np.asarray(result.hops, dtype=np.int64)
        edges = self.graph.edge_ids_between(hops[:-1], hops[1:])
        edges = edges[edges >= 0]
        if edges.size == 0:
            return 0.0
        return float(self.graph.bandwidths_kbps[edges].min())

    def pair_metrics(
        self, nodes_a: Sequence[int], nodes_b: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Delay [ms] and bottleneck bandwidth [kbps] of many node pairs at once.

        Pair by pair the values of :meth:`delay_ms` and
        :meth:`bandwidth_kbps` (``inf`` / 0 where no path exists, 0 / 0
        for a node and itself), computed as one batch: the pairs are
        oriented together (:meth:`~repro.topology.paths.PathRows.orient`,
        where the endpoint most pairs share wins), their missing rows are
        one solve, the delays one fancy index and the bottlenecks one
        lock-step walk of all pairs
        (:meth:`~repro.topology.paths.ShortestPaths.hop_steps`) with one
        vectorised edge lookup per step.
        """
        nodes_a = np.asarray(nodes_a, dtype=np.int64)
        nodes_b = np.asarray(nodes_b, dtype=np.int64)
        delays = np.zeros(nodes_a.size)
        bandwidths = np.zeros(nodes_a.size)
        positions = np.flatnonzero(nodes_a != nodes_b)
        sources, targets = self.paths.orient(nodes_a[positions], nodes_b[positions])
        delays[positions] = self.paths.delays_between(sources, targets)
        link_bandwidths = self.graph.bandwidths_kbps
        bottlenecks = np.full(positions.size, np.inf)
        for pairs, hop_a, hop_b in self.paths.hop_steps(sources, targets):
            edges = self.graph.edge_ids_between(hop_a, hop_b)
            linked = edges >= 0
            pairs = pairs[linked]
            bottlenecks[pairs] = np.minimum(bottlenecks[pairs], link_bandwidths[edges[linked]])
        bandwidths[positions] = np.where(np.isfinite(bottlenecks), bottlenecks, 0.0)
        return delays, bandwidths

    def uplinks_of(self, ground_station: str) -> list[UplinkInfo]:
        """Usable uplinks of a ground station, nearest first.

        A view of the graph's ``UPLINK`` edges, which carry the ground
        station as their first endpoint; equally distant satellites keep
        their edge order (shell, then satellite).  An unknown name has no
        uplinks.
        """
        index, graph = self.node_index, self.graph
        try:
            node = index.ground_station(ground_station)
        except KeyError:
            return []
        edges = np.nonzero((graph.node_a == node) & (graph.link_type_codes == _UPLINK_CODE))[0]
        edges = edges[np.argsort(graph.distances_km[edges], kind="stable")]
        return [
            UplinkInfo(*index.describe(satellite)[1:], distance, delay)
            for satellite, distance, delay in zip(
                graph.node_b[edges].tolist(),
                graph.distances_km[edges].tolist(),
                graph.delays_ms[edges].tolist(),
            )
        ]

    def geodetic(self, shell: int) -> tuple[np.ndarray, np.ndarray]:
        """Sub-satellite (latitudes, longitudes) [degrees] of one shell.

        The epoch path only needs geodetic coordinates where the
        bounding-box verdict is uncertain, so the full per-shell conversion
        runs on first use and is cached on the state.
        """
        if shell not in self._geodetic:
            latitudes, longitudes, _ = ecef_to_geodetic(self.satellite_positions_ecef[shell])
            self._geodetic[shell] = (latitudes, longitudes)
        return self._geodetic[shell]

    def satellite_position_geodetic(self, shell: int, identifier: int) -> tuple[float, float]:
        """Sub-satellite latitude/longitude of a satellite [degrees]."""
        latitudes, longitudes = self.geodetic(shell)
        return float(latitudes[identifier]), float(longitudes[identifier])

    def active_count(self) -> int:
        """Number of satellites currently inside the bounding box."""
        return int(sum(np.count_nonzero(mask) for mask in self.active_satellites.values()))


class ConstellationCalculation:
    """Computes constellation snapshots for a configuration."""

    def __init__(self, config: Configuration):
        self.config = config
        self.shells: list[Shell] = [
            Shell(
                shell_config.geometry,
                shell_index=index,
                propagator=shell_config.propagator,
            )
            for index, shell_config in enumerate(config.shells)
        ]
        self.node_index = NodeIndex(
            shell_sizes=config.shell_sizes,
            ground_station_names=config.ground_station_names,
        )
        # One engine per calculation: it solves the rows every state of the
        # calculation is asked for and counts that work; the rows live on
        # the states, so any retained state can seed a replay.
        self.path_engine = PathEngine()
        # Static structures reused across consecutive snapshots: the node
        # index, per-shell +GRID ISL pair arrays (both in-shell and as flat
        # global node indices, split into contiguous endpoint buffers) and
        # the fixed ground-station positions/flat node indices.
        self._isl_pairs = [
            np.array(grid_plus_isl_pairs(shell_config.geometry), dtype=int).reshape(-1, 2)
            for shell_config in config.shells
        ]
        self._isl_endpoints_a = [
            np.ascontiguousarray(pairs[:, 0] + self.node_index.shell_offset(shell))
            for shell, pairs in enumerate(self._isl_pairs)
        ]
        self._isl_endpoints_b = [
            np.ascontiguousarray(pairs[:, 1] + self.node_index.shell_offset(shell))
            for shell, pairs in enumerate(self._isl_pairs)
        ]
        self._ground_positions = {
            gst.name: gst.station.position_ecef for gst in config.ground_stations
        }
        # Name → configuration-order position, so ground_station() is O(1)
        # instead of an O(n) list.index scan per call (hot in
        # create_ground_stations and per-update pair lookups).
        self._ground_station_position = {
            name: position for position, name in enumerate(config.ground_station_names)
        }
        # Stacked ground-station structures for the batched (one matrix op
        # per shell) elevation checks: positions as a (G, 3) array plus the
        # per-shell effective minimum elevations and the (shell, station)
        # uplink bandwidths with ground-station overrides applied.  The
        # uplink table's station and shell columns index these and the two
        # node lookups below.
        self._gst_position_stack = (
            np.stack([gst.station.position_ecef for gst in config.ground_stations])
            if config.ground_stations
            else np.empty((0, 3), dtype=float)
        )
        self._gst_min_elevations = [
            np.array(
                [
                    gst.min_elevation_deg
                    if gst.min_elevation_deg is not None
                    else shell_config.network.min_elevation_deg
                    for gst in config.ground_stations
                ],
                dtype=float,
            )
            for shell_config in config.shells
        ]
        self._gst_uplink_bandwidths = np.array(
            [
                [
                    gst.uplink_bandwidth_kbps
                    if gst.uplink_bandwidth_kbps is not None
                    else shell_config.network.uplink_bandwidth_kbps
                    for gst in config.ground_stations
                ]
                for shell_config in config.shells
            ],
            dtype=float,
        )
        self._gst_nodes = np.array(self.node_index.ground_station_indices(), dtype=np.int64)
        self._shell_offsets = np.array(
            [self.node_index.shell_offset(shell) for shell in range(len(self.shells))],
            dtype=np.int64,
        )
        # Certified per-shell motion bounds for the differential visibility
        # path (:class:`_UpdateHints`).  In the rotating ECEF frame a
        # satellite moves at most orbital speed + frame rotation at the orbit
        # radius (×1.5 safety); an elevation angle seen from the ground then
        # changes at most speed/range rad/s with range ≥ altitude, and an ISL
        # closest approach (1-Lipschitz in the endpoints) at most speed km/s.
        self._shell_speed_km_s: list[float] = []
        self._elevation_rate_deg_s: list[float] = []
        for shell_config in config.shells:
            geometry = shell_config.geometry
            radius_km = constants.EARTH_RADIUS_KM + geometry.altitude_km
            orbital_km_s = 2.0 * np.pi * radius_km / geometry.period_s
            frame_km_s = 7.2921159e-5 * radius_km  # sidereal rotation rate × radius
            speed = (orbital_km_s + frame_km_s) * 1.5
            self._shell_speed_km_s.append(speed)
            min_range_km = max(geometry.altitude_km - 20.0, 1.0)
            self._elevation_rate_deg_s.append(float(np.degrees(speed / min_range_km)))

    # -- machine identities -------------------------------------------------

    def satellite(self, shell: int, identifier: int) -> MachineId:
        """MachineId of a satellite server."""
        if not 0 <= shell < len(self.shells):
            raise IndexError(f"shell {shell} out of range")
        if not 0 <= identifier < len(self.shells[shell]):
            raise IndexError(f"satellite {identifier} out of range for shell {shell}")
        return MachineId(shell, identifier, satellite_name(shell, identifier))

    def ground_station(self, name: str) -> MachineId:
        """MachineId of a ground-station server (O(1) name lookup)."""
        if name not in self._ground_station_position:
            raise ValueError(f"{name!r} is not in list")
        return MachineId(MachineId.GROUND_SHELL, self._ground_station_position[name], name)

    def machines(self) -> Iterator[MachineId]:
        """All machines of the configuration (satellites then ground stations)."""
        for shell_index, shell in enumerate(self.shells):
            for satellite in shell:
                yield self.satellite(shell_index, satellite.identifier)
        for name in self.config.ground_station_names:
            yield self.ground_station(name)

    # -- state computation ----------------------------------------------------

    def _epoch_arrays(
        self, time_s: float, previous: Optional[ConstellationState] = None
    ) -> _EpochArrays:
        """Propagate positions and derive the epoch's link arrays.

        Shared by :meth:`state_at` (full rebuild) and :meth:`diff_since`
        (differential path) so both produce byte-identical link sets.  When
        ``previous`` carries :class:`_UpdateHints`, the line-of-sight and
        elevation checks are restricted to the pairs whose certified bounds
        could have crossed their thresholds since the previous epoch; all
        other pairs provably keep their visibility verdict, and recomputed
        values are bitwise identical to the full evaluation.
        """
        config = self.config
        gmst = config.epoch.gmst_at(time_s)
        hints = previous._update_hints if previous is not None else None
        dt = abs(time_s - hints.time_s) if hints is not None else 0.0

        satellite_positions: dict[int, np.ndarray] = {}
        active: dict[int, np.ndarray] = {}
        isl_chunks: list[tuple] = []
        los_lower: list[np.ndarray] = []
        los_upper: list[np.ndarray] = []

        for shell_index, shell in enumerate(self.shells):
            shell_config = config.shells[shell_index]
            positions_ecef = eci_to_ecef(shell.positions_eci(time_s), gmst)
            satellite_positions[shell_index] = positions_ecef
            if config.bounding_box is None:
                active[shell_index] = np.ones(len(shell), dtype=bool)
            else:
                # Certified geocentric latitude bound: the full geodetic
                # conversion runs only for satellites within the margin
                # band of a box latitude edge — identical verdicts.
                active[shell_index] = np.asarray(
                    config.bounding_box.contains_ecef(positions_ecef), dtype=bool
                )

            # Inter-satellite links (+GRID) with line-of-sight check, one
            # endpoint/distance/delay array bundle per shell.
            pairs = self._isl_pairs[shell_index]
            if not pairs.size:
                los_lower.append(np.empty(0))
                los_upper.append(np.empty(0))
                continue
            endpoint_a = positions_ecef[pairs[:, 0]]
            endpoint_b = positions_ecef[pairs[:, 1]]
            distances = slant_range_km(endpoint_a, endpoint_b)
            limit = constants.EARTH_RADIUS_KM + (
                shell_config.network.atmosphere_grazing_altitude_km
            )
            if hints is not None:
                step = self._shell_speed_km_s[shell_index] * dt
                lower = hints.los_lower[shell_index] - step
                upper = hints.los_upper[shell_index] + step
                uncertain = (lower < limit) & (upper >= limit)
                if np.any(uncertain):
                    exact = isl_closest_approach_km(
                        endpoint_a[uncertain], endpoint_b[uncertain]
                    )
                    lower[uncertain] = exact
                    upper[uncertain] = exact
            else:
                lower = isl_closest_approach_km(endpoint_a, endpoint_b)
                upper = lower.copy()
            los_lower.append(lower)
            los_upper.append(upper)
            clear = lower >= limit
            distances = distances[clear]
            isl_chunks.append(
                (
                    self._isl_endpoints_a[shell_index][clear],
                    self._isl_endpoints_b[shell_index][clear],
                    distances,
                    link_delay_ms(distances),
                    shell_config.network.isl_bandwidth_kbps,
                )
            )

        # Ground-station visibility: per shell one flat (station, satellite,
        # slant range) table for all ground stations at once — over every
        # pair on the cold path, over the candidate pairs whose bound
        # reached the threshold on the differential path.
        ground = self._gst_position_stack
        elevation_bounds: list[np.ndarray] = []
        tables: list[tuple[np.ndarray, ...]] = []
        for shell_index, positions in satellite_positions.items():
            thresholds = self._gst_min_elevations[shell_index]
            if hints is None:
                candidates = None
                bounds = exact = elevation_angle_matrix_deg(ground, positions)
            else:
                step = self._elevation_rate_deg_s[shell_index] * dt
                bounds = hints.elevation_bounds[shell_index] + step
                candidates = np.nonzero(bounds >= thresholds[:, None])
                exact = elevation_angle_deg(ground[candidates[0]], positions[candidates[1]])
                bounds[candidates] = exact
            elevation_bounds.append(bounds)
            stations, satellites, distances = visible_satellites_batch(
                ground, positions, thresholds, elevations_deg=exact, candidates=candidates
            )
            tables.append(
                (stations, np.full(stations.size, shell_index), satellites, distances)
            )
        station, shell, satellite, distance_km = (
            np.concatenate(column) for column in zip(*tables)
        )
        if len(tables) > 1:
            # Shell-major so far; a stable sort by station leaves shell and
            # satellite ascending within each ground station.
            order = np.argsort(station, kind="stable")
            station, shell, satellite, distance_km = (
                station[order], shell[order], satellite[order], distance_km[order]
            )

        return _EpochArrays(
            gmst=gmst,
            satellite_positions=satellite_positions,
            active=active,
            isl_chunks=isl_chunks,
            uplinks=(station, shell, satellite, distance_km, link_delay_ms(distance_km)),
            hints=_UpdateHints(
                time_s=time_s,
                elevation_bounds=elevation_bounds,
                los_lower=los_lower,
                los_upper=los_upper,
            ),
        )

    def _state_from_epoch(
        self,
        time_s: float,
        epoch: _EpochArrays,
        graph: NetworkGraph,
        previous: Optional[ConstellationState] = None,
        topology: Optional[TopologyDiff] = None,
    ) -> ConstellationState:
        if previous is not None and topology is not None:
            paths = self.path_engine.advance_all(previous.paths, graph, topology)
        else:
            paths = PathRows(graph, self.path_engine, self._gst_nodes.tolist())
        return ConstellationState(
            time_s=time_s,
            gmst_rad=epoch.gmst,
            node_index=self.node_index,
            graph=graph,
            paths=paths,
            satellite_positions_ecef=epoch.satellite_positions,
            active_satellites=epoch.active,
            ground_positions_ecef=dict(self._ground_positions),
            _update_hints=epoch.hints,
        )

    def _assemble_graph(
        self, epoch: _EpochArrays, structure_from: Optional[NetworkGraph]
    ) -> NetworkGraph:
        """Concatenate the epoch's ISL chunks and uplink table into the edge arrays.

        The order — ISLs by shell, then uplinks by ground station, shell
        and satellite — fixes the edge ids, so every graph of one epoch,
        cold or incremental, numbers its edges alike.
        """
        chunks = epoch.isl_chunks
        station, shell, satellite, uplink_distances_km, uplink_delays_ms = epoch.uplinks
        isl_count = sum(chunk[0].size for chunk in chunks)
        return NetworkGraph.from_edge_arrays(
            self.node_index,
            np.concatenate([*(chunk[0] for chunk in chunks), self._gst_nodes[station]]),
            np.concatenate(
                [*(chunk[1] for chunk in chunks), self._shell_offsets[shell] + satellite]
            ),
            np.concatenate([*(chunk[2] for chunk in chunks), uplink_distances_km]),
            np.concatenate([*(chunk[3] for chunk in chunks), uplink_delays_ms]),
            np.concatenate(
                [
                    *(np.full(chunk[0].size, chunk[4], dtype=np.float64) for chunk in chunks),
                    self._gst_uplink_bandwidths[shell, station],
                ]
            ),
            np.concatenate(
                [
                    np.full(isl_count, _ISL_CODE, dtype=np.int8),
                    np.full(station.size, _UPLINK_CODE, dtype=np.int8),
                ]
            ),
            structure_from=structure_from,
        )

    def state_at(self, time_s: float) -> ConstellationState:
        """Compute the full constellation state at a simulation time.

        This is the cold reference path: every visibility pair is
        evaluated (no hints), the graph shares no structure with another
        epoch, and the path rows start empty.  Use
        :meth:`diff_since` to advance from a previous epoch instead.
        """
        epoch = self._epoch_arrays(time_s)
        graph = self._assemble_graph(epoch, structure_from=None)
        return self._state_from_epoch(time_s, epoch, graph)

    def diff_since(
        self, previous: ConstellationState, time_s: float
    ) -> tuple[ConstellationState, ConstellationDiff]:
        """Advance from a previous epoch, reusing its arrays where possible.

        Returns the new state — byte-identical to what :meth:`state_at`
        would compute for ``time_s`` — together with the
        :class:`ConstellationDiff` describing everything that changed since
        ``previous``.  In the steady-state case (no links appeared or
        disappeared) the previous graph's sorted keys and delay-matrix
        structure are shared rather than rebuilt, and the emitted diff
        aligns edge ids 1:1 without any set intersection.
        """
        if previous.node_index is not self.node_index:
            raise ValueError("previous state belongs to a different calculation")
        epoch = self._epoch_arrays(time_s, previous)
        graph = self._assemble_graph(epoch, structure_from=previous.graph)
        topology = graph.diff_from(previous.graph)

        activated: dict[int, np.ndarray] = {}
        deactivated: dict[int, np.ndarray] = {}
        for shell_index, now_active in epoch.active.items():
            was_active = previous.active_satellites[shell_index]
            activated[shell_index] = np.nonzero(now_active & ~was_active)[0]
            deactivated[shell_index] = np.nonzero(~now_active & was_active)[0]

        state = self._state_from_epoch(
            time_s, epoch, graph, previous=previous, topology=topology
        )
        diff = ConstellationDiff(
            previous_time_s=previous.time_s,
            time_s=time_s,
            topology=topology,
            activated=activated,
            deactivated=deactivated,
        )
        return state, diff
