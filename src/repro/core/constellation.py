"""The Constellation Calculation component.

This is the heart of Celestial (§3.1): it periodically updates the state of
the satellite network — positions of satellites and ground stations, network
link distances and delays, and shortest paths between nodes — based on the
SILLEO-SCNS approach extended with SGP4 support.  The resulting machine and
network parameters are handed to the Machine Managers without modification.
Shortest paths are solved on demand: each state owns one
:class:`~repro.topology.paths.PathRows` store, which solves a source's row
the first time a batch needs it and answers a single pair by a bounded
search, so computing an epoch solves none.

The snapshot hot path is one flat pass over the global node order (shell
offset + identifier): static structures (the node index, every shell's
circular-orbit elements stacked, all shells' +GRID ISL candidates as flat
global endpoint arrays with their grazing limits and bandwidths, and the ground-station nodes/positions/thresholds) are computed
once in :class:`ConstellationCalculation` and reused across consecutive
snapshots.  Each epoch propagates every satellite at once, rotates them into
the Earth-fixed frame, tests them against the bounding box, checks the line
of sight of every ISL candidate and the elevation of every
ground-station/satellite pair, each as one batched operation; nothing loops
over shells or ground stations but the SGP4 shells, which fill their rows.
Its link set is the clear ISL candidates in the canonical link order with
their ``(distance_km, bandwidth_kbps)`` arrays plus ONE flat uplink table —
parallel ``(station, satellite, distance_km)`` arrays with a row per
visible ground-station/satellite pair
(:func:`~repro.topology.uplinks.visible_satellites_batch`) — which one
assembly step merges into the edge table of a
:class:`~repro.topology.graph.NetworkGraph`.  The graph's edge table is the
only place a state keeps its uplinks: :meth:`ConstellationState.uplinks_of`
reads a station's ``UPLINK`` edges back out of it; the state's per-shell
positions and activity masks are views of the flat arrays.

Differential updates
--------------------

:meth:`ConstellationCalculation.state_at` is the cold reference,
:meth:`ConstellationCalculation.diff_since` the epoch-to-epoch path.  Both
evaluate the epoch itself alike (:meth:`ConstellationCalculation._epoch_arrays`:
every satellite's box verdict, every ISL candidate's line of sight, every
station/satellite elevation) and build the graph through the same assembly
(:meth:`ConstellationCalculation._assemble_graph`), so edge ids agree and
the states they produce are byte-identical.  The assembly emits the edges
in the graph's canonical link order (``node_a < node_b``, ascending by pair
key), so neither path sorts the edge set and the graph only verifies the
order: the static ISL candidates are generated in that order, an epoch
keeps the candidates whose line of sight is clear and merges in its few
sorted uplinks.  Nothing of the previous epoch enters the computation;
what ``diff_since`` adds is what it reads off the previous state:

* the :class:`ConstellationDiff` (below): the graph diff and the flips;
* the path store's sources, handed on by
  :meth:`~repro.topology.paths.PathEngine.advance_all` to an empty store,
  as ``state_at`` starts with — neither path carries or solves a row;
* the :class:`DelayTrend`, which the diff path advances by the epoch's
  delay changes — ``state_at``'s is zero.  The trend stays out of every
  identity check.

The diff path also emits a :class:`ConstellationDiff` — the
:class:`~repro.topology.graph.TopologyDiff` edge index arrays plus the
per-shell ids of the satellites whose bounding-box activity flipped.  The
coordinator publishes the epoch's activity to every machine manager as one
:class:`~repro.core.machine_manager.EpochRecord` instead of replaying the
full state, and hands the topology half to the virtual network.

The coordinator runs ``diff_since`` in its calculation child
(:mod:`repro.dist.calculation`), which sends each epoch as the update
stream's DIFF frame; the driver rebuilds the same state and diff from the
frame with :meth:`ConstellationCalculation.state_from_replica`.  A replica
holds the graph's link columns with their delay counts, the trend and the
activity, but no geometry, which is a pure function of the configuration
and the time.  The rebuilt state derives it only where it is read: every
satellite's position on the first read that names one (a path's bound,
which only a bounded search reads, a station's uplinks, the position
routes), and each link's distance (the norm of its endpoints' difference)
on the first read of the column, or of a station's uplinks alone, each
with the bits ``diff_since`` computes.  The topology diff is the frame's
own removed, added, delay-changed and bandwidth-changed sets, not a diff of
the two graphs.  ``diff_since`` from such a state computes the same epoch
as from the state it was rebuilt from, since no epoch reads its
predecessor's geometry.

The bounding-box activity test runs on the certified geocentric-latitude
bound (:meth:`~repro.core.bounding_box.BoundingBox.contains_ecef`), so the
full geodetic conversion is only computed for satellites inside the margin
band of a box latitude edge; the exact sub-satellite latitudes/longitudes
a consumer may still ask for are derived on first use
per shell and cached on the state (:meth:`ConstellationState.geodetic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.orbits import Shell, constants
from repro.orbits.coordinates import ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef
from repro.orbits.shells import circular_positions_eci, stacked_elements
from repro.orbits.visibility import (
    elevation_angle_deg,  # unread here, kept: bench/trace.py patches it by name
    elevation_angle_matrix_deg,
    isl_closest_approach_km,
    slant_range_km,
)
from repro.topology import (
    LinkType,
    NetworkGraph,
    NodeIndex,
    PathEngine,
    PathResult,
    PathRows,
    TopologyDiff,
)
from repro.topology.graph import _CODE_BY_LINK_TYPE, pair_keys
from repro.topology.isl import grid_plus_isl_pairs
from repro.topology.linkparams import link_delay_counts, propagation_delay_ms
from repro.topology.uplinks import visible_satellites_batch

_ISL_CODE = _CODE_BY_LINK_TYPE[LinkType.ISL]
_UPLINK_CODE = _CODE_BY_LINK_TYPE[LinkType.UPLINK]


def satellite_name(shell: int, identifier: int) -> str:
    """Canonical name of a satellite server, ``<id>.<shell>.celestial``: one
    spelling of the grammar :func:`machine_from_name` reads.

    Machine creation and the wire codec (which rebuilds identities from
    ``(shell, identifier)`` pairs) derive satellite names from here.
    """
    return f"{identifier}.{shell}.celestial"


def machine_from_name(name: str, node_index: NodeIndex) -> MachineId:
    """The machine a name names: the one resolver of the DNS, the info API,
    the gateway and the fault program (:meth:`NodeIndex.resolve
    <repro.topology.graph.NodeIndex.resolve>`, one lookup).

    Grammar: case-folded, with or without ``.celestial`` and a trailing dot;
    a satellite is ``<id>.<shell>``, a ground station its configured name,
    DNS slug, ``<slug>.gst`` or ``gst.<slug>``.  An out-of-range satellite
    is an ``IndexError``, any other unknown name a ``KeyError``.
    """
    return machine_at(node_index, node_index.resolve(name))


def machine_at(node_index: NodeIndex, node: int) -> MachineId:
    """The identity of the machine at a flat node index (a ground station's
    identifier is its configuration position)."""
    position, names = node - node_index.satellite_count, node_index.ground_station_names
    if 0 <= position < len(names):
        return MachineId(MachineId.GROUND_SHELL, position, names[position])
    _, shell, identifier = node_index.describe(node)
    return MachineId(shell, identifier, satellite_name(shell, identifier))


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
class DelayTrend:
    """Each link's delay trend in one epoch ``k``, in ``DELAY_GRID_MS``
    counts ``c``, by edge id of that epoch's graph (the canonical link
    order, which the update stream's replicas hold too).

    ``step`` is ``c[k] - c[k-1]`` where epoch ``k`` changed the link's delay,
    else 0; ``curve`` is ``step[k] - step[k-1]`` where both steps are
    non-zero, else 0.  ``stepped``: how many links have a step.  A trend is
    provenance of the state, not part of it: the update codec predicts the
    next epoch's delays from it (``c[k] + step + curve``) and a KEYFRAME
    carries it, so a subscriber that joins mid-stream predicts as one that
    saw every epoch.  A cold state's trend is zero.
    """

    step: np.ndarray
    curve: np.ndarray
    stepped: int

    @classmethod
    def cold(cls, graph: NetworkGraph) -> "DelayTrend":
        """The zero trend of a graph without a predecessor."""
        step, curve = np.zeros((2, graph.total_links()), dtype=np.int64)
        return cls(step, curve, 0)

    @classmethod
    def of(
        cls, links: int, changed: np.ndarray, steps: np.ndarray, held: np.ndarray
    ) -> "DelayTrend":
        """The trend over ``links`` links in which only the ``changed`` ones
        stepped, by ``steps``, after steps of ``held`` (each link's step in
        the epoch before).  A changed link's new step is not 0 (its count
        moved); its curve needs the held step too."""
        step, curve = np.zeros((2, links), dtype=np.int64)
        step[changed] = steps
        curves = steps - held
        curves[held == 0] = 0
        curve[changed] = curves
        return cls(step, curve, changed.size)

    def after(self, topology: TopologyDiff) -> "DelayTrend":
        """The trend of the epoch ``topology`` leads to, from this one (its
        predecessor's).  Only the delay-changed links are counted."""
        current = topology.current
        changed, was = topology.delay_changed, topology.delay_changed_previous
        steps = np.subtract(
            current.delay_counts[changed], topology.previous.delay_counts[was], dtype=np.int64
        )
        return DelayTrend.of(current.total_links(), changed, steps, self.step[was])


@dataclass(frozen=True)
class ConstellationDiff:
    """What changed between two consecutive constellation epochs.

    This is the unit of distribution of the differential update protocol,
    one per epoch.  The coordinator's calculation child computes it
    (:meth:`ConstellationCalculation.diff_since`) and sends it as a DIFF
    frame; the driver rebuilds it from that frame
    (:meth:`ConstellationCalculation.state_from_replica`), publishes it with
    the new state (the database holds that one publication, the streaming
    gateway streams the frame as the epoch's DIFF) and hands it to the
    virtual network; the machine managers get the same epoch's activity as
    one :class:`~repro.core.machine_manager.EpochRecord`.

    ``topology`` carries the edge-level changes (see
    :class:`~repro.topology.graph.TopologyDiff`); ``flipped`` holds, per
    shell, the ascending identifiers of the satellites that entered or left
    the bounding box since the previous epoch — the only machines a manager
    has to suspend or resume; the new state's masks say which way each
    went.  ``previous_trend`` is the previous state's :class:`DelayTrend`,
    which the epoch's DIFF predicts from, and ``trend`` the new state's,
    from which it reads each changed link's step (the diff keeps both, as
    ``topology`` keeps both graphs).
    """

    time_s: float
    topology: TopologyDiff
    flipped: dict[int, np.ndarray]
    previous_trend: DelayTrend
    trend: DelayTrend
    #: The epoch's DIFF frame, when the diff was rebuilt from it
    #: (:meth:`ConstellationCalculation.state_from_replica`): the stream
    #: forwards these bytes instead of encoding the diff again.
    frame: Optional[bytes] = field(default=None, repr=False, compare=False)

    def summary(self, active: dict[int, np.ndarray]) -> dict[str, int]:
        """Compact counters: the topology changes plus the activity
        transitions, split by ``active``, the new state's masks."""
        counters = self.topology.summary()
        flips = self.flipped.items()
        entered = sum(int(np.count_nonzero(active[shell][ids])) for shell, ids in flips)
        counters["activated"] = entered
        counters["deactivated"] = sum(ids.size for _, ids in flips) - entered
        return counters


@dataclass
class _EpochArrays:
    """Per-epoch intermediate arrays shared by ``state_at`` and ``diff_since``.

    Flat arrays over the global node order: ``satellite_positions`` is the
    ``(N, 3)`` ECEF position and ``active`` the bounding-box mask of every
    satellite, which the state hands out per shell as views.  ``isls``
    holds the epoch's ISLs: one mask over all ISL candidates
    (``_isl_endpoints_a/b``), the candidates whose line of sight is clear,
    and their ``(distance_km, bandwidth_kbps)`` arrays, in candidate order,
    which is the canonical link order.  ``uplinks`` is the epoch's whole
    uplink set as three parallel arrays ``(station, satellite,
    distance_km)`` — ``station`` the ground station's position in the
    configuration, ``satellite`` the satellite's global node index — with
    one row per visible pair, sorted by ground station, then shell, then
    satellite.  Keeping both code paths on these arrays guarantees
    byte-identical snapshots.
    """

    satellite_positions: np.ndarray
    active: np.ndarray
    isls: tuple[np.ndarray, np.ndarray, np.ndarray]
    uplinks: tuple[np.ndarray, np.ndarray, np.ndarray]


class _Geometry:
    """An epoch's node positions [km, ECEF], over the flat node order.

    The satellites' are one :meth:`ConstellationCalculation._positions_ecef`
    at the epoch's time: given where the epoch was computed, else propagated
    on the first read that names a satellite, all at once, and kept: such
    reads come in streams (a path's bound per pair query), and propagating
    every satellite costs about as much as seven reads of two.  Nothing
    here refers to a graph or a state, so a graph that derives its
    distances from it (:meth:`slant_ranges_km`) is freed by reference
    counting alone.
    """

    __slots__ = ("_calculation", "_time_s", "_satellites")

    def __init__(
        self,
        calculation: "ConstellationCalculation",
        time_s: float,
        satellites: Optional[np.ndarray] = None,
    ):
        self._calculation = calculation
        self._time_s = time_s
        self._satellites = satellites

    def satellites(self) -> np.ndarray:
        """Every satellite's position, ``(N, 3)``: one propagation, on first need."""
        if self._satellites is None:
            self._satellites = self._calculation._positions_ecef(self._time_s)
        return self._satellites

    def slant_ranges_km(self, node_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """The distance [km] of each link ``(node_a, node_b)``: the slant range
        of its endpoints over the satellites, then the ground stations, the
        bits the epoch's computation gives it (a slant range is the norm of
        an endpoint difference either way round).  Every link has a
        satellite endpoint, so this propagates them on first need."""
        nodes = np.concatenate([self.satellites(), self._calculation._gst_position_stack])
        return slant_range_km(nodes.take(node_a, axis=0), nodes.take(node_b, axis=0))


@dataclass
class ConstellationState:
    """Snapshot of the constellation network at one instant.

    The graph, the path store, the activity and the trend are held as
    computed or rebuilt.  The satellite positions are the epoch's
    :class:`_Geometry`: a computed epoch (:meth:`ConstellationCalculation.state_at`,
    :meth:`~ConstellationCalculation.diff_since`) holds them, a rebuilt one
    (:meth:`~ConstellationCalculation.state_from_replica`) propagates them
    on the first read that names a satellite (:class:`_Geometry`).  The
    next epoch's :meth:`~ConstellationCalculation.diff_since` reads only the
    graph, the activity, the trend and the path store's sources, so it
    advances a rebuilt state as it advances a computed one.
    """

    time_s: float
    node_index: NodeIndex
    graph: NetworkGraph
    paths: PathRows
    active_satellites: dict[int, np.ndarray]
    ground_positions_ecef: dict[str, np.ndarray]
    #: The epoch's delay trend: provenance, outside every identity check.
    trend: DelayTrend = field(repr=False, compare=False)
    _geometry: _Geometry = field(repr=False, compare=False)
    _geodetic: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def satellite_positions_ecef(self) -> dict[int, np.ndarray]:
        """Per shell, its satellites' ECEF positions [km]: views of the epoch's
        one flat array, which a rebuilt state propagates on first need."""
        positions = self._geometry.satellites()
        index = self.node_index
        shells = (index.satellites_of_shell(shell) for shell in range(len(index.shell_sizes)))
        return {shell: positions[rows.start : rows.stop] for shell, rows in enumerate(shells)}

    # -- machine-level queries -------------------------------------------

    def node_for(self, machine: MachineId) -> int:
        """Flat node index of a machine."""
        if machine.is_ground_station:
            return self.node_index.ground_station(machine.name)
        return self.node_index.satellite(machine.shell, machine.identifier)

    def delay_ms(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """One-way shortest-path network delay between two machines [ms].

        The delay of :meth:`path`: read from a held row or search of the
        pair's source, else found by a bounded search the store holds.
        """
        return self.path(machine_a, machine_b).delay_ms

    def rtt_ms(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """Round-trip network delay between two machines [ms]."""
        return 2.0 * self.delay_ms(machine_a, machine_b)

    def reachable(self, machine_a: MachineId, machine_b: MachineId) -> bool:
        """Whether a network path exists between the machines."""
        return math.isfinite(self.delay_ms(machine_a, machine_b))

    def path(self, machine_a: MachineId, machine_b: MachineId):
        """Full path (hop node indices) between two machines.

        Reported from the source the store orients the pair to, so
        ``source`` may be ``machine_b``'s node (see
        :class:`~repro.topology.paths.PathRows`).  A held row of that
        source, or a held search of it that settled the target, answers;
        otherwise one Dijkstra search from it, bounded by twice the larger
        of the machines' straight-line delay and their cheapest links' sum
        and doubled until it settles the target or proves it unreachable,
        answers with the same bits and is held for the epoch
        (:meth:`~repro.topology.paths.PathRows.pair_path`).
        """
        node_a, node_b = self.node_for(machine_a), self.node_for(machine_b)
        source, target = self.paths.oriented(node_a, node_b)
        return self.paths.pair_path(source, target, lambda: self._chord_ms(machine_a, machine_b))

    def _chord_ms(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """Straight-line propagation delay between two machines [ms]."""
        return float(
            propagation_delay_ms(math.dist(self._position(machine_a), self._position(machine_b)))
        )

    def _position(self, machine: MachineId) -> np.ndarray:
        if machine.is_ground_station:
            return self.ground_positions_ecef[machine.name]
        return self._geometry.satellites()[self.node_for(machine)]

    def bandwidth_kbps(self, machine_a: MachineId, machine_b: MachineId) -> float:
        """Bottleneck bandwidth along the shortest path [kbps] (0 if unreachable)."""
        return self.bottleneck_kbps(self.path(machine_a, machine_b))

    def bottleneck_kbps(self, result: PathResult) -> float:
        """Narrowest link bandwidth along a path's hops [kbps] (0 without a link)."""
        if len(result.hops) < 2:
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
        station as their higher endpoint (stations follow every satellite
        in the node index); equally distant satellites keep their edge
        order (shell, then satellite).  Only these edges' distances are read
        (:meth:`~repro.topology.graph.NetworkGraph.distances_of`).  An
        unknown name has no uplinks.
        """
        index, graph = self.node_index, self.graph
        try:
            node = index.ground_station(ground_station)
        except KeyError:
            return []
        edges = np.flatnonzero((graph.node_b == node) & (graph.link_type_codes == _UPLINK_CODE))
        distances = graph.distances_of(edges)
        order = np.argsort(distances, kind="stable")
        edges = edges[order]
        return [
            UplinkInfo(*index.describe(satellite)[1:], distance, delay)
            for satellite, distance, delay in zip(
                graph.node_a[edges].tolist(),
                distances[order].tolist(),
                graph.delays_ms[edges].tolist(),
            )
        ]

    def geodetic(self, shell: int) -> tuple[np.ndarray, np.ndarray]:
        """Sub-satellite (latitudes, longitudes) [degrees] of one shell.

        Only the info API's satellite answers (``/sat``, ``/self``, through
        :meth:`satellite_position_geodetic`) and the animation read these, so the per-shell conversion runs on first use
        and is cached on the state.  The epoch path never does: the bounding
        box converts its own uncertain points
        (:meth:`~repro.core.bounding_box.BoundingBox.contains_ecef`).
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
        # Static structures reused across consecutive snapshots, over the
        # global node order (shell offset + identifier), each built by whole
        # arrays with no per-satellite loop or object: every shell's
        # circular-orbit elements stacked, each satellite's shell, the +GRID
        # ISL candidates as flat endpoint arrays with their pair keys.  Each
        # shell's pairs ascend and the shells' node ranges do, so the
        # candidates are in the canonical link order.
        sizes = config.shell_sizes
        offsets = np.array(
            [self.node_index.satellites_of_shell(shell).start for shell in range(len(sizes))],
            dtype=np.int64,
        )
        self._satellite_shell = np.repeat(np.arange(len(sizes)), sizes)
        self._elements = stacked_elements(self.shells)
        self._shell_rows = [
            slice(offset, offset + size) for offset, size in zip(offsets.tolist(), sizes)
        ]
        self._sgp4_shells = [
            (rows, shell)
            for rows, shell in zip(self._shell_rows, self.shells)
            if shell.propagator == "sgp4"
        ]
        isl_pairs = [grid_plus_isl_pairs(shell_config.geometry) for shell_config in config.shells]
        self._isl_endpoints_a, self._isl_endpoints_b = (
            np.concatenate([pairs[:, side] + offset for pairs, offset in zip(isl_pairs, offsets)])
            for side in (0, 1)
        )
        self._isl_keys = pair_keys(
            self._isl_endpoints_a, self._isl_endpoints_b, len(self.node_index)
        )
        # Stacked ground-station structures for the batched elevation
        # checks: positions as a read-only (G, 3) array from one conversion
        # (each row has the bits of the station's own ``position_ecef``), by
        # name as rows of it, the (G, N) minimum elevation of every
        # station/satellite pair and the (shell, station) uplink bandwidths,
        # ground-station overrides applied.  The uplink table's station
        # column indexes these and the node lookup below.
        self._gst_position_stack = geodetic_to_ecef(
            *np.array(
                [
                    (gst.station.latitude_deg, gst.station.longitude_deg, gst.station.altitude_km)
                    for gst in config.ground_stations
                ],
                dtype=float,
            ).reshape(-1, 3).T
        )
        self._gst_position_stack.flags.writeable = False
        self._ground_positions = dict(
            zip(config.ground_station_names, self._gst_position_stack)
        )
        self._gst_min_elevations = np.array(
            [
                [
                    gst.min_elevation_deg
                    if gst.min_elevation_deg is not None
                    else shell_config.network.min_elevation_deg
                    for shell_config in config.shells
                ]
                for gst in config.ground_stations
            ],
            dtype=float,
        ).reshape(-1, len(sizes))[:, self._satellite_shell]
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
        # Per ISL candidate its shell's atmosphere-grazing limit and bandwidth.
        limits, bandwidths = np.array(
            [
                (
                    constants.EARTH_RADIUS_KM + shell_config.network.atmosphere_grazing_altitude_km,
                    shell_config.network.isl_bandwidth_kbps,
                )
                for shell_config in config.shells
            ],
            dtype=float,
        ).T
        candidates = [len(pairs) for pairs in isl_pairs]
        self._isl_limit_km = np.repeat(limits, candidates)
        self._isl_bandwidths = np.repeat(bandwidths, candidates)

    # -- machine identities -------------------------------------------------

    def satellite(self, shell: int, identifier: int) -> MachineId:
        """MachineId of a satellite server; out of range is an ``IndexError``."""
        self.node_index.satellite(shell, identifier)  # the range check
        return MachineId(shell, identifier, satellite_name(shell, identifier))

    def ground_station(self, name: str) -> MachineId:
        """MachineId of a ground-station server, by its configured name or
        DNS slug; an unknown name is a ``ValueError``."""
        try:
            node = self.node_index.ground_station(name)
        except KeyError:
            raise ValueError(f"unknown ground station {name!r}") from None
        return machine_at(self.node_index, node)

    def machines(self) -> Iterator[MachineId]:
        """All machines of the configuration, in node order (satellites then
        ground stations)."""
        return (machine_at(self.node_index, node) for node in range(len(self.node_index)))

    # -- state computation ----------------------------------------------------

    def _epoch_arrays(self, time_s: float) -> _EpochArrays:
        """Propagate positions and derive the epoch's link arrays.

        Shared by :meth:`state_at` (the cold reference) and
        :meth:`diff_since`, so both produce byte-identical link sets.  One
        pass over the global satellite order: one propagation, one frame
        rotation, one bounding-box test of every satellite, one
        line-of-sight check of every ISL candidate and one elevation test
        of every station/satellite pair.  Nothing here reads a previous
        epoch.
        """
        positions = self._positions_ecef(time_s)
        box = self.config.bounding_box
        if box is None:
            active = np.ones(len(positions), dtype=bool)
        else:
            # Certified geocentric latitude bound: the full geodetic
            # conversion runs only for satellites within the margin band of
            # a box latitude edge — identical verdicts.
            active = np.asarray(box.contains_ecef(positions), dtype=bool)

        # Inter-satellite links (+GRID): the line-of-sight check of every
        # candidate against its shell's grazing limit.
        endpoint_a = positions.take(self._isl_endpoints_a, axis=0)  # take: 5× a fancy index
        endpoint_b = positions.take(self._isl_endpoints_b, axis=0)
        isl_distances = slant_range_km(endpoint_a, endpoint_b)
        clear = isl_closest_approach_km(endpoint_a, endpoint_b) >= self._isl_limit_km

        # Ground-station visibility: one flat (station, satellite, slant
        # range) table for all stations and shells at once, its rows in
        # station, shell, satellite order.
        ground = self._gst_position_stack
        station, satellite, distance_km = visible_satellites_batch(
            ground,
            positions,
            self._gst_min_elevations,
            elevations_deg=elevation_angle_matrix_deg(ground, positions),
        )

        return _EpochArrays(
            satellite_positions=positions,
            active=active,
            isls=(clear, isl_distances[clear], self._isl_bandwidths[clear]),
            uplinks=(station, satellite, distance_km),
        )

    def _positions_ecef(self, time_s: float) -> np.ndarray:
        """Every satellite's ECEF position [km] at a time, over the global
        node order: one propagation and one frame rotation."""
        positions_eci = circular_positions_eci(self._elements, time_s)
        for rows, shell in self._sgp4_shells:
            positions_eci[rows] = shell.positions_eci(time_s)
        return eci_to_ecef(positions_eci, self.config.epoch.gmst_at(time_s))

    def _state(
        self,
        time_s: float,
        geometry: _Geometry,
        active: np.ndarray,
        graph: NetworkGraph,
        trend: DelayTrend,
        previous: Optional[ConstellationState] = None,
        topology: Optional[TopologyDiff] = None,
    ) -> ConstellationState:
        """A state over ``geometry`` and the flat ``active`` array; its path
        store advances from ``previous``'s by ``topology``, or starts with
        the ground stations as sources."""
        if previous is not None and topology is not None:
            paths = self.path_engine.advance_all(previous.paths, graph, topology)
        else:
            paths = PathRows(graph, self.path_engine, self._gst_nodes.tolist())
        rows = self._shell_rows
        return ConstellationState(
            time_s=time_s,
            node_index=self.node_index,
            graph=graph,
            paths=paths,
            # Per-shell views of the flat array.
            active_satellites={s: active[r] for s, r in enumerate(rows)},
            ground_positions_ecef=dict(self._ground_positions),
            trend=trend,
            _geometry=geometry,
        )

    def _assemble_graph(self, epoch: _EpochArrays) -> NetworkGraph:
        """Merge the epoch's ISLs and uplink table into the edge arrays.

        The edges come out in the graph's canonical link order, which fixes
        the edge ids, so every graph of one epoch, cold or incremental,
        numbers its edges alike and the graph only verifies the order.  The
        ISL candidates are in it; the uplinks, sorted by pair key, are
        merged in by one ``searchsorted``, which makes one permutation of
        the concatenated columns.  The endpoints are the merged pair keys
        divided by the node count.  No sort sees more than the epoch's
        uplinks.
        """
        clear, isl_distances_km, isl_bandwidths = epoch.isls
        station, satellite_nodes, uplink_distances_km = epoch.uplinks
        node_count, isl_count = len(self.node_index), isl_distances_km.size
        isl_keys = self._isl_keys[clear]
        uplink_keys = pair_keys(self._gst_nodes[station], satellite_nodes, node_count)
        uplink_order = np.argsort(uplink_keys)
        uplink_keys = uplink_keys[uplink_order]
        at = np.searchsorted(isl_keys, uplink_keys)
        order = np.insert(np.arange(isl_count), at, isl_count + uplink_order)
        node_a, node_b = np.divmod(np.insert(isl_keys, at, uplink_keys), node_count)
        distances_km = np.concatenate([isl_distances_km, uplink_distances_km])[order]
        uplink_bandwidths = self._gst_uplink_bandwidths[
            self._satellite_shell[satellite_nodes], station
        ]
        return NetworkGraph.from_edge_arrays(
            self.node_index,
            node_a,
            node_b,
            distances_km,
            link_delay_counts(distances_km),
            np.concatenate([isl_bandwidths, uplink_bandwidths])[order],
            np.concatenate(
                [
                    np.full(isl_count, _ISL_CODE, dtype=np.int8),
                    np.full(station.size, _UPLINK_CODE, dtype=np.int8),
                ]
            )[order],
        )

    def state_at(self, time_s: float) -> ConstellationState:
        """Compute the full constellation state at a simulation time.

        This is the cold reference path: the epoch is evaluated as
        :meth:`diff_since` evaluates it, the path rows start empty and the
        delay trend is zero.  Use :meth:`diff_since` to advance from a
        previous epoch instead.
        """
        epoch = self._epoch_arrays(time_s)
        graph = self._assemble_graph(epoch)
        trend = DelayTrend.cold(graph)
        geometry = _Geometry(self, time_s, epoch.satellite_positions)
        return self._state(time_s, geometry, epoch.active, graph, trend)

    def diff_since(
        self, previous: ConstellationState, time_s: float
    ) -> tuple[ConstellationState, ConstellationDiff]:
        """Advance from a previous epoch.

        Returns the new state — the epoch computed as :meth:`state_at`
        computes it, so byte-identical to its state for ``time_s`` —
        together with the :class:`ConstellationDiff` describing everything
        that changed since ``previous``.  The graph is assembled exactly as :meth:`state_at`
        assembles it, and no step of the epoch sorts more than its uplinks:
        the canonical link order comes from the presorted ISL candidates,
        the topology diff pairs the two sorted key arrays with one
        ``searchsorted`` (a 1:1 comparison when no link appeared or
        disappeared), and the delay-matrix structure waits for the first
        query that solves a row.
        """
        if previous.node_index is not self.node_index:
            raise ValueError("previous state belongs to a different calculation")
        epoch = self._epoch_arrays(time_s)
        graph = self._assemble_graph(epoch)
        topology = graph.diff_from(previous.graph)

        shells = range(len(self.shells))
        was = np.concatenate([previous.active_satellites[shell] for shell in shells])
        changed = np.flatnonzero(epoch.active ^ was)
        flipped = {}
        for shell, rows in enumerate(self._shell_rows):
            # changed ascends, so each shell's flips are one slice of it.
            mine = slice(*np.searchsorted(changed, (rows.start, rows.stop)).tolist())
            flipped[shell] = changed[mine] - rows.start

        state = self._state(
            time_s,
            _Geometry(self, time_s, epoch.satellite_positions),
            epoch.active,
            graph,
            previous.trend.after(topology),
            previous,
            topology,
        )
        diff = ConstellationDiff(
            time_s=time_s,
            topology=topology,
            flipped=flipped,
            previous_trend=previous.trend,
            trend=state.trend,
        )
        return state, diff

    def state_from_replica(
        self, previous: ConstellationState, replica, frame: bytes
    ) -> tuple[ConstellationState, ConstellationDiff]:
        """The state and diff of the DIFF ``frame`` that ``replica`` (a
        :class:`~repro.serve.codec.EpochReplica`) just applied on top of
        ``previous``, the state of its epoch before.

        The same state and diff as :meth:`diff_since` from ``previous`` (the
        frame was encoded from those), rebuilt without computing the epoch.
        Eager: the graph's columns are copies of the replica's, which the
        next frame patches in place; the activity is the replica's and the
        trend its object, which the published diff must reference.  Lazy,
        because almost nothing reads them: the geometry, a pure function of
        the configuration and the time.  The satellite positions are
        propagated on the first read that names a satellite
        (:class:`_Geometry`), and the graph's ``distances_km`` are the slant
        ranges of its endpoints on their first read
        (:meth:`_Geometry.slant_ranges_km`).  Either is computed at most
        once, with the expression ``diff_since`` uses, so it has the same
        bits whenever it is read.  The :class:`TopologyDiff` is the
        frame's own sets (:attr:`~repro.serve.codec.EpochReplica.applied`),
        not a diff of the two graphs: a delay-changed link's previous edge
        id is its rank among the kept links, counted past the removed ones.
        The rebuilt state holds all that :meth:`diff_since` reads of a
        previous state, so the next epoch from it is the one from the
        computed state, frame for frame.
        """
        removed, added, delay_changed, bandwidth_changed, flips = replica.applied
        time_s = replica.time_s
        geometry = _Geometry(self, time_s)
        node_a, node_b, counts, bandwidths, types = (column.copy() for column in replica.links)
        graph = NetworkGraph.from_edge_arrays(
            self.node_index, node_a, node_b, geometry.slant_ranges_km, counts, bandwidths, types
        )
        kept = delay_changed - np.searchsorted(added, delay_changed)
        topology = TopologyDiff(
            previous=previous.graph,
            current=graph,
            links_added=added,
            links_removed=removed,
            delay_changed=delay_changed,
            delay_changed_previous=kept
            + np.searchsorted(removed - np.arange(removed.size), kept, side="right"),
            bandwidth_changed=bandwidth_changed,
        )
        shells = range(len(self.shells))
        active = np.concatenate([replica.active[shell] for shell in shells])
        state = self._state(time_s, geometry, active, graph, replica.trend, previous, topology)
        nothing = np.empty(0, dtype=np.intp)
        diff = ConstellationDiff(
            time_s=time_s,
            topology=topology,
            flipped={shell: flips.get(shell, nothing) for shell in shells},
            previous_trend=previous.trend,
            trend=state.trend,
            frame=frame,
        )
        return state, diff
