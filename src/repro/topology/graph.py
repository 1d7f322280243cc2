"""Network graph data structures for the constellation topology.

Nodes are satellites (addressed by shell index and in-shell identifier) and
ground stations (addressed by name).  Internally every node maps to a flat
integer index so that adjacency matrices and shortest-path algorithms can
operate on NumPy/SciPy structures.

Array-backed layout
-------------------

:class:`NetworkGraph` stores the edge set in structure-of-arrays form: five
parallel NumPy arrays (``node_a``, ``node_b``, ``distance_km``, ``delay_ms``,
``bandwidth_kbps``) plus an ``int8`` link-type code array.  Links can be
appended one at a time (:meth:`NetworkGraph.add_link`) or in bulk from arrays
(:meth:`NetworkGraph.add_links`); the constellation calculation uses the bulk
path so that a full snapshot is built from a handful of array appends instead
of one Python call per link.

Derived structures are built lazily on first query and cached until the edge
set changes:

* a CSR adjacency (``indptr``/neighbour/edge-id arrays) for O(degree)
  :meth:`NetworkGraph.links_of` and :meth:`NetworkGraph.degree`;
* a hash map from the packed node pair ``min(a,b) * n + max(a,b)`` to the
  edge id for O(1) :meth:`NetworkGraph.link_between`, plus a sorted key array
  for the vectorised :meth:`NetworkGraph.edge_ids_between`;
* the symmetric sparse delay matrix used by the shortest-path solvers.

Duplicate links between the same node pair are deduplicated when the edge
arrays are finalised: only the minimum-delay link of each pair is kept (the
seed implementation silently *summed* duplicate delays in the COO→CSR
construction of :meth:`NetworkGraph.delay_matrix`, inflating delays).
Zero-delay links are clamped to :data:`DELAY_EPSILON_MS` in the delay matrix
so that ``scipy.sparse.csgraph`` does not confuse them with absent edges
(explicit zeros are treated as no-edge, which made co-located nodes
unreachable).

The legacy object API — :class:`Link` dataclasses, ``graph.links``,
``links_of`` and ``link_between`` — is preserved as thin views over the
arrays, so existing consumers (animation export, tests, benchmarks) keep
working unchanged.

Epoch-to-epoch diffs
--------------------

Consecutive constellation epochs share almost their entire edge structure:
ISL endpoints are static per shell and only a small fraction of uplinks
appear or disappear between updates.  :meth:`NetworkGraph.diff_from`
compares two epochs' edge arrays and emits a :class:`TopologyDiff` —
``links_added`` / ``links_removed`` / ``delay_changed`` /
``bandwidth_changed`` edge-id index arrays — which the coordinator shards
into per-host slices instead of replaying the full state.
:meth:`NetworkGraph.structurally_equal` answers the cheaper "same edge set?"
question.  :meth:`NetworkGraph.from_edge_arrays` builds a finalised graph
directly from parallel arrays, optionally sharing the derived caches (sorted
pair keys, CSR adjacency, delay-matrix structure) of a structurally
identical previous epoch so that steady-state updates skip the argsort and
sparse-matrix reconstruction entirely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

#: Delay [ms] substituted for exact-zero link delays in :meth:`NetworkGraph.delay_matrix`.
#: ``scipy.sparse.csgraph`` treats explicit zeros as "no edge", so a true zero
#: would make co-located nodes unreachable.  The value is small enough that the
#: accumulated error over any realistic hop count stays far below measurement
#: precision (1e-9 ms per hop).
DELAY_EPSILON_MS = 1e-9


class LinkType(enum.Enum):
    """Type of a constellation network link."""

    ISL = "isl"
    UPLINK = "uplink"
    HOST = "host"


#: Stable integer codes used in the packed link-type array.
_LINK_TYPE_BY_CODE: tuple[LinkType, ...] = (LinkType.ISL, LinkType.UPLINK, LinkType.HOST)
_CODE_BY_LINK_TYPE: dict[LinkType, int] = {
    link_type: code for code, link_type in enumerate(_LINK_TYPE_BY_CODE)
}


@dataclass(frozen=True)
class Link:
    """An undirected network link between two flat node indices."""

    node_a: int
    node_b: int
    distance_km: float
    delay_ms: float
    bandwidth_kbps: float
    link_type: LinkType = LinkType.ISL

    def other(self, node: int) -> int:
        """The endpoint of the link that is not ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of this link")


@dataclass(frozen=True)
class TopologyDiff:
    """Edge-level difference between two epochs of the constellation network.

    The index arrays refer to edge ids: ``links_added``, ``delay_changed``
    and ``bandwidth_changed`` index into the *current* graph's edge arrays,
    ``links_removed`` into the *previous* graph's.  ``delay_changed`` and
    ``bandwidth_changed`` cover pairs present in both epochs whose attribute
    value differs; a pair that (dis)appeared is only reported as
    added/removed.  Both graphs are kept on the diff so consumers (the
    coordinator's per-host slicing, the virtual network) can resolve ids to
    endpoints and new values without a separate lookup channel.
    """

    previous: "NetworkGraph"
    current: "NetworkGraph"
    links_added: np.ndarray
    links_removed: np.ndarray
    delay_changed: np.ndarray
    bandwidth_changed: np.ndarray

    @property
    def structural_change_count(self) -> int:
        """Number of links that appeared or disappeared."""
        return int(self.links_added.size + self.links_removed.size)

    @property
    def change_count(self) -> int:
        """Total number of changed edges (structural + attribute changes)."""
        return self.structural_change_count + int(
            self.delay_changed.size + self.bandwidth_changed.size
        )

    @property
    def is_empty(self) -> bool:
        """Whether the two epochs are byte-identical at the edge level."""
        return self.change_count == 0

    @property
    def is_structural_noop(self) -> bool:
        """Whether the edge *set* is unchanged (only delays/bandwidths moved)."""
        return self.structural_change_count == 0

    # -- endpoint / value views ------------------------------------------

    def added_endpoints(self) -> np.ndarray:
        """``(k, 2)`` node pairs of the added links (current-graph order)."""
        return np.column_stack(
            (self.current.node_a[self.links_added], self.current.node_b[self.links_added])
        )

    def removed_endpoints(self) -> np.ndarray:
        """``(k, 2)`` node pairs of the removed links (previous-graph order)."""
        return np.column_stack(
            (self.previous.node_a[self.links_removed], self.previous.node_b[self.links_removed])
        )

    def delay_changed_endpoints(self) -> np.ndarray:
        """``(k, 2)`` node pairs of surviving links whose delay changed."""
        return np.column_stack(
            (self.current.node_a[self.delay_changed], self.current.node_b[self.delay_changed])
        )

    def delay_changed_values_ms(self) -> np.ndarray:
        """New one-way delays [ms] of the ``delay_changed`` links."""
        return self.current.delays_ms[self.delay_changed]

    def bandwidth_changed_endpoints(self) -> np.ndarray:
        """``(k, 2)`` node pairs of surviving links whose bandwidth changed."""
        return np.column_stack(
            (self.current.node_a[self.bandwidth_changed], self.current.node_b[self.bandwidth_changed])
        )

    def bandwidth_changed_values_kbps(self) -> np.ndarray:
        """New bandwidths [kbps] of the ``bandwidth_changed`` links."""
        return self.current.bandwidths_kbps[self.bandwidth_changed]

    def summary(self) -> dict[str, int]:
        """Compact counters (used by logging and the info API)."""
        return {
            "links_added": int(self.links_added.size),
            "links_removed": int(self.links_removed.size),
            "delay_changed": int(self.delay_changed.size),
            "bandwidth_changed": int(self.bandwidth_changed.size),
        }


class NodeIndex:
    """Bidirectional mapping between logical node names and flat indices.

    Satellites come first, ordered by shell then by in-shell identifier;
    ground stations follow in registration order.  This matches Celestial's
    address-space layout where each (shell, id) pair and each ground station
    receives a deterministic network address (§3.2).
    """

    def __init__(self, shell_sizes: Iterable[int], ground_station_names: Iterable[str]):
        self.shell_sizes = list(shell_sizes)
        self.ground_station_names = list(ground_station_names)
        if len(set(self.ground_station_names)) != len(self.ground_station_names):
            raise ValueError("ground station names must be unique")
        self._shell_offsets: list[int] = []
        offset = 0
        for size in self.shell_sizes:
            if size <= 0:
                raise ValueError("shell sizes must be positive")
            self._shell_offsets.append(offset)
            offset += size
        self.satellite_count = offset
        self._gst_offset = offset
        self._gst_indices = {
            name: self._gst_offset + position
            for position, name in enumerate(self.ground_station_names)
        }

    def __len__(self) -> int:
        return self.satellite_count + len(self.ground_station_names)

    @property
    def node_count(self) -> int:
        """Total number of nodes (satellites + ground stations)."""
        return len(self)

    def satellite(self, shell: int, identifier: int) -> int:
        """Flat index of a satellite."""
        if not 0 <= shell < len(self.shell_sizes):
            raise IndexError(f"shell {shell} out of range")
        if not 0 <= identifier < self.shell_sizes[shell]:
            raise IndexError(f"satellite {identifier} out of range for shell {shell}")
        return self._shell_offsets[shell] + identifier

    def shell_offset(self, shell: int) -> int:
        """Flat index of the first satellite of a shell."""
        if not 0 <= shell < len(self.shell_sizes):
            raise IndexError(f"shell {shell} out of range")
        return self._shell_offsets[shell]

    def ground_station(self, name: str) -> int:
        """Flat index of a ground station."""
        if name not in self._gst_indices:
            raise KeyError(f"unknown ground station: {name}")
        return self._gst_indices[name]

    def is_satellite(self, index: int) -> bool:
        """Whether a flat index refers to a satellite."""
        return 0 <= index < self.satellite_count

    def is_ground_station(self, index: int) -> bool:
        """Whether a flat index refers to a ground station."""
        return self.satellite_count <= index < len(self)

    def describe(self, index: int) -> tuple[str, int, int | str]:
        """Human-readable description: ('sat', shell, id) or ('gst', -1, name)."""
        if index < 0 or index >= len(self):
            raise IndexError(f"node index {index} out of range")
        if self.is_satellite(index):
            for shell, offset in enumerate(self._shell_offsets):
                if index < offset + self.shell_sizes[shell]:
                    return ("sat", shell, index - offset)
        return ("gst", -1, self.ground_station_names[index - self._gst_offset])

    def satellites_of_shell(self, shell: int) -> range:
        """Flat index range of all satellites of one shell."""
        offset = self._shell_offsets[shell]
        return range(offset, offset + self.shell_sizes[shell])

    def ground_station_indices(self) -> range:
        """Flat index range of all ground stations."""
        return range(self._gst_offset, len(self))


class NetworkGraph:
    """A snapshot of the constellation network at one point in time.

    Edges are stored as parallel NumPy arrays (see the module docstring for
    the layout); the :class:`Link` object API is served from lazily built
    views over those arrays.
    """

    def __init__(self, index: NodeIndex, links: Optional[Iterable[Link]] = None):
        self.index = index
        self._node_count = len(index)
        # Pending edge chunks: (node_a, node_b, distance, delay, bandwidth, type_code).
        self._chunks: list[tuple[np.ndarray, ...]] = []
        # Finalised (deduplicated) edge arrays and derived caches.
        self._finalized = False
        self._node_a = np.empty(0, dtype=np.int64)
        self._node_b = np.empty(0, dtype=np.int64)
        self._distance_km = np.empty(0, dtype=np.float64)
        self._delay_ms = np.empty(0, dtype=np.float64)
        self._bandwidth_kbps = np.empty(0, dtype=np.float64)
        self._type_code = np.empty(0, dtype=np.int8)
        self._edge_of: Optional[dict[int, int]] = None
        self._keys = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.int64)
        self._sorted_edge_ids = np.empty(0, dtype=np.int64)
        self._csr_template: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._adj_indptr: Optional[np.ndarray] = None
        self._adj_nodes: Optional[np.ndarray] = None
        self._adj_edges: Optional[np.ndarray] = None
        self._links_view: Optional[list[Link]] = None
        if links is not None:
            for link in links:
                self.add_link(link)

    # -- edge construction -------------------------------------------------

    def add_link(self, link: Link) -> None:
        """Add an undirected link to the graph."""
        if link.node_a == link.node_b:
            raise ValueError("self-links are not allowed")
        if not (0 <= link.node_a < self._node_count and 0 <= link.node_b < self._node_count):
            raise ValueError("link endpoints out of range")
        self._chunks.append(
            (
                np.array([link.node_a], dtype=np.int64),
                np.array([link.node_b], dtype=np.int64),
                np.array([link.distance_km], dtype=np.float64),
                np.array([link.delay_ms], dtype=np.float64),
                np.array([link.bandwidth_kbps], dtype=np.float64),
                np.array([_CODE_BY_LINK_TYPE[link.link_type]], dtype=np.int8),
            )
        )
        self._invalidate()

    def add_links(
        self,
        node_a: np.ndarray,
        node_b: np.ndarray,
        distance_km: np.ndarray,
        delay_ms: np.ndarray,
        bandwidth_kbps: np.ndarray | float,
        link_type: LinkType = LinkType.ISL,
    ) -> None:
        """Bulk-append undirected links from parallel arrays.

        ``bandwidth_kbps`` may be a scalar (broadcast over all links).  This
        is the hot path used by the constellation calculation: one call per
        shell for the ISLs and one per ground-station/shell pair for the
        uplinks, instead of one :meth:`add_link` per edge.
        """
        node_a = np.ascontiguousarray(node_a, dtype=np.int64)
        node_b = np.ascontiguousarray(node_b, dtype=np.int64)
        if node_a.shape != node_b.shape or node_a.ndim != 1:
            raise ValueError("endpoint arrays must be 1-D and of equal length")
        if node_a.size == 0:
            return
        if np.any(node_a == node_b):
            raise ValueError("self-links are not allowed")
        lo = min(int(node_a.min()), int(node_b.min()))
        hi = max(int(node_a.max()), int(node_b.max()))
        if lo < 0 or hi >= self._node_count:
            raise ValueError("link endpoints out of range")
        count = node_a.size
        distance_km = np.broadcast_to(
            np.asarray(distance_km, dtype=np.float64), (count,)
        ).copy()
        delay_ms = np.broadcast_to(np.asarray(delay_ms, dtype=np.float64), (count,)).copy()
        bandwidth = np.broadcast_to(
            np.asarray(bandwidth_kbps, dtype=np.float64), (count,)
        ).copy()
        type_code = np.full(count, _CODE_BY_LINK_TYPE[link_type], dtype=np.int8)
        self._chunks.append((node_a, node_b, distance_km, delay_ms, bandwidth, type_code))
        self._invalidate()

    @classmethod
    def from_edge_arrays(
        cls,
        index: NodeIndex,
        node_a: np.ndarray,
        node_b: np.ndarray,
        distance_km: np.ndarray,
        delay_ms: np.ndarray,
        bandwidth_kbps: np.ndarray,
        type_code: np.ndarray,
        structure_from: Optional["NetworkGraph"] = None,
    ) -> "NetworkGraph":
        """Build a finalised graph directly from parallel edge arrays.

        This is the differential-update fast path: the caller provides the
        complete edge set (endpoint pairs must be unique — verified cheaply
        from the sorted keys) and the graph skips the chunked ``add_links``
        append/deduplicate machinery.  When ``structure_from`` is a finalised
        graph over an equally sized node index whose edge keys match in
        insertion order — the steady-state case, where only delays and
        bandwidths moved — its derived caches (sorted key array, pair-key
        hash map, CSR adjacency and the delay-matrix structure template) are
        shared instead of recomputed; none of them are ever mutated after
        construction, so sharing is safe.
        """
        graph = cls(index)
        graph._node_a = np.ascontiguousarray(node_a, dtype=np.int64)
        graph._node_b = np.ascontiguousarray(node_b, dtype=np.int64)
        count = graph._node_a.size
        if graph._node_b.size != count:
            raise ValueError("endpoint arrays must be of equal length")
        graph._distance_km = np.ascontiguousarray(distance_km, dtype=np.float64)
        graph._delay_ms = np.ascontiguousarray(delay_ms, dtype=np.float64)
        graph._bandwidth_kbps = np.ascontiguousarray(bandwidth_kbps, dtype=np.float64)
        graph._type_code = np.ascontiguousarray(type_code, dtype=np.int8)
        if count:
            if np.any(graph._node_a == graph._node_b):
                raise ValueError("self-links are not allowed")
            lo = min(int(graph._node_a.min()), int(graph._node_b.min()))
            hi = max(int(graph._node_a.max()), int(graph._node_b.max()))
            if lo < 0 or hi >= graph._node_count:
                raise ValueError("link endpoints out of range")
        keys = (
            np.minimum(graph._node_a, graph._node_b) * np.int64(graph._node_count)
            + np.maximum(graph._node_a, graph._node_b)
        )
        graph._keys = keys
        if (
            structure_from is not None
            and structure_from._finalized
            and structure_from._node_count == graph._node_count
            and np.array_equal(keys, structure_from._keys)
        ):
            graph._sorted_keys = structure_from._sorted_keys
            graph._sorted_edge_ids = structure_from._sorted_edge_ids
            graph._edge_of = structure_from._edge_of
            graph._adj_indptr = structure_from._adj_indptr
            graph._adj_nodes = structure_from._adj_nodes
            graph._adj_edges = structure_from._adj_edges
            graph._csr_template = structure_from._csr_template
        else:
            sort = np.argsort(keys)
            if keys.size and np.any(np.diff(keys[sort]) == 0):
                raise ValueError("from_edge_arrays requires unique node pairs")
            graph._sorted_keys = keys[sort]
            graph._sorted_edge_ids = sort.astype(np.int64)
        graph._finalized = True
        return graph

    def _invalidate(self) -> None:
        self._finalized = False
        self._links_view = None
        self._edge_of = None
        self._adj_indptr = None
        self._adj_nodes = None
        self._adj_edges = None
        self._csr_template = None

    def _finalize(self) -> None:
        """Concatenate pending chunks and deduplicate node pairs (min delay)."""
        if self._finalized:
            return
        if self._chunks:
            arrays = [self._node_a, self._node_b, self._distance_km,
                      self._delay_ms, self._bandwidth_kbps, self._type_code]
            merged = []
            for base, column in zip(arrays, zip(*self._chunks)):
                merged.append(np.concatenate([base, *column]))
            (self._node_a, self._node_b, self._distance_km,
             self._delay_ms, self._bandwidth_kbps, self._type_code) = merged
            self._chunks = []
        keys = (
            np.minimum(self._node_a, self._node_b) * np.int64(self._node_count)
            + np.maximum(self._node_a, self._node_b)
        )
        sort = np.argsort(keys)
        if keys.size and np.any(np.diff(keys[sort]) == 0):
            # Keep the minimum-delay link per pair (first added wins ties),
            # preserving the insertion order of the survivors.
            order = np.lexsort((np.arange(keys.size), self._delay_ms, keys))
            _, first = np.unique(keys[order], return_index=True)
            keep = np.sort(order[first])
            self._node_a = self._node_a[keep]
            self._node_b = self._node_b[keep]
            self._distance_km = self._distance_km[keep]
            self._delay_ms = self._delay_ms[keep]
            self._bandwidth_kbps = self._bandwidth_kbps[keep]
            self._type_code = self._type_code[keep]
            keys = keys[keep]
            sort = np.argsort(keys)
        self._keys = keys
        self._sorted_keys = keys[sort]
        self._sorted_edge_ids = sort.astype(np.int64)
        self._finalized = True

    def _edge_map(self) -> dict[int, int]:
        """Packed pair key → edge id hash map, built on first scalar lookup.

        Kept off the snapshot hot path: building the Python dict costs O(E)
        interpreter work per snapshot, but only per-pair queries
        (``link_between``/``bandwidth_between``) need it — vectorised lookups
        go through ``searchsorted`` on the sorted key array instead.
        """
        self._finalize()
        if self._edge_of is None:
            keys = (
                np.minimum(self._node_a, self._node_b) * np.int64(self._node_count)
                + np.maximum(self._node_a, self._node_b)
            )
            self._edge_of = dict(zip(keys.tolist(), range(keys.size)))
        return self._edge_of

    def _build_adjacency(self) -> None:
        self._finalize()
        if self._adj_indptr is not None:
            return
        edge_count = self._node_a.size
        endpoints = np.concatenate([self._node_a, self._node_b])
        neighbors = np.concatenate([self._node_b, self._node_a])
        edge_ids = np.concatenate([np.arange(edge_count)] * 2)
        order = np.argsort(endpoints, kind="stable")
        degrees = np.bincount(endpoints, minlength=self._node_count)
        self._adj_indptr = np.concatenate([[0], np.cumsum(degrees)])
        self._adj_nodes = neighbors[order]
        self._adj_edges = edge_ids[order]

    # -- array views --------------------------------------------------------

    @property
    def node_a(self) -> np.ndarray:
        """First endpoints of all links (deduplicated, insertion order)."""
        self._finalize()
        return self._node_a

    @property
    def node_b(self) -> np.ndarray:
        """Second endpoints of all links."""
        self._finalize()
        return self._node_b

    @property
    def distances_km(self) -> np.ndarray:
        """Link distances [km]."""
        self._finalize()
        return self._distance_km

    @property
    def delays_ms(self) -> np.ndarray:
        """Link one-way delays [ms]."""
        self._finalize()
        return self._delay_ms

    @property
    def bandwidths_kbps(self) -> np.ndarray:
        """Link bandwidths [kbps]."""
        self._finalize()
        return self._bandwidth_kbps

    @property
    def link_type_codes(self) -> np.ndarray:
        """Link type codes (index into ``LinkType``: 0=ISL, 1=UPLINK, 2=HOST)."""
        self._finalize()
        return self._type_code

    def _link_at(self, edge_id: int) -> Link:
        return Link(
            node_a=int(self._node_a[edge_id]),
            node_b=int(self._node_b[edge_id]),
            distance_km=float(self._distance_km[edge_id]),
            delay_ms=float(self._delay_ms[edge_id]),
            bandwidth_kbps=float(self._bandwidth_kbps[edge_id]),
            link_type=_LINK_TYPE_BY_CODE[self._type_code[edge_id]],
        )

    @property
    def links(self) -> list[Link]:
        """All links as :class:`Link` objects (lazily built, cached view)."""
        if self._links_view is None:
            self._finalize()
            types = [_LINK_TYPE_BY_CODE[code] for code in self._type_code]
            self._links_view = [
                Link(int(a), int(b), float(dist), float(delay), float(bw), link_type)
                for a, b, dist, delay, bw, link_type in zip(
                    self._node_a,
                    self._node_b,
                    self._distance_km,
                    self._delay_ms,
                    self._bandwidth_kbps,
                    types,
                )
            ]
        return self._links_view

    # -- queries ------------------------------------------------------------

    def delay_matrix(self) -> sparse.csr_matrix:
        """Sparse symmetric matrix of one-way link delays [ms].

        Exact-zero delays are clamped to :data:`DELAY_EPSILON_MS` so that
        ``csgraph`` solvers (which treat explicit zeros as missing edges) keep
        co-located nodes reachable.  Duplicate node pairs have already been
        reduced to their minimum-delay link by :meth:`_finalize`.

        The sparsity structure (data permutation, column indices, row
        pointers) only depends on the edge set, so it is cached — and shared
        across structurally identical epochs via :meth:`from_edge_arrays` —
        leaving a pure delay-scatter per call.
        """
        self._finalize()
        n = self._node_count
        if self._node_a.size == 0:
            return sparse.csr_matrix((n, n))
        if self._csr_template is None:
            rows = np.concatenate([self._node_a, self._node_b])
            cols = np.concatenate([self._node_b, self._node_a])
            order = np.lexsort((cols, rows))
            indices = cols[order]
            indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(rows, minlength=n))]
            ).astype(np.int64)
            self._csr_template = (order, indices, indptr)
        order, indices, indptr = self._csr_template
        delays = np.maximum(self._delay_ms, DELAY_EPSILON_MS)
        data = np.concatenate([delays, delays])[order]
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    def links_of(self, node: int) -> list[Link]:
        """All links incident to a node (empty for out-of-range nodes)."""
        if not 0 <= node < self._node_count:
            return []
        self._build_adjacency()
        start, stop = self._adj_indptr[node], self._adj_indptr[node + 1]
        return [self._link_at(int(edge)) for edge in self._adj_edges[start:stop]]

    def neighbors_of(self, node: int) -> np.ndarray:
        """Flat indices of all nodes adjacent to a node (empty if out of range)."""
        if not 0 <= node < self._node_count:
            return np.empty(0, dtype=np.int64)
        self._build_adjacency()
        start, stop = self._adj_indptr[node], self._adj_indptr[node + 1]
        return self._adj_nodes[start:stop]

    def _pair_key(self, node_a: int, node_b: int) -> int:
        return min(node_a, node_b) * self._node_count + max(node_a, node_b)

    def link_between(self, node_a: int, node_b: int) -> Optional[Link]:
        """The link between two nodes, or None if they are not adjacent (O(1))."""
        edge = self._edge_map().get(self._pair_key(node_a, node_b))
        return self._link_at(edge) if edge is not None else None

    def edge_ids_between(
        self, nodes_a: Sequence[int] | np.ndarray, nodes_b: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorised ``(a, b) → edge id`` lookup; ``-1`` where no link exists."""
        self._finalize()
        nodes_a = np.asarray(nodes_a, dtype=np.int64)
        nodes_b = np.asarray(nodes_b, dtype=np.int64)
        keys = (
            np.minimum(nodes_a, nodes_b) * np.int64(self._node_count)
            + np.maximum(nodes_a, nodes_b)
        )
        if self._sorted_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        positions = np.searchsorted(self._sorted_keys, keys)
        positions = np.minimum(positions, self._sorted_keys.size - 1)
        found = self._sorted_keys[positions] == keys
        edges = np.where(found, self._sorted_edge_ids[positions], -1)
        return edges

    # -- epoch diffs ---------------------------------------------------------

    def structurally_equal(self, other: "NetworkGraph") -> bool:
        """Whether both graphs contain exactly the same set of node pairs."""
        if self._node_count != other._node_count:
            return False
        self._finalize()
        other._finalize()
        return np.array_equal(self._sorted_keys, other._sorted_keys)

    def diff_from(self, previous: "NetworkGraph") -> TopologyDiff:
        """Diff this epoch's edge arrays against a previous epoch's.

        Emits a :class:`TopologyDiff` with ``links_added`` /
        ``links_removed`` / ``delay_changed`` / ``bandwidth_changed``
        edge-id index arrays (see the class docstring for which graph each
        array indexes into).  Attribute changes are detected by exact float
        comparison: the constellation calculation recomputes both epochs
        with bitwise-identical operations, so any genuine movement differs
        exactly.
        """
        if self._node_count != previous._node_count:
            raise ValueError("graphs must share the same node index layout")
        self._finalize()
        previous._finalize()
        empty = np.empty(0, dtype=np.int64)
        if np.array_equal(self._keys, previous._keys):
            # Steady state: identical edge sets in identical insertion order,
            # so edge ids line up 1:1 and no set intersection is needed.
            delay_changed = np.nonzero(self._delay_ms != previous._delay_ms)[0]
            bandwidth_changed = np.nonzero(
                self._bandwidth_kbps != previous._bandwidth_kbps
            )[0]
            return TopologyDiff(
                previous=previous,
                current=self,
                links_added=empty,
                links_removed=empty,
                delay_changed=delay_changed,
                bandwidth_changed=bandwidth_changed,
            )
        _, in_current, in_previous = np.intersect1d(
            self._sorted_keys,
            previous._sorted_keys,
            assume_unique=True,
            return_indices=True,
        )
        common_current = self._sorted_edge_ids[in_current]
        common_previous = previous._sorted_edge_ids[in_previous]
        added_mask = np.ones(self._node_a.size, dtype=bool)
        added_mask[common_current] = False
        removed_mask = np.ones(previous._node_a.size, dtype=bool)
        removed_mask[common_previous] = False
        delay_changed = common_current[
            self._delay_ms[common_current] != previous._delay_ms[common_previous]
        ]
        bandwidth_changed = common_current[
            self._bandwidth_kbps[common_current]
            != previous._bandwidth_kbps[common_previous]
        ]
        return TopologyDiff(
            previous=previous,
            current=self,
            links_added=np.nonzero(added_mask)[0],
            links_removed=np.nonzero(removed_mask)[0],
            delay_changed=np.sort(delay_changed),
            bandwidth_changed=np.sort(bandwidth_changed),
        )

    def degree(self, node: int) -> int:
        """Number of links incident to a node (0 for out-of-range nodes)."""
        if not 0 <= node < self._node_count:
            return 0
        self._build_adjacency()
        return int(self._adj_indptr[node + 1] - self._adj_indptr[node])

    def total_links(self) -> int:
        """Number of undirected links in the graph (after deduplication)."""
        self._finalize()
        return int(self._node_a.size)

    def bandwidth_between(self, node_a: int, node_b: int) -> float:
        """Bandwidth of the direct link between two nodes [kbps], 0 if absent."""
        edge = self._edge_map().get(self._pair_key(node_a, node_b))
        return float(self._bandwidth_kbps[edge]) if edge is not None else 0.0

    def as_networkx(self):
        """Export to a networkx graph (used by the animation/export component)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._node_count))
        for link in self.links:
            graph.add_edge(
                link.node_a,
                link.node_b,
                delay_ms=link.delay_ms,
                distance_km=link.distance_km,
                bandwidth_kbps=link.bandwidth_kbps,
                link_type=link.link_type.value,
            )
        return graph
