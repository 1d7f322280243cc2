"""Network graph data structures for the constellation topology.

Nodes are satellites (addressed by shell index and in-shell identifier) and
ground stations (addressed by name).  :class:`NodeIndex` maps every node to
a flat integer index so that adjacency matrices and shortest-path
algorithms can operate on NumPy/SciPy structures.

Array layout
------------

:class:`NetworkGraph` is an immutable edge table in structure-of-arrays
form: six parallel, read-only NumPy arrays indexed by *edge id* —
``node_a`` / ``node_b`` (``int64`` flat node indices), ``distances_km`` /
``delays_ms`` / ``bandwidths_kbps`` (``float64``) and ``link_type_codes``
(``int8``, index into :class:`LinkType`: 0=ISL, 1=UPLINK, 2=HOST).  Edge
ids are the positions the caller passed the edges in.

:meth:`NetworkGraph.from_edge_arrays` is the only constructor.  It checks
its input (equal endpoint lengths, no self-links, endpoints in range, every
undirected node pair at most once) and returns a finished graph that
nothing changes afterwards — the same epoch object is shared, uncopied, by
the database's publication, both sides of a :class:`TopologyDiff`, the
path rows that share it, the codec and the coordinator's sharding.

What is cached and shared
-------------------------

Two structures derived at construction depend only on the edge *set*:

* the packed pair keys (:func:`pair_keys`) in edge order and sorted, with
  the sorting permutation (:attr:`NetworkGraph.sorted_edge_ids`), serving
  :meth:`NetworkGraph.edge_ids_between`, the set intersection of
  :meth:`NetworkGraph.diff_from` and the codec's canonical link order;
* the sparsity structure of :meth:`NetworkGraph.delay_matrix` (data
  permutation, column indices, row pointers).

``from_edge_arrays(..., structure_from=previous)`` shares both with a
previous epoch whose keys match in edge order — the steady state, where
only delays and bandwidths moved — so such an epoch skips the argsort and
the sparse-matrix reconstruction.

Epoch-to-epoch diffs
--------------------

Consecutive constellation epochs share almost their entire edge structure:
ISL endpoints are static per shell and only a small fraction of uplinks
appear or disappear between updates.  :meth:`NetworkGraph.diff_from`
compares two epochs' edge arrays and emits a :class:`TopologyDiff` —
``links_added`` / ``links_removed`` / ``delay_changed`` /
``bandwidth_changed`` edge-id index arrays — which the path engine, the
virtual network and the epoch-update codec consume instead of re-reading
the full state.
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


def pair_keys(nodes_a: np.ndarray, nodes_b: np.ndarray, node_count: int) -> np.ndarray:
    """Packed undirected pair keys ``min(a, b) * node_count + max(a, b)``."""
    return np.minimum(nodes_a, nodes_b) * np.int64(node_count) + np.maximum(nodes_a, nodes_b)


def _read_only(values: np.ndarray, dtype) -> np.ndarray:
    """Read-only contiguous view; an array the caller still owns keeps its flag."""
    view = np.ascontiguousarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


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
    """An immutable snapshot of the constellation network at one point in time.

    Edges are parallel read-only NumPy arrays indexed by edge id (see the
    module docstring for the layout); :meth:`from_edge_arrays` is the only
    constructor.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a NetworkGraph is built by NetworkGraph.from_edge_arrays")

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
        """Build a graph from parallel edge arrays (position = edge id).

        The caller provides the complete edge set; every undirected node
        pair may occur at most once (verified from the sorted keys).  When
        ``structure_from`` is a graph over an equally sized node index
        whose edge keys match in edge order — the steady-state case, where
        only delays and bandwidths moved — its derived structures (sorted
        keys, sorting permutation and the delay-matrix structure template)
        are shared instead of recomputed; nothing mutates them after
        construction, so sharing is safe.
        """
        graph = cls.__new__(cls)
        graph.index = index
        graph._node_count = len(index)
        graph._node_a = _read_only(node_a, np.int64)
        graph._node_b = _read_only(node_b, np.int64)
        count = graph._node_a.size
        if graph._node_b.size != count:
            raise ValueError("endpoint arrays must be of equal length")
        graph._distance_km = _read_only(distance_km, np.float64)
        graph._delay_ms = _read_only(delay_ms, np.float64)
        graph._bandwidth_kbps = _read_only(bandwidth_kbps, np.float64)
        graph._type_code = _read_only(type_code, np.int8)
        if count:
            if np.any(graph._node_a == graph._node_b):
                raise ValueError("self-links are not allowed")
            lo = min(int(graph._node_a.min()), int(graph._node_b.min()))
            hi = max(int(graph._node_a.max()), int(graph._node_b.max()))
            if lo < 0 or hi >= graph._node_count:
                raise ValueError("link endpoints out of range")
        keys = pair_keys(graph._node_a, graph._node_b, graph._node_count)
        graph._keys = keys
        if (
            structure_from is not None
            and structure_from._node_count == graph._node_count
            and np.array_equal(keys, structure_from._keys)
        ):
            graph._sorted_keys = structure_from._sorted_keys
            graph._sorted_edge_ids = structure_from._sorted_edge_ids
            graph._csr_template = structure_from._csr_template
        else:
            sort = np.argsort(keys)
            if keys.size and np.any(np.diff(keys[sort]) == 0):
                raise ValueError("from_edge_arrays requires unique node pairs")
            graph._sorted_keys = keys[sort]
            graph._sorted_edge_ids = _read_only(sort, np.int64)
            graph._csr_template = graph._build_csr_template()
        return graph

    def _build_csr_template(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparsity structure of :meth:`delay_matrix`: it only depends on the edge set."""
        rows = np.concatenate([self._node_a, self._node_b])
        cols = np.concatenate([self._node_b, self._node_a])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=self._node_count))]
        ).astype(np.int64)
        return order, cols[order], indptr

    # -- array views --------------------------------------------------------

    @property
    def node_a(self) -> np.ndarray:
        """First endpoints of all links (edge-id order)."""
        return self._node_a

    @property
    def node_b(self) -> np.ndarray:
        """Second endpoints of all links."""
        return self._node_b

    @property
    def distances_km(self) -> np.ndarray:
        """Link distances [km]."""
        return self._distance_km

    @property
    def delays_ms(self) -> np.ndarray:
        """Link one-way delays [ms]."""
        return self._delay_ms

    @property
    def bandwidths_kbps(self) -> np.ndarray:
        """Link bandwidths [kbps]."""
        return self._bandwidth_kbps

    @property
    def link_type_codes(self) -> np.ndarray:
        """Link type codes (index into ``LinkType``: 0=ISL, 1=UPLINK, 2=HOST)."""
        return self._type_code

    @property
    def sorted_edge_ids(self) -> np.ndarray:
        """Edge ids in ascending :func:`pair_keys` order (the canonical link order)."""
        return self._sorted_edge_ids

    # -- queries ------------------------------------------------------------

    def delay_matrix(self) -> sparse.csr_matrix:
        """Sparse symmetric matrix of one-way link delays [ms].

        Exact-zero delays are clamped to :data:`DELAY_EPSILON_MS` so that
        ``csgraph`` solvers (which treat explicit zeros as missing edges) keep
        co-located nodes reachable.  The sparsity structure is cached at
        construction — and shared across structurally identical epochs —
        leaving a pure delay-scatter per call.
        """
        n = self._node_count
        if self._node_a.size == 0:
            return sparse.csr_matrix((n, n))
        order, indices, indptr = self._csr_template
        delays = np.maximum(self._delay_ms, DELAY_EPSILON_MS)
        data = np.concatenate([delays, delays])[order]
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    def edge_ids_between(
        self, nodes_a: Sequence[int] | np.ndarray, nodes_b: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorised ``(a, b) → edge id`` lookup; ``-1`` where no link exists."""
        nodes_a = np.asarray(nodes_a, dtype=np.int64)
        nodes_b = np.asarray(nodes_b, dtype=np.int64)
        keys = pair_keys(nodes_a, nodes_b, self._node_count)
        if self._sorted_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        positions = np.searchsorted(self._sorted_keys, keys)
        positions = np.minimum(positions, self._sorted_keys.size - 1)
        found = self._sorted_keys[positions] == keys
        edges = np.where(found, self._sorted_edge_ids[positions], -1)
        return edges

    def total_links(self) -> int:
        """Number of undirected links in the graph."""
        return int(self._node_a.size)

    # -- epoch diffs ---------------------------------------------------------

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
        empty = np.empty(0, dtype=np.int64)
        if np.array_equal(self._keys, previous._keys):
            # Steady state: identical edge sets in identical edge order,
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
