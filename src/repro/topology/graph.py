"""Network graph data structures for the constellation topology.

Nodes are satellites (addressed by shell index and in-shell identifier) and
ground stations (addressed by name).  :class:`NodeIndex` maps every node to
a flat integer index so that adjacency matrices and shortest-path
algorithms can operate on NumPy/SciPy structures, and it is the one
resolver of machine names (its docstring holds the grammar).

Array layout
------------

:class:`NetworkGraph` is an immutable edge table in structure-of-arrays
form: six parallel, read-only NumPy arrays indexed by *edge id* —
``node_a`` / ``node_b`` (``int64`` flat node indices), ``distances_km``
(``float64``), ``delay_counts`` (``uint32`` counts of
:data:`~repro.topology.linkparams.DELAY_GRID_MS`), ``bandwidths_kbps``
(``float64``) and ``link_type_codes`` (``int8``, index into
:class:`LinkType`: 0=ISL, 1=UPLINK).  A graph has one link order,
the *canonical* one: every edge is stored with ``node_a < node_b``, and
the edges ascend by their pair key ``node_a * node_count + node_b``
(:func:`pair_keys`).  An edge id is therefore the position of the link in
that order, the position the update stream and its replicas name it by.
Every delay is on the grid because it is a count; ``delays_ms``, the
read-only ``float64`` delays the path engine, the uplink info and the
stream's snapshot read, is derived from the counts (a count times a power
of two: exact).

:meth:`NetworkGraph.from_edge_arrays` is the only constructor.  It takes
the edges in any order and either orientation, checks them (equal column
lengths, no self-links, endpoints in range, every undirected node pair at
most once, ``uint32`` delay counts) and returns a finished graph that
nothing changes afterwards — the same epoch object is shared, uncopied, by
the database's publication, both sides of a :class:`TopologyDiff`, the
path rows that answer its queries and the codec.

What is derived, and when
-------------------------

Two structures depend only on the edge *set*, and every graph derives its
own (no graph borrows another's):

* at construction, the ascending pair keys.  Input that already ascends —
  the constellation calculation emits its links in the canonical order —
  is verified in O(E); any other input is sorted once.  The keys serve
  :meth:`NetworkGraph.edge_ids_between` and :meth:`NetworkGraph.diff_from`;
* on each :meth:`NetworkGraph.delay_matrix` call, the CSR structure
  (column indices, row pointers), placed row by row from the canonical
  order without a sort; the path store keeps the matrix for its epoch.
  An epoch whose pairs no query asks never builds it.

The distance column is either given or derived: a graph built with a
function of its endpoints in its place (the update stream's rebuilt epochs,
whose distances are a pure function of the time) derives
:attr:`NetworkGraph.distances_km` on its first read, and
:meth:`NetworkGraph.distances_of` derives only the edges asked for until
then.  Nothing in the path engine, the diff or the codec reads distances:
their delays come from the counts.

Epoch-to-epoch diffs
--------------------

Consecutive constellation epochs share almost their entire edge structure:
ISL endpoints are static per shell and only a small fraction of uplinks
appear or disappear between updates.  :meth:`NetworkGraph.diff_from`
compares two epochs' edge arrays and emits a :class:`TopologyDiff` —
``links_added`` / ``links_removed`` / ``delay_changed`` /
``bandwidth_changed`` arrays of ascending edge ids, that is canonical
positions — which the path engine, the virtual network and the
epoch-update codec consume instead of re-reading the full state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.topology.linkparams import DELAY_GRID_MS

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


#: Stable integer codes used in the packed link-type array.
_LINK_TYPE_BY_CODE: tuple[LinkType, ...] = tuple(LinkType)
_CODE_BY_LINK_TYPE: dict[LinkType, int] = {
    link_type: code for code, link_type in enumerate(_LINK_TYPE_BY_CODE)
}


#: Derives link distances [km] from the links' endpoint columns
#: ``(node_a, node_b)``: what :meth:`NetworkGraph.from_edge_arrays` takes in
#: place of the distance column.
DistanceFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


def pair_keys(nodes_a: np.ndarray, nodes_b: np.ndarray, node_count: int) -> np.ndarray:
    """Packed undirected pair keys ``min(a, b) * node_count + max(a, b)``."""
    return np.minimum(nodes_a, nodes_b) * np.int64(node_count) + np.maximum(nodes_a, nodes_b)


def _read_only(values: np.ndarray) -> np.ndarray:
    """Read-only contiguous view; an array the caller still owns keeps its flag."""
    view = np.ascontiguousarray(values).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class TopologyDiff:
    """Edge-level difference between two epochs of the constellation network.

    The index arrays hold ascending edge ids, which are canonical link
    positions: ``links_added``, ``delay_changed`` and ``bandwidth_changed``
    index into the *current* graph's edge arrays, ``links_removed`` into
    the *previous* graph's.  ``delay_changed`` and ``bandwidth_changed``
    cover pairs present in both epochs whose attribute value differs; a
    pair that (dis)appeared is only reported as added/removed.
    ``delay_changed_previous`` holds the *previous* graph's edge ids of the
    ``delay_changed`` links, entry for entry (the same array when no link
    appeared or disappeared).  Both graphs are kept on the diff so
    consumers (the virtual network, the update codec) can resolve ids to
    endpoints and old and new values without a separate lookup channel.
    """

    previous: "NetworkGraph"
    current: "NetworkGraph"
    links_added: np.ndarray
    links_removed: np.ndarray
    delay_changed: np.ndarray
    delay_changed_previous: np.ndarray
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

    def summary(self) -> dict[str, int]:
        """Compact counters (used by logging and the info API)."""
        return {
            "links_added": int(self.links_added.size),
            "links_removed": int(self.links_removed.size),
            "delay_changed": int(self.delay_changed.size),
            "bandwidth_changed": int(self.bandwidth_changed.size),
        }


def dns_slug(name: str) -> str:
    """A ground-station name as a DNS label (lower case, spaces as dashes, no commas)."""
    return name.lower().replace(" ", "-").replace(",", "")


class NodeIndex:
    """The one numbering and naming of the testbed's machines.

    Satellites come first, by shell then in-shell identifier; ground stations
    follow in configuration order.  The flat index is also a machine's slot
    in the address space (§3.2).  :meth:`resolve` reads every name, with one
    grammar: case-folded, with or without ``.celestial`` and a trailing dot;
    a satellite is ``<id>.<shell>``, a ground station its configured name,
    DNS slug (:func:`dns_slug`), ``<slug>.gst`` or ``gst.<slug>``.  Two
    stations with one slug are a ``ValueError``.
    """

    def __init__(self, shell_sizes: Iterable[int], ground_station_names: Iterable[str]):
        self.shell_sizes = list(shell_sizes)
        self.ground_station_names = list(ground_station_names)
        self._shell_offsets: list[int] = []
        offset = 0
        for size in self.shell_sizes:
            if size <= 0:
                raise ValueError("shell sizes must be positive")
            self._shell_offsets.append(offset)
            offset += size
        self.satellite_count = offset
        names = self.ground_station_names
        self._stations = {dns_slug(name): node for node, name in enumerate(names, offset)}
        if len(self._stations) != len(names):
            raise ValueError("ground station names and their DNS slugs must be unique")

    def __len__(self) -> int:
        return self.satellite_count + len(self.ground_station_names)

    def satellite(self, shell: int, identifier: int) -> int:
        """Flat index of a satellite."""
        if not 0 <= shell < len(self.shell_sizes):
            raise IndexError(f"shell {shell} out of range")
        if not 0 <= identifier < self.shell_sizes[shell]:
            raise IndexError(f"satellite {identifier} out of range for shell {shell}")
        return self._shell_offsets[shell] + identifier

    def ground_station(self, name: str) -> int:
        """Flat index of a ground station, by its configured name or DNS slug."""
        # A slug is its own slug: the common exact spelling skips the fold.
        node = self._stations.get(name)
        if node is None:
            node = self._stations.get(dns_slug(name))
        if node is None:
            raise KeyError(f"unknown ground station: {name}")
        return node

    def resolve(self, name: str) -> int:
        """Flat index of the machine a name names (the class docstring's
        grammar), with one lookup; an out-of-range satellite is an
        ``IndexError``, any other unknown name a ``KeyError``."""
        body = name.lower().removesuffix(".").removesuffix(".celestial")
        identifier, dot, shell = body.partition(".")
        if dot and identifier.isdecimal() and shell.isdecimal():
            return self.satellite(int(shell), int(identifier))
        node = self._stations.get(dns_slug(body.removesuffix(".gst").removeprefix("gst.")))
        if node is None:
            raise KeyError(f"unknown machine name: {name!r}")
        return node

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
        return ("gst", -1, self.ground_station_names[index - self.satellite_count])

    def satellites_of_shell(self, shell: int) -> range:
        """Flat index range of all satellites of one shell."""
        if not 0 <= shell < len(self.shell_sizes):
            raise IndexError(f"shell {shell} out of range")
        offset = self._shell_offsets[shell]
        return range(offset, offset + self.shell_sizes[shell])

    def ground_station_indices(self) -> range:
        """Flat index range of all ground stations."""
        return range(self.satellite_count, len(self))


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
        distance_km: np.ndarray | DistanceFunction,
        delay_counts: np.ndarray,
        bandwidth_kbps: np.ndarray,
        type_code: np.ndarray,
    ) -> "NetworkGraph":
        """Build a graph from parallel edge arrays, in any order.

        The caller provides the complete edge set; every undirected node
        pair may occur at most once, with either endpoint first.  Delays are
        ``uint32`` counts of :data:`~repro.topology.linkparams.DELAY_GRID_MS`
        (what :func:`~repro.topology.linkparams.link_delay_counts` returns);
        any other dtype is a ``ValueError``.  The graph stores the edges in
        the canonical order (module docstring): input already in it is
        verified in O(E) and kept as given, any other is sorted once.

        ``distance_km`` is a column, or a function of the stored endpoint
        columns that derives it (:data:`DistanceFunction`): the graph calls
        it on the first read of :attr:`distances_km`, keeps the column and
        drops the function, or calls it on a few edges' endpoints for
        :meth:`distances_of`.  The function must not refer to the graph.
        """
        node_count = len(index)
        delay_counts = np.asarray(delay_counts)
        if delay_counts.dtype != np.uint32:
            raise ValueError(f"delays are uint32 grid counts, not {delay_counts.dtype}")
        derive = distance_km if callable(distance_km) else None
        given = () if derive is not None else (distance_km,)
        low, high, *values = (
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(
                (node_a, node_b, delay_counts, bandwidth_kbps, type_code, *given),
                (np.int64, np.int64, np.uint32, np.float64, np.int8, np.float64),
            )
        )
        count = low.size
        if any(column.shape != (count,) for column in (low, high, *values)):
            raise ValueError("edge arrays must be 1-D and of equal length")
        if not (low < high).all():
            low, high = np.minimum(low, high), np.maximum(low, high)
            if (low == high).any():
                raise ValueError("self-links are not allowed")
        if count and (low.min() < 0 or high.max() >= node_count):
            raise ValueError("link endpoints out of range")
        keys = low * np.int64(node_count) + high
        columns = [low, high, *values]
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys)
            keys = keys[order]
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("from_edge_arrays requires unique node pairs")
            columns = [column[order] for column in columns]
        graph = cls.__new__(cls)
        graph.index = index
        graph._node_count = node_count
        graph._keys = keys
        (
            graph._node_a,
            graph._node_b,
            graph._delay_counts,
            graph._bandwidth_kbps,
            graph._type_code,
            *given,
        ) = map(_read_only, columns)
        # The column, or the function that derives it on first read.
        graph._distance_km = derive if derive is not None else given[0]
        graph._delay_ms = graph._delay_counts.astype(np.float64)
        graph._delay_ms *= DELAY_GRID_MS  # a power of two: exact
        graph._delay_ms.flags.writeable = False
        return graph

    # -- array views --------------------------------------------------------

    @property
    def node_a(self) -> np.ndarray:
        """Lower endpoints of all links (edge-id order)."""
        return self._node_a

    @property
    def node_b(self) -> np.ndarray:
        """Higher endpoints of all links."""
        return self._node_b

    @property
    def distances_km(self) -> np.ndarray:
        """Link distances [km]: as given, or derived on this first read and
        kept (:meth:`from_edge_arrays`).  It takes no lock: threads that race
        on the first read each derive equal arrays, and one of them is kept."""
        distances = self._distance_km
        if callable(distances):
            distances = self._distance_km = self._derived(distances, self._node_a, self._node_b)
        return distances

    def distances_of(self, edges: np.ndarray) -> np.ndarray:
        """``distances_km[edges]``, the same bits; while the column is not
        derived, only these edges' distances are, and none is kept."""
        distances = self._distance_km
        if callable(distances):
            return self._derived(distances, self._node_a[edges], self._node_b[edges])
        return distances[edges]

    @staticmethod
    def _derived(derive: DistanceFunction, node_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        distances = _read_only(np.asarray(derive(node_a, node_b), dtype=np.float64))
        if distances.shape != node_a.shape:
            raise ValueError("a distance function must give one distance per link")
        return distances

    @property
    def delay_counts(self) -> np.ndarray:
        """Link one-way delays in ``DELAY_GRID_MS`` counts (the column of record)."""
        return self._delay_counts

    @property
    def delays_ms(self) -> np.ndarray:
        """Link one-way delays [ms], derived from :attr:`delay_counts`."""
        return self._delay_ms

    @property
    def bandwidths_kbps(self) -> np.ndarray:
        """Link bandwidths [kbps]."""
        return self._bandwidth_kbps

    @property
    def link_type_codes(self) -> np.ndarray:
        """Link type codes (index into ``LinkType``: 0=ISL, 1=UPLINK)."""
        return self._type_code

    # -- queries ------------------------------------------------------------

    def delay_matrix(self) -> sparse.csr_matrix:
        """Sparse symmetric matrix of one-way link delays [ms].

        Exact-zero delays are clamped to :data:`DELAY_EPSILON_MS` so that
        ``csgraph`` solvers (which treat explicit zeros as missing edges) keep
        co-located nodes reachable.  Entry ``e`` of ``[delays, delays]`` is
        the directed pair ``(node_b[e], node_a[e])``, entry ``E + e`` its
        reverse.  In edge-id order the downward entries ascend in
        ``node_a`` within each row and the upward ones in ``node_b``, so
        SciPy's COO → CSR conversion, which places entries row by row in
        input order, finds every row already sorted: the result equals a
        ``lexsort`` of all 2E entries, with no sort and nothing cached.
        """
        n, low, high = self._node_count, self._node_a, self._node_b
        delays = np.maximum(self._delay_ms, DELAY_EPSILON_MS)
        rows, columns = np.concatenate([high, low]), np.concatenate([low, high])
        entries = (np.concatenate([delays, delays]), (rows, columns))
        return sparse.coo_matrix(entries, shape=(n, n)).tocsr()

    def edge_ids_between(
        self, nodes_a: Sequence[int] | np.ndarray, nodes_b: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorised ``(a, b) → edge id`` lookup; ``-1`` where no link exists."""
        nodes_a = np.asarray(nodes_a, dtype=np.int64)
        nodes_b = np.asarray(nodes_b, dtype=np.int64)
        keys = pair_keys(nodes_a, nodes_b, self._node_count)
        if self._keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        positions = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return np.where(self._keys[positions] == keys, positions, -1)

    def total_links(self) -> int:
        """Number of undirected links in the graph."""
        return int(self._node_a.size)

    # -- epoch diffs ---------------------------------------------------------

    def diff_from(self, previous: "NetworkGraph") -> TopologyDiff:
        """Diff this epoch's edge arrays against a previous epoch's.

        Emits a :class:`TopologyDiff` with ``links_added`` /
        ``links_removed`` / ``delay_changed`` / ``bandwidth_changed``
        edge-id index arrays, each ascending (see the class docstring for
        which graph each array indexes into).  When both epochs hold the
        same keys, edge ids line up 1:1.  Otherwise one ``searchsorted`` of
        this graph's keys into the previous graph's pairs every link with
        its previous edge id, if it had one.  Delays are compared as grid
        counts and bandwidths exactly: the constellation calculation
        recomputes both epochs with bitwise-identical operations, so any
        genuine movement differs exactly.
        """
        if self._node_count != previous._node_count:
            raise ValueError("graphs must share the same node index layout")
        if np.array_equal(self._keys, previous._keys):
            empty = np.empty(0, dtype=np.int64)
            delay_changed = np.flatnonzero(self._delay_counts != previous._delay_counts)
            return TopologyDiff(
                previous=previous,
                current=self,
                links_added=empty,
                links_removed=empty,
                delay_changed=delay_changed,
                delay_changed_previous=delay_changed,
                bandwidth_changed=np.flatnonzero(
                    self._bandwidth_kbps != previous._bandwidth_kbps
                ),
            )
        # The previous edge id of every current edge that had one.
        at = np.searchsorted(previous._keys, self._keys)
        found = at < previous._keys.size
        found[found] = previous._keys[at[found]] == self._keys[found]
        common = np.flatnonzero(found)
        common_previous = at[common]
        removed = np.ones(previous._keys.size, dtype=bool)
        removed[common_previous] = False
        moved = np.flatnonzero(
            self._delay_counts[common] != previous._delay_counts[common_previous]
        )
        return TopologyDiff(
            previous=previous,
            current=self,
            links_added=np.flatnonzero(~found),
            links_removed=np.flatnonzero(removed),
            delay_changed=common[moved],
            delay_changed_previous=common_previous[moved],
            bandwidth_changed=common[
                self._bandwidth_kbps[common] != previous._bandwidth_kbps[common_previous]
            ],
        )
