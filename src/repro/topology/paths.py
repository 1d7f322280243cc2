"""Shortest network paths and end-to-end latency within the constellation.

Celestial computes shortest paths with efficient implementations of
Dijkstra's algorithm and the Floyd-Warshall algorithm (§3.1).  Both are
available here, backed by ``scipy.sparse.csgraph``: Dijkstra from a set of
source nodes (the default, scales to Starlink-sized constellations), and
Floyd-Warshall for dense all-pairs computation on smaller topologies.

Both solvers treat explicit zeros in the weight matrix as *absent* edges
(the dense Floyd-Warshall input drops them outright in ``toarray()``), so
:meth:`repro.topology.graph.NetworkGraph.delay_matrix` clamps zero-delay
links to ``DELAY_EPSILON_MS``; reported delays may therefore exceed the true
sum of hop delays by at most one nanosecond per hop.

Rows on demand
--------------

A constellation state answers every path query from one :class:`PathRows`
store: the rows of a shortest-path table, one per source node, each solved
the first time a query needs it.  A miss — or all the misses of one batched
query (:meth:`~ShortestPaths.delays_between`, :meth:`~ShortestPaths.hop_steps`)
— is one counted :meth:`PathEngine.solve`, a single stacked
``csgraph.dijkstra`` over the store's delay matrix, which is built once per
store.  Computing an epoch solves nothing, so a state costs the rows it is
asked for: none for an epoch nobody queries, whatever the constellation's
size or its number of ground stations.

A pair is answered from the row of one of its endpoints, chosen in this
order:

1. an endpoint the store already holds a row for;
2. within a batch, the endpoint more of the batch's pairs share;
3. a ground station (the store's :attr:`~PathRows.sources`);
4. the first endpoint.

The choice cannot move a delay: every link delay lies on the binary grid of
:data:`~repro.topology.linkparams.DELAY_GRID_MS`, so a path's delay sums to
the same bits in either direction.  Hop sequences can differ between
equal-delay alternatives, and a pair's bottleneck bandwidth follows its
hops; on the DART experiment, rows rooted at the central station answer
all of its (station, central) pairs with the same delays, bandwidths and
hops as the station rows did (probed over 80 epochs), so its data plane
needs one row per epoch where it used to solve one per ground station.

The solve runs ``directed=True``.  The delay matrix is symmetric by
construction (every link is stored in both orientations with one weight),
so a directed solve gives the same distances and predecessors as an
undirected one and skips scipy's symmetrisation pass: one row takes 90 →
31 µs on DART's 187 nodes and 744 → 576 µs on full Starlink's 4,414 (a
2-vCPU x86 container, SciPy's ``dijkstra``).

Epoch to epoch: share or start empty
------------------------------------

:meth:`PathEngine.advance_all` hands a state's store to the next epoch.  A
:class:`~repro.topology.graph.TopologyDiff` that changed no delay and no
link (it is empty, or touches only bandwidths) leaves every row exactly
valid, so the new store shares the previous one's rows and delay matrix:
zero copies, zero solver calls.  Any other diff starts the new store
empty.  Rows are never carried into the next epoch to be re-solved there:
what an epoch asks one pair at a time would then fix the row set of every
later epoch.  Every row is either a solver row on its own graph or one
shared from an identically weighted graph, so distances and predecessors
are **byte-identical** to a cold solve by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Literal, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from repro.topology.graph import NetworkGraph, TopologyDiff

#: Sentinel used by ``scipy.sparse.csgraph`` for "no predecessor" (the
#: source itself and unreachable nodes).  The engine preserves it.
NO_PREDECESSOR = -9999


@dataclass(frozen=True)
class PathResult:
    """A shortest path between two nodes with its end-to-end delay."""

    source: int
    target: int
    delay_ms: float
    hops: tuple[int, ...]

    @property
    def reachable(self) -> bool:
        """Whether a path exists."""
        return np.isfinite(self.delay_ms)

    @property
    def hop_count(self) -> int:
        """Number of links traversed (0 if unreachable or source == target)."""
        return max(0, len(self.hops) - 1)

    @property
    def rtt_ms(self) -> float:
        """Round-trip time assuming the symmetric path is used both ways."""
        return 2.0 * self.delay_ms


class ShortestPaths:
    """Shortest paths from a fixed set of source nodes over a network snapshot.

    Constructing an instance runs a cold solve of every source: the
    reference the engine's rows are checked against, and the
    Dijkstra/Floyd-Warshall ablation.  :class:`PathRows` keeps this query
    surface and solves its rows on demand instead.  Every query looks its
    rows up before it reads ``_distances``: a store may grow its arrays
    while it looks them up.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        sources: Optional[Sequence[int]] = None,
        method: Literal["dijkstra", "floyd-warshall"] = "dijkstra",
    ):
        self.graph = graph
        matrix = graph.delay_matrix()
        node_count = matrix.shape[0]
        if sources is None:
            sources = list(range(node_count))
        self.sources = list(sources)
        if not self.sources:
            raise ValueError("at least one source node is required")
        for source in self.sources:
            if not 0 <= source < node_count:
                raise ValueError(f"source {source} out of range")
        self.method = method
        if method == "dijkstra":
            distances, predecessors = csgraph.dijkstra(
                matrix, directed=False, indices=self.sources, return_predecessors=True
            )
        elif method == "floyd-warshall":
            # The matrix is passed in sparse form: scipy's dense conversion
            # nulls out weights below ~1e-8 (not just exact zeros), which
            # would drop the epsilon-clamped zero-delay links; sparse input
            # keeps every stored entry as an edge.
            all_distances, all_predecessors = csgraph.floyd_warshall(
                matrix, directed=False, return_predecessors=True
            )
            distances = all_distances[self.sources]
            predecessors = all_predecessors[self.sources]
        else:
            raise ValueError(f"unknown shortest path method: {method!r}")
        self._row_of = {source: row for row, source in enumerate(self.sources)}
        self._distances = np.atleast_2d(distances)
        self._predecessors = np.atleast_2d(predecessors)

    def has_source(self, node: int) -> bool:
        """Whether a row of shortest paths from this node is held."""
        return node in self._row_of

    def delay_ms(self, source: int, target: int) -> float:
        """One-way shortest-path delay [ms]; ``inf`` if unreachable."""
        row = self._row_for(source)
        return float(self._distances[row, target])

    def rtt_ms(self, source: int, target: int) -> float:
        """Round-trip delay [ms] over the symmetric shortest path."""
        return 2.0 * self.delay_ms(source, target)

    def reachable(self, source: int, target: int) -> bool:
        """Whether the target can be reached from the source."""
        return np.isfinite(self.delay_ms(source, target))

    def path(self, source: int, target: int) -> PathResult:
        """Full path reconstruction between a source and a target node."""
        row = self._row_for(source)
        delay = float(self._distances[row, target])
        if not np.isfinite(delay):
            return PathResult(source, target, float("inf"), ())
        if source == target:
            return PathResult(source, target, 0.0, (source,))
        hops = [target]
        current = target
        predecessors = self._predecessors[row]
        while current != source:
            current = int(predecessors[current])
            if current < 0:
                return PathResult(source, target, float("inf"), ())
            hops.append(current)
        hops.reverse()
        return PathResult(source, target, delay, tuple(hops))

    def delays_between(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """One-way delays [ms] of many ``sources[i] → targets[i]`` pairs at once."""
        rows = self._rows_of(sources)
        return self._distances[rows, targets]

    def hop_steps(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Walk many ``sources[i] → targets[i]`` paths backwards in lock-step.

        Each step yields ``(pairs, hop_a, hop_b)``: the positions (into
        ``sources`` / ``targets``) of the pairs still walking and the link
        ``hop_a[i] – hop_b[i]`` each of them traverses at this step — the
        same hops :meth:`path` reconstructs one pair at a time.  A pair
        leaves the walk when it reaches its source; unreachable pairs and
        pairs with ``source == target`` never enter it, so the number of
        steps is the hop count of the longest path.
        """
        rows = self._rows_of(sources)
        distances, predecessors = self._distances, self._predecessors
        pairs = np.nonzero(np.isfinite(distances[rows, targets]) & (sources != targets))[0]
        rows, current, goal = rows[pairs], targets[pairs], sources[pairs]
        while pairs.size:
            previous = predecessors[rows, current]
            yield pairs, previous, current
            walking = (previous != goal) & (previous >= 0)
            pairs, rows = pairs[walking], rows[walking]
            current, goal = previous[walking], goal[walking]

    def delays_from(self, source: int) -> np.ndarray:
        """Vector of one-way delays [ms] from a source to every node."""
        row = self._row_for(source)
        return self._distances[row].copy()

    def nearest(self, source: int, candidates: Iterable[int]) -> Optional[int]:
        """The candidate node with the lowest delay from ``source``, or None."""
        candidates = np.fromiter(candidates, dtype=np.int64)
        if candidates.size == 0:
            return None
        row = self._row_for(source)
        delays = self._distances[row][candidates]
        best = int(np.argmin(delays))
        if not np.isfinite(delays[best]):
            return None
        return int(candidates[best])

    def _row_for(self, source: int) -> int:
        row = self._row_of.get(source)
        if row is None:
            raise KeyError(f"node {source} was not used as a source")
        return row

    def _rows_of(self, sources: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._row_for(source) for source in sources.tolist()),
            dtype=np.int64,
            count=sources.size,
        )


class PathRows(ShortestPaths):
    """One state's shortest-path rows, each solved the first time it is needed.

    ``sources`` are the nodes a pair's row is preferably rooted at when
    neither endpoint has a row yet (the ground stations; rule 3 of the
    module docstring); :meth:`has_source` says whether a row is held.  Any
    node's row can be asked for.  Rows are solved through ``engine`` and
    appended under a lock — the info API reads states without the
    database's lock — so every row is solved once, whichever thread asks
    first.  Arrays grow by doubling and rows are written before they are
    indexed by ``_row_of``, so a lock-free lookup that finds a row reads it
    from whichever array is current.
    """

    def __init__(self, graph: NetworkGraph, engine: "PathEngine", sources: Sequence[int] = ()):
        self.graph = graph
        self.sources = list(sources)
        self._engine = engine
        self._stations = frozenset(self.sources)
        self._matrix: Optional[csr_matrix] = None
        self._lock = threading.Lock()
        self._row_of: dict[int, int] = {}
        node_count = len(graph.index)
        self._distances = self._distance_buffer = np.empty((0, node_count))
        self._predecessors = self._predecessor_buffer = np.empty((0, node_count), np.int32)

    def oriented(self, node_a: int, node_b: int) -> tuple[int, int]:
        """``(source, target)`` of one pair: :meth:`orient` on a batch of one."""
        held = self._row_of
        if node_a in held:
            return node_a, node_b
        if node_b in held or (node_b in self._stations and node_a not in self._stations):
            return node_b, node_a
        return node_a, node_b

    def orient(
        self, nodes_a: np.ndarray, nodes_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of many pairs by the module's source-choice rule."""
        with self._lock:
            held = np.fromiter(self._row_of, dtype=np.int64, count=len(self._row_of))
        _, endpoint, shared = np.unique(
            np.concatenate([nodes_a, nodes_b]), return_inverse=True, return_counts=True
        )
        shared_a, shared_b = np.split(shared[endpoint], 2)
        stations = np.fromiter(self._stations, dtype=np.int64, count=len(self._stations))
        station_b = np.isin(nodes_b, stations) & ~np.isin(nodes_a, stations)
        flip = ~np.isin(nodes_a, held) & (
            np.isin(nodes_b, held)
            | (shared_b > shared_a)
            | ((shared_b == shared_a) & station_b)
        )
        return np.where(flip, nodes_b, nodes_a), np.where(flip, nodes_a, nodes_b)

    def _row_for(self, source: int) -> int:
        row = self._row_of.get(source)
        if row is None:
            self._solve_missing([source])
            row = self._row_of[source]
        return row

    def _rows_of(self, sources: np.ndarray) -> np.ndarray:
        wanted = sources.tolist()
        self._solve_missing(wanted)
        row_of = self._row_of
        return np.fromiter((row_of[s] for s in wanted), dtype=np.int64, count=len(wanted))

    def _solve_missing(self, nodes: list[int]) -> None:
        """Solve, in one engine call, the rows of ``nodes`` not held yet."""
        with self._lock:
            missing = [node for node in dict.fromkeys(nodes) if node not in self._row_of]
            if not missing:
                return
            if self._matrix is None:
                self._matrix = self.graph.delay_matrix()
            distances, predecessors = self._engine.solve(self._matrix, missing)
            held = len(self._row_of)
            total = held + len(missing)
            if total > len(self._distance_buffer):
                capacity = max(total, 2 * held)
                self._distance_buffer = _grown(self._distances, capacity)
                self._predecessor_buffer = _grown(self._predecessors, capacity)
            self._distance_buffer[held:total] = distances
            self._predecessor_buffer[held:total] = predecessors
            self._distances = self._distance_buffer[:total]
            self._predecessors = self._predecessor_buffer[:total]
            self._row_of.update(zip(missing, range(held, total)))

    def _shared_with(self, graph: NetworkGraph) -> "PathRows":
        """A store of ``graph`` (weighted exactly like this one's) sharing its rows.

        The new store's buffers are this store's current views, so its
        first solve reallocates: neither store ever writes where the other
        reads.
        """
        store = PathRows(graph, self._engine, self.sources)
        with self._lock:
            store._matrix = self._matrix
            store._row_of = dict(self._row_of)
            store._distances = store._distance_buffer = self._distances
            store._predecessors = store._predecessor_buffer = self._predecessors
        return store


def _grown(rows: np.ndarray, capacity: int) -> np.ndarray:
    """A ``capacity``-row buffer starting with a copy of ``rows``."""
    buffer = np.empty((capacity, rows.shape[1]), dtype=rows.dtype)
    buffer[: len(rows)] = rows
    return buffer


@dataclass
class PathEngineStats:
    """Counters of the engine's work.

    ``solver_calls`` counts ``csgraph`` invocations and ``rows_solved`` the
    source rows they computed — each row a state was asked for, once.
    ``tables_advanced`` counts the stores handed across a diff by
    :meth:`PathEngine.advance_all`, ``empty_reuses`` those that shared
    their predecessor's rows (the diff changed no delay and no link) and
    ``rows_reused`` the rows so shared.
    """

    solver_calls: int = 0
    rows_solved: int = 0
    tables_advanced: int = 0
    empty_reuses: int = 0
    rows_reused: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy (JSON-serialisable, used by the benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PathEngine:
    """Shortest-path engine over consecutive epoch graphs.

    One engine serves every store of a calculation: :meth:`solve` runs the
    counted stacked solve behind each store's misses, :meth:`advance_all`
    hands a store across a :class:`~repro.topology.graph.TopologyDiff`
    (share or start empty, see the module docstring).  The engine keeps
    nothing between epochs but its counters.
    """

    def __init__(self):
        self.stats = PathEngineStats()
        # Stores of different states solve on different threads (the
        # coordinator's data plane, the gateway, the info API).
        self._counting = threading.Lock()

    def reset_stats(self) -> None:
        """Zero all counters (used by benchmarks between phases)."""
        self.stats = PathEngineStats()

    def solve(
        self, matrix: csr_matrix, sources: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and predecessors of ``sources``' rows: one stacked solve."""
        distances, predecessors = csgraph.dijkstra(
            matrix, directed=True, indices=sources, return_predecessors=True
        )
        with self._counting:
            self.stats.solver_calls += 1
            self.stats.rows_solved += len(sources)
        return distances, predecessors

    def advance_all(
        self, previous: PathRows, graph: NetworkGraph, diff: TopologyDiff
    ) -> PathRows:
        """The store of ``graph``, the diff's current graph, after ``previous``.

        When ``previous`` belongs to ``diff.previous`` and the diff changed
        no delay and no link, the new store shares all of its rows (zero
        solver calls); otherwise it starts empty and solves what it is
        asked.
        """
        stats = self.stats
        stats.tables_advanced += 1
        if (
            graph is diff.current
            and previous.graph is diff.previous
            and diff.is_structural_noop
            and diff.delay_changed.size == 0
        ):
            store = previous._shared_with(graph)
            stats.empty_reuses += 1
            stats.rows_reused += len(store._row_of)
            return store
        return PathRows(graph, self, previous.sources)
