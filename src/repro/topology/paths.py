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

Pairs by bounded search, rows for batches
-----------------------------------------

A constellation state answers every path query from one :class:`PathRows`
store, in one of two regimes, each a counter of :class:`PathEngineStats`.

*Rows for batches.*  A batched query (:meth:`~ShortestPaths.delays_between`,
:meth:`~ShortestPaths.hop_steps`) and a source's full row
(:meth:`~ShortestPaths.delays_from`) read the rows of a shortest-path
table, one per source node, each solved the first time a query needs it:
all the misses of one query are one counted :meth:`PathEngine.solve`, a
single stacked ``csgraph.dijkstra`` over the store's delay matrix, and the
store keeps them (``rows_solved``).

*Pairs by bounded search.*  One pair asked on its own
(:meth:`PathRows.pair_path`) is read from its source's row, or from a
held search of its source that settled the target, when the store holds
one (``cache_hits``).  Otherwise it costs one Dijkstra search from the
source that stops at a limit ``L`` (``csgraph.dijkstra(limit=L)``, one
``bounded_searches`` per try, one ``cache_misses`` per pair), and its last
try is held for the epoch: on full phase-I Starlink (4,414 nodes) a
station pair takes ≈ 0.1–0.3 ms where its row takes ≈ 1 ms, and a pair a
held search answers ≈ 9 µs (a 2-vCPU x86 container).  The search settles
exactly the nodes within ``L`` of the source, with the distances and
predecessors of a full row: every node on a shortest path to a node at
``d ≤ L`` lies within ``d``.  So a held search answers every target within
its limit, and one that closed its source's component (below) is its full
row.
It starts at ``L = 2·L0``, where ``L0`` is the larger of the pair's
straight-line delay (chord ÷ c, from the state's positions, read only
when a search runs) and the sum of the two endpoints' cheapest links; the
second term carries co-located endpoints, whose chord is 0; a source
searched again starts at twice its held limit if that is larger, as its
held search settled everything within it.  A try ends in one of three ways:

1. the target is settled: its distance and path are exact;
2. the farthest settled distance plus the widest link delay of the store
   is at most ``L``: no unsettled node can be within ``L``, so the search
   has closed the source's component and the pair is unreachable;
3. neither: ``L`` doubles and the search runs again.

Correctness never rests on ``L0``: a bound too low costs a try, one too
high costs settled nodes.  The bound is a function of the state alone, so
a cold and an incremental state answer alike, and the delay matrix and its
widest delay are built once per store; besides the search, a try costs
O(degree), and a miss one pass over the search's distances.
A pair with an endpoint that has no link is unreachable without a search.
Computing an epoch solves nothing, so a state costs what it is asked: no
row for an epoch that is only asked pairs.

A pair is answered from the row or the search of one of its endpoints,
chosen in this order:

1. an endpoint the store holds a row for, or a search that settled the
   other endpoint (a batch reads rows only, so for a batch: a row);
2. within a batch, the endpoint more of the batch's pairs share;
3. a ground station (the store's :attr:`~PathRows.sources`);
4. the first endpoint.

The choice cannot move a delay: every link delay is a ``uint32`` count of
:data:`~repro.topology.linkparams.DELAY_GRID_MS`, so a path's delay sums to
the same bits in either direction.  Hop sequences can differ between
equal-delay alternatives, and a pair's bottleneck bandwidth follows its
hops; on the DART experiment, rows rooted at the central station answer
all of its (station, central) pairs with the same delays, bandwidths and
hops as the station rows did (probed over 80 epochs), so its data plane
needs one row per epoch where it used to solve one per ground station.

Rows and searches run ``directed=True``.  The delay matrix is symmetric
by construction (every link is stored in both orientations with one
weight), so a directed solve gives the same distances and predecessors as
an undirected one and skips scipy's symmetrisation pass: one row takes 90 →
31 µs on DART's 187 nodes and 744 → 576 µs on full Starlink's 4,414 (a
2-vCPU x86 container, SciPy's ``dijkstra``).

Epoch to epoch: start empty
---------------------------

:meth:`PathEngine.advance_all` gives the next epoch an empty store: no row
or search is carried across epochs, shared or re-solved, so what an epoch
asks one pair at a time never fixes the row set of a later epoch.  Every
row is a solver row on its own graph, so distances and predecessors are
**byte-identical** to a cold solve by construction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Literal, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from repro.topology.graph import NetworkGraph, TopologyDiff


@dataclass(frozen=True)
class PathResult:
    """A shortest path between two nodes with its end-to-end delay."""

    source: int
    target: int
    delay_ms: float
    hops: tuple[int, ...]

    @property
    def reachable(self) -> bool:
        """Whether a path exists (a Python ``bool``: it goes into JSON)."""
        return math.isfinite(self.delay_ms)

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

    def delay_ms(self, source: int, target: int) -> float:
        """One-way shortest-path delay [ms]; ``inf`` if unreachable."""
        row = self._row_for(source)
        return float(self._distances[row, target])

    def rtt_ms(self, source: int, target: int) -> float:
        """Round-trip delay [ms] over the symmetric shortest path."""
        return 2.0 * self.delay_ms(source, target)

    def reachable(self, source: int, target: int) -> bool:
        """Whether the target can be reached from the source."""
        return math.isfinite(self.delay_ms(source, target))

    def path(self, source: int, target: int) -> PathResult:
        """Full path reconstruction between a source and a target node."""
        row = self._row_for(source)
        return _walked(
            source, target, float(self._distances[row, target]), self._predecessors[row]
        )

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
    """A state's path store: rows solved on demand, single pairs by bounded search.

    ``sources`` are the nodes a pair's row is preferably rooted at when
    neither endpoint has a row yet (the ground stations; rule 3 of the
    module docstring).  Any node's row can be asked for.  Rows are solved through ``engine`` and
    appended under a lock — the info API reads states without the
    database's lock — so every row is solved once, whichever thread asks
    first.  Arrays grow by doubling and rows are written before they are
    indexed by ``_row_of``, so a lock-free lookup that finds a row reads it
    from whichever array is current.  A search takes no lock once the
    delay matrix is built: one dict assignment holds it whole, and of two
    threads that search one source, the later's (valid) search is kept.
    """

    def __init__(self, graph: NetworkGraph, engine: "PathEngine", sources: Sequence[int] = ()):
        self.graph = graph
        self.sources = list(sources)
        self._engine = engine
        node_count = len(graph.index)
        self._is_station = np.zeros(node_count, dtype=bool)
        self._is_station[self.sources] = True
        self._matrix: Optional[csr_matrix] = None
        self._widest_ms = 0.0
        self._lock = threading.Lock()
        self._row_of: dict[int, int] = {}
        self._searches: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self._distances = self._distance_buffer = np.empty((0, node_count))
        self._predecessors = self._predecessor_buffer = np.empty((0, node_count), np.int32)

    def oriented(self, node_a: int, node_b: int) -> tuple[int, int]:
        """``(source, target)`` of one pair: :meth:`orient` on a batch of one,
        whose rule 1 also takes an endpoint with a held search that answers
        the other."""
        rows, is_station = self._row_of, self._is_station
        if node_a in rows or self._held(node_a, node_b):
            return node_a, node_b
        if node_b in rows or self._held(node_b, node_a) or (
            is_station[node_b] and not is_station[node_a]
        ):
            return node_b, node_a
        return node_a, node_b

    def _held(self, source: int, target: int) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
        """The held search of ``source`` if it answers ``target``, read once:
        another thread may replace it with a narrower one meanwhile."""
        held = self._searches.get(source)
        if held is not None and (held[2] == math.inf or held[0][target] != math.inf):
            return held
        return None

    def orient(
        self, nodes_a: np.ndarray, nodes_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of many pairs by the module's source-choice
        rule, read in node space: how many endpoints of the batch each node
        is, and whether it has a row or is a station."""
        held = np.zeros_like(self._is_station)
        with self._lock:
            held[np.fromiter(self._row_of, dtype=np.int64, count=len(self._row_of))] = True
        shared = np.bincount(np.concatenate([nodes_a, nodes_b]))
        shared_a, shared_b = shared[nodes_a], shared[nodes_b]
        is_station = self._is_station
        station_b = is_station[nodes_b] & ~is_station[nodes_a]
        flip = ~held[nodes_a] & (
            held[nodes_b] | (shared_b > shared_a) | ((shared_b == shared_a) & station_b)
        )
        return np.where(flip, nodes_b, nodes_a), np.where(flip, nodes_a, nodes_b)

    def pair_path(self, source: int, target: int, chord_ms: Callable[[], float]) -> PathResult:
        """:meth:`path` of one pair, from ``source``'s held row or search, else
        from a bounded search, which the store then holds; ``chord_ms`` gives
        the endpoints' straight-line delay, and only a search that needs its
        bound calls it."""
        if source == target:
            return PathResult(source, source, 0.0, (source,))
        if source in self._row_of:
            self._engine.tally(hit=True)
            return self.path(source, target)
        held = self._held(source, target)
        if held is None:
            return _walked(source, target, *self._search(source, target, chord_ms))
        self._engine.tally(hit=True)
        return _walked(source, target, float(held[0][target]), held[1])

    def _search(
        self, source: int, target: int, chord_ms: Callable[[], float]
    ) -> tuple[float, Optional[np.ndarray]]:
        """``target``'s distance and the predecessors that reach it, from
        searches of ``source`` bounded as the module docstring says; the last
        try is held as ``(distances, predecessors, limit)``, limit ∞ if closed."""
        matrix, widest = self._weights()
        indptr, weights = matrix.indptr, matrix.data
        links_of_source = weights[indptr[source] : indptr[source + 1]]
        links_of_target = weights[indptr[target] : indptr[target + 1]]
        if not (links_of_source.size and links_of_target.size):
            return math.inf, None
        self._engine.tally(hit=False)
        limit = 2.0 * max(chord_ms(), float(links_of_source.min() + links_of_target.min()))
        held = self._searches.get(source)
        if held is not None:  # it settled everything within its limit
            limit = max(limit, 2.0 * held[2])
        while True:
            (distances,), (predecessors,) = self._engine.solve(matrix, [source], limit=limit)
            delay = float(distances[target])
            if delay == math.inf and distances[distances != math.inf].max() + widest <= limit:
                limit = math.inf  # closed: the source's full row
            if delay != math.inf or limit == math.inf:
                self._searches[source] = distances, predecessors, limit
                return delay, predecessors
            limit *= 2.0

    def _weights(self) -> tuple[csr_matrix, float]:
        """The store's delay matrix and its widest link delay, built once."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    matrix = self.graph.delay_matrix()
                    self._widest_ms = float(matrix.data.max(initial=0.0))
                    self._matrix = matrix
        return self._matrix, self._widest_ms

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
        matrix, _ = self._weights()
        with self._lock:
            missing = [node for node in dict.fromkeys(nodes) if node not in self._row_of]
            if not missing:
                return
            distances, predecessors = self._engine.solve(matrix, missing)
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


def _walked(source: int, target: int, delay: float, predecessors) -> PathResult:
    """The path to ``target`` at ``delay``, walked back along a predecessor row."""
    if not np.isfinite(delay):
        return PathResult(source, target, float("inf"), ())
    if source == target:
        return PathResult(source, target, 0.0, (source,))
    hops = [target]
    current = target
    while current != source:
        current = int(predecessors[current])
        if current < 0:
            return PathResult(source, target, float("inf"), ())
        hops.append(current)
    hops.reverse()
    return PathResult(source, target, delay, tuple(hops))


def _grown(rows: np.ndarray, capacity: int) -> np.ndarray:
    """A ``capacity``-row buffer starting with a copy of ``rows``."""
    buffer = np.empty((capacity, rows.shape[1]), dtype=rows.dtype)
    buffer[: len(rows)] = rows
    return buffer


@dataclass
class PathEngineStats:
    """Counters of the engine's work, one per regime of the module docstring.

    ``solver_calls`` counts ``csgraph`` invocations; ``rows_solved`` the
    full source rows they computed — each row a state was asked for, once —
    and ``bounded_searches`` the limited searches, every try of a pair
    counted.  Of the pairs asked on their own, ``cache_hits`` counts those
    a held row or search answered and ``cache_misses`` those that ran a
    search; a self-pair, or one with a linkless endpoint, is neither.
    """

    solver_calls: int = 0
    rows_solved: int = 0
    bounded_searches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy (JSON-serialisable, used by the benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PathEngine:
    """Shortest-path engine over consecutive epoch graphs.

    One engine serves every store of a calculation: :meth:`solve` runs the
    counted stacked solve behind each store's misses and each try of a
    pair's bounded search, :meth:`advance_all` starts the next epoch's
    store empty (see the module docstring).  The engine keeps nothing
    between epochs but its counters.
    """

    def __init__(self):
        self.stats = PathEngineStats()
        # Stores of different states solve on different threads (the
        # coordinator's data plane, the gateway, the info API).
        self._counting = threading.Lock()

    def reset_stats(self) -> None:
        """Zero all counters (used by benchmarks between phases)."""
        self.stats = PathEngineStats()

    def tally(self, hit: bool) -> None:
        """Count one pair as a cache hit or miss."""
        with self._counting:
            self.stats.cache_hits += hit
            self.stats.cache_misses += not hit

    def solve(
        self, matrix: csr_matrix, sources: Sequence[int], limit: Optional[float] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and predecessors of ``sources``' rows: one stacked solve.

        With a ``limit`` it is a bounded search: only the nodes within
        ``limit`` of a source are settled, the others read ``inf``.
        """
        distances, predecessors = csgraph.dijkstra(
            matrix,
            directed=True,
            indices=sources,
            return_predecessors=True,
            limit=math.inf if limit is None else limit,
        )
        with self._counting:
            self.stats.solver_calls += 1
            if limit is None:
                self.stats.rows_solved += len(sources)
            else:
                self.stats.bounded_searches += 1
        return distances, predecessors

    def advance_all(
        self, previous: PathRows, graph: NetworkGraph, diff: TopologyDiff
    ) -> PathRows:
        """The store of ``graph``, the diff's current graph, after ``previous``.

        It starts empty, with ``previous``'s sources, and solves what it is
        asked; ``diff`` is not read.
        """
        return PathRows(graph, self, previous.sources)
