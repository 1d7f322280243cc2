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

Epoch engine: reuse or solve
----------------------------

:meth:`PathEngine.advance_all` carries every solved :class:`ShortestPaths`
table of a calculation (the main table plus the carried single-source
extras) from one epoch to the next in one call.  Each table has exactly
two possible outcomes, decided by the epoch's
:class:`~repro.topology.graph.TopologyDiff` alone:

* **reuse** — the diff changes no delay and no link (it is empty, or
  touches only bandwidths): every table of ``diff.previous`` is returned
  rebound to the new graph.  Shared arrays, zero copies, zero solver
  calls.
* **solve** — anything else: all remaining tables, whatever their origin
  (a table of another graph or a Floyd-Warshall one included), are solved
  in ONE ``csgraph.dijkstra`` call over their concatenated sources and
  published as row slices of its result.

A moving constellation changes about half of its link delays every
epoch, at any update interval down to 5 ms (full Starlink and
DART/Iridium, probe table in CHANGES.md), so every epoch in which
the clock advanced takes the solve leg; the reuse leg serves epochs
recomputed at an unchanged time.  Every published row is either a solver
row or a rebound one, so distances and reachability are
**byte-identical** to a cold solve on the same graph by construction.
The engine keeps no state between epochs but its counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Literal, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph

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
    """Shortest paths from a set of source nodes over a network snapshot.

    Constructing an instance runs a cold solve; :class:`PathEngine`
    produces equivalent instances per epoch via
    :meth:`PathEngine.advance_all` and keeps :class:`ShortestPaths` as the
    query façade, so consumers are oblivious to how a table was computed.
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

    @classmethod
    def _from_arrays(
        cls,
        graph: NetworkGraph,
        sources: Sequence[int],
        method: str,
        distances: np.ndarray,
        predecessors: np.ndarray,
    ) -> "ShortestPaths":
        """Build a table around already-solved arrays (engine fast path)."""
        table = cls.__new__(cls)
        table.graph = graph
        table.sources = list(sources)
        table.method = method
        table._row_of = {source: row for row, source in enumerate(table.sources)}
        table._distances = np.atleast_2d(distances)
        table._predecessors = np.atleast_2d(predecessors)
        return table

    def _rebind(self, graph: NetworkGraph) -> "ShortestPaths":
        """A view of this table over a new (identically weighted) graph.

        Arrays are shared, never copied; tables are treated as immutable
        once published.
        """
        return ShortestPaths._from_arrays(
            graph, self.sources, self.method, self._distances, self._predecessors
        )

    def has_source(self, node: int) -> bool:
        """Whether shortest paths were computed from this node."""
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
        return self._distances[self._rows_of(sources), targets]

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
        pairs = np.nonzero(
            np.isfinite(self._distances[rows, targets]) & (sources != targets)
        )[0]
        rows, current, goal = rows[pairs], targets[pairs], sources[pairs]
        while pairs.size:
            previous = self._predecessors[rows, current]
            yield pairs, previous, current
            walking = (previous != goal) & (previous >= 0)
            pairs, rows = pairs[walking], rows[walking]
            current, goal = previous[walking], goal[walking]

    def delays_from(self, source: int) -> np.ndarray:
        """Vector of one-way delays [ms] from a source to every node."""
        return self._distances[self._row_for(source)].copy()

    def nearest(self, source: int, candidates: Iterable[int]) -> Optional[int]:
        """The candidate node with the lowest delay from ``source``, or None."""
        candidates = np.fromiter(candidates, dtype=np.int64)
        if candidates.size == 0:
            return None
        delays = self._distances[self._row_for(source)][candidates]
        best = int(np.argmin(delays))
        if not np.isfinite(delays[best]):
            return None
        return int(candidates[best])

    def _row_for(self, source: int) -> int:
        if source not in self._row_of:
            raise KeyError(f"node {source} was not used as a source")
        return self._row_of[source]

    def _rows_of(self, sources: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._row_for(source) for source in sources.tolist()),
            dtype=np.int64,
            count=sources.size,
        )


@dataclass
class PathEngineStats:
    """Counters describing how the engine produced its tables.

    ``solver_calls`` counts ``csgraph`` invocations (the benchmark's
    "zero Dijkstra solves on empty diffs" assertion) and ``rows_solved``
    the source rows they computed; ``rows_reused`` counts rows published
    by rebinding.  Per table: ``tables_advanced`` counts every table
    handed to :meth:`PathEngine.advance_all`, ``empty_reuses`` the ones
    rebound across a diff that changed no delay and no link (the rest
    shared that call's one stacked solve), ``cold_solves`` the ones
    :meth:`PathEngine.solve` built from nothing (first epochs, cache
    misses).  The ``cache_*`` trio is incremented by the extra-table
    cache in :mod:`repro.core.constellation` — lookup hits and misses in
    ``_paths_from`` and insert-time evictions — so all-pairs runs are
    observable end to end through ``path_statistics``.
    """

    cold_solves: int = 0
    empty_reuses: int = 0
    solver_calls: int = 0
    rows_solved: int = 0
    rows_reused: int = 0
    tables_advanced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy (JSON-serialisable, used by the benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PathEngine:
    """Shortest-path engine over consecutive epoch graphs.

    One engine serves many tables (the main ground-station table plus any
    lazily created single-source satellite tables): :meth:`solve` runs a
    counted cold solve, :meth:`advance_all` carries tables across a
    :class:`~repro.topology.graph.TopologyDiff` by the reuse / solve
    dispatch described in the module docstring.  The engine remembers
    nothing between epochs but its counters.  Tables are immutable; the
    engine never mutates a published epoch's arrays, so keyframe states
    held by the database stay valid and any retained state can seed a
    replay.
    """

    def __init__(self, sources: Optional[Sequence[int]] = None):
        self.sources = list(sources) if sources is not None else None
        self.stats = PathEngineStats()

    def reset_stats(self) -> None:
        """Zero all counters (used by benchmarks between phases)."""
        self.stats = PathEngineStats()

    def solve(
        self, graph: NetworkGraph, sources: Optional[Sequence[int]] = None
    ) -> ShortestPaths:
        """Cold solve (counted) of one table, by default from the engine's sources."""
        table = ShortestPaths(
            graph, sources=sources if sources is not None else self.sources
        )
        self.stats.cold_solves += 1
        self.stats.solver_calls += 1
        self.stats.rows_solved += len(table.sources)
        return table

    def advance(
        self, previous: ShortestPaths, graph: NetworkGraph, diff: TopologyDiff
    ) -> ShortestPaths:
        """Advance one solved table: :meth:`advance_all` on ``[previous]``."""
        return self.advance_all([previous], graph, diff)[0]

    def advance_all(
        self,
        tables: Sequence[ShortestPaths],
        graph: NetworkGraph,
        diff: TopologyDiff,
    ) -> list[ShortestPaths]:
        """Advance tables across one epoch's topology diff.

        ``graph`` is the diff's current graph.  When the diff changed no
        delay and no link, every table of ``diff.previous`` is rebound to
        ``graph`` (shared arrays, zero solver calls).  All other tables —
        every table on any other diff, and tables that do not belong to
        ``diff.previous`` — are solved with their own sources in one
        stacked ``csgraph.dijkstra`` and published as row slices of it.
        Distances and reachability of every result are byte-identical to
        a cold solve on ``graph``.
        """
        stats = self.stats
        stats.tables_advanced += len(tables)
        unchanged = (
            graph is diff.current
            and diff.is_structural_noop
            and diff.delay_changed.size == 0
        )
        results: list[Optional[ShortestPaths]] = []
        stale: list[int] = []
        for i, table in enumerate(tables):
            if unchanged and table.graph is diff.previous:
                # Identical delays keep the previous trees exactly valid.
                stats.empty_reuses += 1
                stats.rows_reused += len(table.sources)
                results.append(table._rebind(graph))
            else:
                stale.append(i)
                results.append(None)
        if stale:
            sources = [source for i in stale for source in tables[i].sources]
            distances, predecessors = csgraph.dijkstra(
                graph.delay_matrix(), directed=False, indices=sources,
                return_predecessors=True,
            )
            stats.solver_calls += 1
            stats.rows_solved += len(sources)
            # Row-slice views: a slice keeps its whole stacked epoch alive,
            # which is fine because every table of the call is carried.
            start = 0
            for i in stale:
                stop = start + len(tables[i].sources)
                results[i] = ShortestPaths._from_arrays(
                    graph, tables[i].sources, "dijkstra",
                    distances[start:stop], predecessors[start:stop],
                )
                start = stop
        return results
