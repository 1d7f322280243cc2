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

Incremental engine: none / repair / wholesale / rebuild
-------------------------------------------------------

Consecutive constellation epochs share almost their entire shortest-path
structure, so rerunning a cold solve every epoch wastes the work the
differential pipeline already did.  :meth:`PathEngine.advance_all`
carries every solved :class:`ShortestPaths` table of a calculation (the
main table plus the carried single-source extras) from one epoch to the
next in one call, dispatching on the epoch's
:class:`~repro.topology.graph.TopologyDiff`
(:meth:`PathEngine.advance` is the same call on one table):

* **none** — the diff is empty (or touches only bandwidths): the previous
  trees are returned verbatim, rebound to the new graph.  Zero copies,
  zero solver work.
* **repair** — delays moved and/or a few links appeared or disappeared:
  the previous distances of all tables are stacked into one
  ``(total_rows, n)`` array and carried forward directly.  They stay
  exact wherever the supporting tree path survived unchanged; nodes
  whose tree path lost an edge or crosses a *raised* delay are
  invalidated to ``inf`` (the whole severed subtree, found by
  pointer-doubling the ancestor chain of the directly hit nodes, on the
  rows that were hit at all — ``O(log depth)`` gathers, no forest
  rebuild).  Seeds are then exactly the edges that can improve
  something: the finite→``inf`` boundary of the invalidated region
  (gathered from the CSR adjacency of the hit nodes) plus every added or
  delay-decreased edge checked against all rows.  Unchanged edges
  between two carried finite values cannot violate Bellman optimality —
  both endpoints kept their previous fixed-point values — so no full
  edge scan is needed.  Every violated row of every table is then
  repaired in ONE call to the **bounded regional re-solve kernel**
  (:mod:`repro.topology._kernels`), which relaxes from the violated
  edges and stays inside the affected region; only rows whose
  violated-edge count reaches the node count (where a bounded traversal
  degenerates to a full one) go to one batched ``csgraph.dijkstra``
  instead.
* **wholesale** — the trees are gone anyway: every table of the call is
  solved in one stacked ``csgraph.dijkstra``, skipping tree carry,
  closure, seed collection and kernel.  The routing rule reads the
  epoch's own diff and nothing else: the edges whose tree support can be
  gone — delay raised, or link removed — as a share ``p`` of the
  previous edge set.  A carried tree path of depth ``d`` survives with
  probability ``(1 - p)^d`` and constellation trees are tens of hops
  deep, so a few percent of disturbed edges invalidate most of every row
  and the bounded repair degenerates into a full traversal at NumPy
  speed; ``p ≥ WHOLESALE_SHARE`` routes wholesale.  The regimes sit far
  apart — ISL flicker, fault injection and handovers disturb well under
  1 % of the edges, a moving constellation raises ≈ 25 % every epoch —
  and the rule keeps no state: the same diff always takes the same
  route, consecutive epochs may alternate freely.
* **rebuild** — an incompatible table (Floyd–Warshall, foreign graph)
  is cold-solved alone; the rest of the call takes the diff's route.

Invariants
~~~~~~~~~~

The engine's output is **byte-identical in distances and reachability** to
a cold solve on the same graph.  This holds exactly — not approximately —
because IEEE-754 addition is monotone: a distance produced by Dijkstra is
the minimum over all paths of the left-to-right floating-point sum of the
(epsilon-clamped) hop delays.  The carried rows are such path sums: a
finite carried value is the previous fixed point, whose supporting tree
path survived with every hop weight bitwise unchanged — the identical
left-to-right sum in the current graph (a *decreased* hop weight is fine
too: the decreased edge itself is a violated seed, and the strict
improvement cascades down the subtree rewriting every descendant to a
current path sum; where rounding absorbs the decrease, the old bytes
*are* the current sum).  When no edge violates ``d[v] <= d[u] + w`` the
standard optimality proof carries over verbatim to floats, so the row
equals the cold solve bit for bit.  Predecessor trees may differ from a
cold solve only between equal-delay alternatives.

The argument extends unchanged to the bounded regional re-solve kernel:
its input rows are carried path sums or ``inf`` (valid upper bounds),
every relaxation it accepts writes the left-to-right float sum of an
actual path, and it runs until no edge improves any value.  Because the
constellation snaps delays to a binary ``2^-20`` ms grid before they
reach the solvers, the no-improving-edge fixed point is the *unique*
minimum over paths of the float path sum — independent of relaxation
order — so the kernel's heap-ordered (Numba) and frontier-ordered
(NumPy) implementations produce identical distance bytes, both equal to
the cold solve (see the :mod:`repro.topology._kernels` docstring for the
seeding-sufficiency proof).

Epoch-batched multi-table advance
---------------------------------

The per-epoch fixed costs (CSR adjacency patch, raised/decreased edge
classification, seed gathering, closure rounds) are paid once per
:meth:`PathEngine.advance_all` call, and every violated row of every
table joins one flat kernel invocation whose row axis spans tables.
Stacking cannot change a byte because every step is **row-local**:
direct-hit detection tests each ``(row, edge)`` pair independently, the
pointer-doubling closure gathers ancestors within a row's own
``n``-slice of the flat index space, boundary and decreased-edge seeds
are per-row violations, and the kernel's relaxations read and write
only within ``row * n .. (row + 1) * n`` (extra global closure rounds
demanded by a slow-converging row are idempotent no-ops for rows that
already converged).  A table advanced inside a batch of 65 therefore
gets the identical per-row arithmetic in the identical per-row order as
the same table advanced alone — which matches the cold solve by the
argument above.  At 64+ carried tables this turns hundreds of small
kernel calls and seed scans per epoch into one large batched call, which
is where the all-pairs serving shape
(``ConstellationCalculation(all_pairs=True)``) gets its epoch speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Literal, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph

from repro.topology import _kernels
from repro.topology.graph import DELAY_EPSILON_MS, NetworkGraph, TopologyDiff

#: Sentinel used by ``scipy.sparse.csgraph`` for "no predecessor" (the
#: source itself and unreachable nodes).  The engine preserves it.
NO_PREDECESSOR = -9999

#: Share of the previous epoch's edges whose tree support can be gone
#: (delay raised, or link removed) at or above which an epoch is solved
#: wholesale instead of repaired.  From the crossover sweep in
#: ``benchmarks/test_claim_update_time.py`` (``BENCH_paths.json`` →
#: ``regime_crossover``; share → stacked repair vs stacked solve, median
#: of 7 [ms], 2 vCPU, NumPy kernel): full Starlink, 9 rows: 0.001 → 3.2
#: vs 6.7; 0.005 → 4.9 vs 6.6; 0.010 → 8.1 vs 6.6; 0.019 → 11.9 vs 7.3;
#: 0.049 → 22.0 vs 7.4; 0.243 → 24.2 vs 6.9.  DART Iridium, 125 rows:
#: 0.007 → 1.4 vs 2.4; 0.021 → 2.1 vs 2.3; 0.041 → 2.9 vs 2.3; 0.103 →
#: 3.4 vs 2.3.  Deep Starlink trees cross over below 0.01, shallow
#: Iridium ones above 0.02, where the large graph already loses 1.6×.  No
#: workload sits near it: flicker and handovers disturb < 0.005 of the
#: edges, a moving constellation raises ≈ 0.25 (the inter-plane ISLs).
WHOLESALE_SHARE = 0.02


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


class _PathCaches:
    """Per-table engine caches, shared between rebound epoch views.

    ``tree_edge_matrix`` holds, per ``(source row, node)``, the edge id of
    the node's tree edge ``(pred, node)`` in the graph identified by
    ``edges_token`` (``-1`` for roots and unreachable nodes).  Being
    node-indexed, the matrix survives predecessor rewrites through cheap
    point patches and structural epochs through one ``edge_id_map``
    gather.
    """

    __slots__ = ("edges_token", "tree_edge_matrix")

    def __init__(self):
        self.edges_token: Optional[object] = None
        self.tree_edge_matrix: Optional[np.ndarray] = None


class ShortestPaths:
    """Shortest paths from a set of source nodes over a network snapshot.

    Constructing an instance runs a cold solve; :class:`PathEngine`
    produces equivalent instances incrementally via
    :meth:`PathEngine.advance` and keeps :class:`ShortestPaths` as the
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
        self._caches = _PathCaches()

    @classmethod
    def _from_arrays(
        cls,
        graph: NetworkGraph,
        sources: Sequence[int],
        method: str,
        distances: np.ndarray,
        predecessors: np.ndarray,
        caches: Optional[_PathCaches] = None,
    ) -> "ShortestPaths":
        """Build a table around already-solved arrays (engine fast path)."""
        table = cls.__new__(cls)
        table.graph = graph
        table.sources = list(sources)
        table.method = method
        table._row_of = {source: row for row, source in enumerate(table.sources)}
        table._distances = np.atleast_2d(distances)
        table._predecessors = np.atleast_2d(predecessors)
        table._caches = caches if caches is not None else _PathCaches()
        return table

    def _rebind(self, graph: NetworkGraph) -> "ShortestPaths":
        """A view of this table over a new (identically weighted) graph.

        Arrays and engine caches are shared, never copied; tables are
        treated as immutable once published.
        """
        return ShortestPaths._from_arrays(
            graph, self.sources, self.method, self._distances, self._predecessors,
            caches=self._caches,
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

    # -- engine cache plumbing ------------------------------------------

    def _tree_matrix_for(
        self, graph: NetworkGraph, diff: Optional[TopologyDiff] = None
    ) -> np.ndarray:
        """Node-indexed tree-edge-id matrix in ``graph`` (-1 where absent).

        Cached per structure epoch: consecutive steady-state graphs share
        their sorted-key array object, so no lookup runs while the edge
        set is unchanged.  Across a structural epoch the cached ids are
        carried over through the diff's
        :meth:`~repro.topology.graph.TopologyDiff.edge_id_map` (one
        gather); only a cold cache pays the full pair lookup.
        """
        token = graph.structure_token
        cache = self._caches
        if cache.tree_edge_matrix is None or cache.edges_token is not token:
            matrix = None
            if (
                cache.tree_edge_matrix is not None
                and diff is not None
                and cache.edges_token is diff.previous.structure_token
            ):
                id_map = diff.edge_id_map()
                old = cache.tree_edge_matrix
                matrix = np.where(old >= 0, id_map[np.maximum(old, 0)], -1)
            if matrix is None:
                predecessors = self._predecessors
                matrix = np.full(predecessors.shape, -1, dtype=np.int64)
                rows, cols = np.nonzero(predecessors >= 0)
                matrix[rows, cols] = graph.edge_ids_between(
                    predecessors[rows, cols].astype(np.int64), cols
                )
            cache.tree_edge_matrix = matrix
            cache.edges_token = token
        return cache.tree_edge_matrix


@dataclass
class PathEngineStats:
    """Counters describing how the engine advanced its tables.

    ``solver_calls`` counts ``csgraph`` invocations (the benchmark's
    "zero Dijkstra solves on empty diffs" assertion); the ``rows_*``
    counters attribute every published row to how it was produced
    (``rows_reused`` carried unchanged, ``rows_kernel`` through the
    bounded regional re-solve, ``rows_solved`` by ``csgraph``), and
    ``kernel_calls``/``kernel_settles`` size the kernel's work.  Per
    :meth:`PathEngine.advance_all` call, whatever the table count:
    ``repaired_epochs``/``structural_epochs`` count delay-only/structural
    diffs that took the repair leg (with at most one ``kernel_calls`` and
    one ``solver_calls`` each — that is the point of stacking),
    ``bypassed_epochs`` the diffs routed to the wholesale stacked solve,
    ``batched_calls``/``batched_rows`` size the stacked repair.  Per
    table: ``tables_advanced`` counts every table handed to the engine,
    ``empty_reuses`` the ones rebound across a none-leg diff,
    ``cold_solves`` the ones :meth:`PathEngine.solve` built from nothing
    (first epochs, cache misses, incompatible ones).  The ``cache_*``
    trio is incremented by the extra-table cache in
    :mod:`repro.core.constellation` — lookup hits and misses in
    ``_paths_from`` and insert-time evictions — so all-pairs runs are
    observable end to end through ``path_statistics``.
    """

    cold_solves: int = 0
    empty_reuses: int = 0
    repaired_epochs: int = 0
    structural_epochs: int = 0
    bypassed_epochs: int = 0
    solver_calls: int = 0
    kernel_calls: int = 0
    rows_solved: int = 0
    rows_reused: int = 0
    rows_kernel: int = 0
    kernel_settles: int = 0
    tables_advanced: int = 0
    batched_calls: int = 0
    batched_rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy (JSON-serialisable, used by the benchmarks)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PathEngine:
    """Incremental shortest-path engine over consecutive epoch graphs.

    One engine serves many tables (the main ground-station table plus any
    lazily created single-source satellite tables): :meth:`solve` runs a
    counted cold solve, :meth:`advance_all` carries tables across a
    :class:`~repro.topology.graph.TopologyDiff` using the none / repair /
    wholesale / rebuild dispatch described in the module docstring.  The
    engine remembers nothing between epochs but its counters: which leg
    an epoch takes is a function of that epoch's diff alone.  Tables are
    immutable; the engine never mutates a published epoch's arrays, so
    keyframe states held by the database stay valid and any retained
    state can seed a replay.
    """

    def __init__(
        self,
        sources: Optional[Sequence[int]] = None,
        kernel_backend: str = "auto",
    ):
        self.sources = list(sources) if sources is not None else None
        # Bounded regional re-solve kernel ("auto" → Numba when the
        # [fast] extra is installed, the vectorised NumPy one otherwise).
        self.kernel_backend = _kernels.resolve_backend(kernel_backend)
        # Per-table work scores of the most recent ``advance_all`` call
        # (parallel to its ``tables`` argument): 0 for pure reuse, ~1 per
        # kernel row, ~4 per solver/cold row.  The constellation's
        # cost-aware extra-table cache folds these into eviction scores.
        self.last_advance_costs: list[float] = []
        self.stats = PathEngineStats()

    def reset_stats(self) -> None:
        """Zero all counters (used by benchmarks between phases)."""
        self.stats = PathEngineStats()

    # -- cold path -------------------------------------------------------

    def solve(
        self, graph: NetworkGraph, sources: Optional[Sequence[int]] = None
    ) -> ShortestPaths:
        """Cold solve (counted): the rebuild leg of the dispatch."""
        table = ShortestPaths(
            graph, sources=sources if sources is not None else self.sources
        )
        self.stats.cold_solves += 1
        self.stats.solver_calls += 1
        self.stats.rows_solved += len(table.sources)
        return table

    # -- incremental path ------------------------------------------------

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

        Every table must be the table of ``diff.previous`` and ``graph``
        the diff's current graph; distances and reachability of every
        result are byte-identical to a cold solve on ``graph``.  A table
        that is not (non-Dijkstra, foreign graph) is cold-solved alone
        with its own sources.  The diff is classified once for the
        others: an empty or bandwidth-only diff rebinds them (shared
        arrays, zero solver calls), a wholesale one solves them in one
        stacked ``csgraph.dijkstra``, anything between repairs them
        stacked (see the module docstring).

        Side channel: ``self.last_advance_costs`` is rewritten with a
        list parallel to ``tables`` scoring each table's work this
        epoch (0 for pure reuse, ~1 per kernel row, ~4 per solver/cold
        row); the constellation's cost-aware table cache feeds eviction
        from it.
        """
        tables = list(tables)
        stats = self.stats
        stats.tables_advanced += len(tables)
        costs = [0.0] * len(tables)
        self.last_advance_costs = costs
        results: list[Optional[ShortestPaths]] = [None] * len(tables)
        batch: list[int] = []
        for i, table in enumerate(tables):
            if self._compatible(table, graph, diff):
                batch.append(i)
            else:
                results[i] = self.solve(graph, sources=table.sources)
                costs[i] = 4.0 * len(table.sources)
        if not batch:
            return results
        if diff.is_empty or (
            diff.is_structural_noop and diff.delay_changed.size == 0
        ):
            # "none": identical delays keep the previous trees exactly valid.
            stats.empty_reuses += len(batch)
            for i in batch:
                stats.rows_reused += len(tables[i].sources)
                results[i] = tables[i]._rebind(graph)
            return results
        batch_tables = [tables[i] for i in batch]
        weights = graph.clamped_delays_ms()
        raised, decreased = self._classify_changed(graph, diff, weights)
        if self._is_wholesale(diff, raised):
            advanced = self._solve_stacked(batch_tables, graph)
            batch_costs = [4.0 * len(t.sources) for t in batch_tables]
        else:
            advanced, batch_costs = self._advance_batch(
                batch_tables, graph, diff, weights, raised, decreased
            )
        for j, i in enumerate(batch):
            results[i] = advanced[j]
            costs[i] = batch_costs[j]
        return results

    def _solve_stacked(
        self, tables: list[ShortestPaths], graph: NetworkGraph
    ) -> list[ShortestPaths]:
        """The wholesale leg: one ``csgraph`` solve over all tables' sources.

        Every published row is a cold solver row (byte-identity is
        immediate); tables are row-slice views with fresh caches.
        """
        stats = self.stats
        indices = [source for table in tables for source in table.sources]
        distances, predecessors = csgraph.dijkstra(
            graph.delay_matrix(), directed=False, indices=indices,
            return_predecessors=True,
        )
        distances = np.atleast_2d(distances)
        predecessors = np.atleast_2d(predecessors)
        stats.bypassed_epochs += 1
        stats.solver_calls += 1
        stats.rows_solved += len(indices)
        out = []
        start = 0
        for table in tables:
            stop = start + len(table.sources)
            out.append(ShortestPaths._from_arrays(
                graph, table.sources, "dijkstra",
                distances[start:stop], predecessors[start:stop],
            ))
            start = stop
        return out

    def _advance_batch(
        self,
        tables: list[ShortestPaths],
        graph: NetworkGraph,
        diff: TopologyDiff,
        weights: np.ndarray,
        raised: np.ndarray,
        decreased: np.ndarray,
    ) -> tuple[list[ShortestPaths], list[float]]:
        """The repair leg, on the vertically stacked rows of all tables.

        Carries the ``(total_rows, n)`` distances, invalidates the
        severed subtrees, seeds the violated edges and repairs every
        violated row in one kernel call — except rows whose
        violated-edge count reaches ``n``, which go to one batched
        ``csgraph`` call (every step is row-local; see the module
        docstring).  Returns the tables and their work costs.

        Published tables hold row-slice views of the stacked arrays —
        tables are immutable once published, so sharing is safe; note a
        slice keeps its whole stacked epoch alive, which is the
        all-pairs serving shape where every table is carried anyway.
        """
        stats = self.stats
        stats.batched_calls += 1
        row_counts = np.array([len(t.sources) for t in tables], dtype=np.int64)
        row_starts = np.concatenate(([0], np.cumsum(row_counts)))
        total_rows = int(row_starts[-1])
        stats.batched_rows += total_rows
        n = len(graph.index)
        # Patch the CSR adjacency forward instead of re-sorting it from
        # scratch — boundary-seed expansion and the kernel both need it.
        graph.carry_adjacency_from(diff)
        tree_matrix = np.vstack([t._tree_matrix_for(graph, diff) for t in tables])
        previous_predecessors = np.vstack([t._predecessors for t in tables])
        structural = not diff.is_structural_noop
        if structural:
            stats.structural_epochs += 1
        else:
            stats.repaired_epochs += 1

        # Invalidate the severed subtrees: nodes whose tree edge
        # disappeared or was delay-raised, closed over descendants.  Every
        # other node keeps its carried value (module docstring).
        severed = self._severed_closure(
            tree_matrix, previous_predecessors, raised, weights.size, structural
        )
        # ``vstack`` copied, so invalidation can write in place.
        distances = np.vstack([t._distances for t in tables])
        collected: list[tuple[np.ndarray, ...]] = []
        if severed is not None:
            distances[severed] = np.inf
            # Seeds, part 1 — the finite→inf boundary of the invalidated
            # region: every edge from a still-finite node into a hit node
            # is a violation by construction (finite + w < inf).
            self._boundary_seeds(graph, distances, *severed, collected)
        # Seeds, part 2 — every added or delay-decreased edge, checked
        # against all rows.  No other edge can violate Bellman optimality
        # between two carried finite values (module docstring).
        improving = decreased
        if structural and diff.links_added.size:
            improving = np.concatenate([diff.links_added, decreased])
        self._collect_seeds(
            collected, distances, weights, graph.node_a, graph.node_b, improving
        )

        if not collected:
            # No violated edge anywhere: predecessors are untouched, so
            # the tree-edge caches stay valid for the next epoch.  (An
            # invalidated region with no finite boundary is genuinely
            # unreachable — its ``inf`` rows are final.)
            stats.rows_reused += total_rows
            if severed is None:
                return [t._rebind(graph) for t in tables], [0.0] * len(tables)
            return [
                ShortestPaths._from_arrays(
                    graph, table.sources, "dijkstra",
                    distances[row_starts[k]:row_starts[k + 1]],
                    table._predecessors, caches=table._caches,
                )
                for k, table in enumerate(tables)
            ], [0.0] * len(tables)

        seed_rows, seed_parents, seed_children, seed_edges = (
            np.concatenate(column) for column in zip(*collected)
        )
        violated_rows = np.unique(seed_rows)
        seed_counts = np.bincount(seed_rows, minlength=total_rows)
        predecessors = previous_predecessors.copy()
        solver_mask = seed_counts[violated_rows] >= n
        kernel_rows = violated_rows[~solver_mask]
        solver_rows = violated_rows[solver_mask]
        if kernel_rows.size:
            stats.kernel_settles += self._kernel_resolve(
                graph, weights, distances, predecessors, kernel_rows,
                seed_rows, seed_parents, seed_children, seed_edges,
            )
            stats.kernel_calls += 1
            stats.rows_kernel += int(kernel_rows.size)
        if solver_rows.size:
            stacked_sources = np.concatenate([t.sources for t in tables])
            solved_distances, solved_predecessors = csgraph.dijkstra(
                graph.delay_matrix(), directed=False,
                indices=stacked_sources[solver_rows], return_predecessors=True,
            )
            distances[solver_rows] = np.atleast_2d(solved_distances)
            predecessors[solver_rows] = np.atleast_2d(solved_predecessors)
            stats.solver_calls += 1
            stats.rows_solved += int(solver_rows.size)
        stats.rows_reused += total_rows - int(violated_rows.size)

        # Per-table work costs, from each table's share of kernel/solver rows.
        table_of = np.repeat(np.arange(len(tables)), row_counts)
        costs = (
            4.0 * np.bincount(table_of[solver_rows], minlength=len(tables))
            + np.bincount(table_of[kernel_rows], minlength=len(tables))
        ).tolist()

        out = []
        for k, table in enumerate(tables):
            start, stop = int(row_starts[k]), int(row_starts[k + 1])
            caches = self._patched_caches(
                graph, tree_matrix[start:stop],
                table._predecessors, predecessors[start:stop],
            )
            out.append(ShortestPaths._from_arrays(
                graph, table.sources, "dijkstra", distances[start:stop],
                predecessors[start:stop], caches=caches,
            ))
        return out, costs

    # -- shared per-epoch building blocks -------------------------------

    @staticmethod
    def _compatible(
        table: ShortestPaths, graph: NetworkGraph, diff: TopologyDiff
    ) -> bool:
        """Whether ``table`` can be carried across ``diff`` onto ``graph``."""
        return (
            table.method == "dijkstra"
            and table.graph is diff.previous
            and graph is diff.current
            and len(graph.index) == table._distances.shape[1]
        )

    @staticmethod
    def _is_wholesale(diff: TopologyDiff, raised: np.ndarray) -> bool:
        """The routing rule, decided here alone and from the diff alone."""
        disturbed = raised.size + diff.links_removed.size
        return disturbed >= WHOLESALE_SHARE * diff.previous.total_links()

    @staticmethod
    def _classify_changed(
        graph: NetworkGraph, diff: TopologyDiff, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split surviving changed-delay edges into (raised, decreased).

        Classified against the previous epoch's weights.  Steady chains
        share the sorted-key array object between epochs, making
        current ids valid previous ids; otherwise one pair lookup
        resolves them.
        """
        changed = diff.delay_changed
        if not changed.size:
            return changed, changed
        if graph.structure_token is diff.previous.structure_token:
            previous_ids = changed
        else:
            previous_ids = diff.previous.edge_ids_between(
                graph.node_a[changed], graph.node_b[changed]
            )
        previous_weights = np.maximum(
            diff.previous.delays_ms[previous_ids], DELAY_EPSILON_MS
        )
        raised = changed[weights[changed] > previous_weights]
        decreased = changed[weights[changed] < previous_weights]
        return raised, decreased

    @staticmethod
    def _severed_closure(
        tree_matrix: np.ndarray,
        predecessors: np.ndarray,
        raised: np.ndarray,
        edge_count: int,
        structural: bool,
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Close the directly hit node set over descendants.

        Directly hit nodes are those whose tree edge disappeared or was
        delay-raised; the set is closed over descendants by
        pointer-doubling the predecessor chains (a no-change round
        means every hit ancestor has been seen).  Returns the
        invalidated cells as ``(rows, nodes)`` index arrays in row-major
        order, or None when no row lost anything.  Row-local — each
        row's ancestor chains stay inside its own ``n``-slice of the
        flat index space — so every table's rows close in the same
        gathers (extra rounds demanded by a slow row are no-ops for
        converged rows).
        """
        if not (structural or raised.size):
            return None
        raised_mask = np.zeros(edge_count, dtype=bool)
        raised_mask[raised] = True
        direct = (tree_matrix >= 0) & raised_mask[np.maximum(tree_matrix, 0)]
        if structural:
            direct |= (tree_matrix < 0) & (predecessors >= 0)
        # Narrow to the rows that actually lost something before the
        # closure: on a localized flicker most trees never touch the
        # failed links, and the pointer-doubling gathers below cost
        # O(rows × n) per round.
        affected_rows = np.flatnonzero(direct.any(axis=1))
        if not affected_rows.size:
            return None
        if affected_rows.size < direct.shape[0]:
            direct = direct[affected_rows]
            predecessors = predecessors[affected_rows]
        k, n = direct.shape
        hit = direct.reshape(-1)
        flat_pred = predecessors.reshape(-1).astype(np.int64)
        index = np.arange(k * n, dtype=np.int64)
        row_base = np.repeat(np.arange(k, dtype=np.int64) * n, n)
        ancestor = np.where(flat_pred >= 0, row_base + flat_pred, index)
        count, previous_count = int(np.count_nonzero(hit)), -1
        while count != previous_count:
            np.logical_or(hit, hit[ancestor], out=hit)
            ancestor = ancestor[ancestor]
            previous_count, count = count, int(np.count_nonzero(hit))
        local_rows, hit_nodes = np.nonzero(hit.reshape(k, n))
        return affected_rows[local_rows], hit_nodes

    @staticmethod
    def _collect_seeds(
        collected: list,
        distances: np.ndarray,
        weights: np.ndarray,
        node_a: np.ndarray,
        node_b: np.ndarray,
        edge_ids: np.ndarray,
    ) -> None:
        """Append the violated directed edges among ``edge_ids``, all rows."""
        if edge_ids.size == 0:
            return
        ea = node_a[edge_ids]
        eb = node_b[edge_ids]
        ew = weights[edge_ids]
        da = distances[:, ea]
        db = distances[:, eb]
        forward = da + ew < db
        reverse = db + ew < da
        # Fast exit for the common steady epoch: a pair of boolean
        # reductions is much cheaper than materialising index arrays.
        if not (forward.any() or reverse.any()):
            return
        f_rows, f_edges = np.nonzero(forward)
        r_rows, r_edges = np.nonzero(reverse)
        collected.append((
            np.concatenate([f_rows, r_rows]),
            np.concatenate([ea[f_edges], eb[r_edges]]),
            np.concatenate([eb[f_edges], ea[r_edges]]),
            np.concatenate([edge_ids[f_edges], edge_ids[r_edges]]),
        ))

    @staticmethod
    def _boundary_seeds(
        graph: NetworkGraph,
        distances: np.ndarray,
        hit_rows: np.ndarray,
        hit_nodes: np.ndarray,
        collected: list,
    ) -> None:
        """Seed the finite→``inf`` boundary of the invalidated cells."""
        indptr, adj_nodes, adj_edges = graph.adjacency_arrays()
        starts = indptr[hit_nodes]
        counts = indptr[hit_nodes + 1] - starts
        total = int(counts.sum())
        if total:
            positions = (
                np.repeat(starts - (np.cumsum(counts) - counts), counts)
                + np.arange(total)
            )
            boundary_rows = np.repeat(hit_rows, counts)
            boundary_parents = adj_nodes[positions]
            finite = np.isfinite(distances[boundary_rows, boundary_parents])
            if finite.any():
                collected.append((
                    boundary_rows[finite],
                    boundary_parents[finite],
                    np.repeat(hit_nodes, counts)[finite],
                    adj_edges[positions][finite],
                ))

    def _kernel_resolve(
        self,
        graph: NetworkGraph,
        weights: np.ndarray,
        distances: np.ndarray,
        predecessors: np.ndarray,
        rows: np.ndarray,
        seed_rows: np.ndarray,
        seed_parents: np.ndarray,
        seed_children: np.ndarray,
        seed_edges: np.ndarray,
    ) -> int:
        """Repair ``rows`` in one batched bounded kernel call.

        The rows are compacted into a flat ``(len(rows) * n,)``
        distance/predecessor view seeded with their violated edges; the
        kernel relaxes to the cold-solve fixed point while the old
        distances bound the traversal to the affected region (see
        :mod:`repro.topology._kernels`).  Returns the settle count.
        """
        indptr, adj_nodes, _ = graph.adjacency_arrays()
        adj_weights = graph.adjacency_weights()
        n = distances.shape[1]
        if rows.size == distances.shape[0]:
            # Every row is violated (then every seed belongs to one of
            # ``rows``): the flat views alias the published arrays, so
            # the kernel writes land in place and nothing scatters back.
            return _kernels.bounded_regional_resolve(
                indptr, adj_nodes, adj_weights, n,
                distances.reshape(-1), predecessors.reshape(-1),
                seed_rows * n + seed_parents,
                seed_rows * n + seed_children,
                weights[seed_edges],
                backend=self.kernel_backend,
            )
        compact = np.full(distances.shape[0], -1, dtype=np.int64)
        compact[rows] = np.arange(rows.size, dtype=np.int64)
        mapped = compact[seed_rows]
        selected = mapped >= 0
        flat_base = mapped[selected] * n
        sub_distances = distances[rows].reshape(-1)
        sub_predecessors = predecessors[rows].reshape(-1)
        settles = _kernels.bounded_regional_resolve(
            indptr, adj_nodes, adj_weights, n,
            sub_distances, sub_predecessors,
            flat_base + seed_parents[selected],
            flat_base + seed_children[selected],
            weights[seed_edges[selected]],
            backend=self.kernel_backend,
        )
        distances[rows] = sub_distances.reshape(rows.size, n)
        predecessors[rows] = sub_predecessors.reshape(rows.size, n)
        return settles

    @staticmethod
    def _patched_caches(
        graph: NetworkGraph,
        tree_matrix: np.ndarray,
        old_predecessors: np.ndarray,
        new_predecessors: np.ndarray,
    ) -> _PathCaches:
        """Caches for the next epoch, patched where predecessors changed.

        Repairs touch a small fraction of the predecessor entries, so the
        node-indexed tree-edge matrix is point-patched instead of
        rebuilt.
        """
        caches = _PathCaches()
        caches.edges_token = graph.structure_token
        matrix = tree_matrix.copy()
        # A node that went unreachable keeps its last predecessor (no
        # repair overwrites it), so when a later epoch reconnects it
        # through the SAME parent the pred diff alone cannot see it even
        # though its matrix entry went -1 with the vanished edge.  Re-do
        # the lookup for every -1 entry claiming a parent: a spurious
        # edge id on a still-unreachable node merely over-invalidates an
        # inf cell later, while a spurious -1 here would let a raised
        # tree edge slip past the direct-hit scan.
        stale = (matrix < 0) & (new_predecessors >= 0)
        rows, cols = np.nonzero((new_predecessors != old_predecessors) | stale)
        parents = new_predecessors[rows, cols].astype(np.int64)
        matrix[rows, cols] = -1
        valid = parents >= 0
        if valid.any():
            matrix[rows[valid], cols[valid]] = graph.edge_ids_between(
                parents[valid], cols[valid]
            )
        caches.tree_edge_matrix = matrix
        return caches
