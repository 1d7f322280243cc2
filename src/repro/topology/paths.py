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
differential pipeline already did.  :class:`PathEngine` advances a solved
:class:`ShortestPaths` table from one epoch to the next, dispatching on the
epoch's :class:`~repro.topology.graph.TopologyDiff`:

* **none** — the diff is empty (or touches only bandwidths): the previous
  trees are returned verbatim, rebound to the new graph.  Zero solver work.
* **repair** — delays moved and/or a few links appeared or disappeared:
  the previous distances are carried forward directly.  They stay exact
  wherever the supporting tree path survived unchanged; nodes whose tree
  path lost an edge or crosses a *raised* delay are invalidated to
  ``inf`` (the whole severed subtree, found by pointer-doubling the
  ancestor chain of the directly hit nodes — ``O(log depth)`` full-array
  gathers, no forest rebuild).  Seeds are then exactly the edges that can
  improve something: the finite→``inf`` boundary of the invalidated
  region (gathered from the CSR adjacency of the hit nodes) plus every
  added or delay-decreased edge checked against all rows.  Unchanged
  edges between two carried finite values cannot violate Bellman
  optimality — both endpoints kept their previous fixed-point values —
  so no full edge scan is needed.  All violated rows of a table are then
  repaired in one batched call to the **bounded regional re-solve
  kernel** (:mod:`repro.topology._kernels`), which relaxes from the
  violated edges and stays inside the affected region; only rows whose
  violated-edge count reaches the node count (wholesale rewiring, where
  a bounded traversal degenerates to a full one) fall back to a batched
  ``csgraph.dijkstra``.  With the kernel disabled
  (``kernel_backend=None``) rows are instead repaired by a
  Ramalingam–Reps-style Python heap re-relaxation seeded from the
  violated edges, handing off to the C solver when the touched fraction
  exceeds ``repair_threshold`` or a violation's finite undercut reaches
  ``solver_handoff_gain_ms`` (a new/disappeared link re-hanging a whole
  region).
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
* **rebuild** — incompatible tables (different sources/method, foreign
  graph) degrade to a cold solve.

For delay-only diffs the engine first consults a reverse edge→tree
membership index (built once per structure epoch from the CSR edge-id
arrays, see :meth:`~repro.topology.graph.NetworkGraph.edge_membership`):
sources whose trees traverse no raised edge have nothing to invalidate,
so the whole hit-detection pass is skipped and only the cheap
decreased-edge check runs against their carried rows.

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
equals the cold solve bit for bit.  The heap repair relaxes to the same
fixed point.  Predecessor trees may differ from a cold solve only
between equal-delay alternatives.

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

:meth:`PathEngine.advance_all` advances *many* tables across the same
diff in one pass.  Semantically it is the per-table loop
``[engine.advance(t, graph, diff) for t in tables]`` — distances and
reachability of every published table are byte-identical — but the
per-epoch fixed costs (CSR adjacency patch, raised/decreased edge
classification, seed gathering, closure rounds) are paid once for the
whole batch, and every violated row of every table is stacked into ONE
flat kernel invocation whose row axis spans tables.  The identity holds
because every step of :meth:`PathEngine.advance` is **row-local**:
direct-hit detection tests each ``(row, edge)`` pair independently, the
pointer-doubling closure gathers ancestors within a row's own
``n``-slice of the flat index space, boundary and decreased-edge seeds
are per-row violations, and the kernel's relaxations read and write
only within ``row * n .. (row + 1) * n`` (extra global closure rounds
demanded by a slow-converging row are idempotent no-ops for rows that
already converged).  Stacking rows across tables therefore performs the
identical per-row arithmetic in the identical per-row order, so the
published bytes match the per-table loop's — which matches the cold
solve by the argument above.  At 64+ carried tables this turns hundreds
of small per-table kernel calls and seed scans per epoch into one large
batched call, which is where the all-pairs serving shape
(``ConstellationCalculation(all_pairs=True)``) gets its epoch speedup.
"""

from __future__ import annotations

import heapq
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
    gather.  The edge→tree membership index is derived from it on demand.
    """

    __slots__ = ("edges_token", "tree_edge_matrix", "membership")

    def __init__(self):
        self.edges_token: Optional[object] = None
        self.tree_edge_matrix: Optional[np.ndarray] = None
        self.membership: Optional[np.ndarray] = None


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
            cache.membership = None
        return cache.tree_edge_matrix

    def _membership_for(
        self, graph: NetworkGraph, diff: Optional[TopologyDiff] = None
    ) -> np.ndarray:
        """Reverse edge→tree membership index (``(S, E)`` bool)."""
        if self._caches.membership is None:
            matrix = self._tree_matrix_for(graph, diff)
            rows, cols = np.nonzero(matrix >= 0)
            self._caches.membership = graph.edge_membership(
                rows, matrix[rows, cols], matrix.shape[0]
            )
        return self._caches.membership


@dataclass
class PathEngineStats:
    """Counters describing how the engine advanced its tables.

    ``solver_calls`` counts ``csgraph`` invocations (the benchmark's
    "zero Dijkstra solves on empty diffs" assertion); the ``rows_*``
    counters attribute every published row to how it was produced
    (``rows_kernel`` rows went through the batched bounded regional
    re-solve, ``kernel_calls``/``kernel_settles`` size that work).  The
    ``membership_*`` pair proves the edge→tree membership index is
    carried across delay-only epochs instead of rebuilt per diff.
    ``bypassed_epochs`` counts epochs routed to the wholesale stacked
    solve (once per ``advance_all`` call, or per ``advance`` call
    outside one), ``cold_solves`` the tables :meth:`PathEngine.solve`
    built from nothing (first epochs, cache misses, incompatible ones).

    Multi-table attribution: ``tables_advanced`` counts every table
    advanced through :meth:`PathEngine.advance` or
    :meth:`PathEngine.advance_all`; ``batched_calls``/``batched_rows``
    size the stacked repair path (one batch per :meth:`advance_all`
    invocation that formed one, rows summed across all its tables).
    The ``cache_*`` trio is incremented by the extra-table cache in
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
    rows_repaired: int = 0
    rows_kernel: int = 0
    heap_settles: int = 0
    kernel_settles: int = 0
    membership_rebuilds: int = 0
    membership_reuses: int = 0
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
    counted cold solve, :meth:`advance` carries a table across a
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
        method: Literal["dijkstra", "floyd-warshall"] = "dijkstra",
        repair_threshold: float = 0.25,
        solver_handoff_gain_ms: float = 0.05,
        kernel_backend: Optional[str] = "auto",
    ):
        if not 0.0 <= repair_threshold <= 1.0:
            raise ValueError("repair threshold must be within [0, 1]")
        self.sources = list(sources) if sources is not None else None
        self.method = method
        self.repair_threshold = repair_threshold
        # Rows whose largest violation undercut reaches this magnitude are
        # handed off the Python re-relaxation: gains that big (a link
        # appeared/disappeared) re-hang whole regions, which the batched
        # bounded kernel repairs in one call.  Purely a performance dial —
        # results are byte-identical either way.
        self.solver_handoff_gain_ms = solver_handoff_gain_ms
        # Bounded regional re-solve kernel ("auto" → Numba when the
        # [fast] extra is installed, the vectorised NumPy fallback
        # otherwise; None/"off" → the per-source csgraph fallback).
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
            graph,
            sources=sources if sources is not None else self.sources,
            method=self.method,
        )
        self.stats.cold_solves += 1
        self.stats.solver_calls += 1
        self.stats.rows_solved += len(table.sources)
        return table

    # -- incremental path ------------------------------------------------

    def advance(
        self, previous: ShortestPaths, graph: NetworkGraph, diff: TopologyDiff
    ) -> ShortestPaths:
        """Advance a solved table across one epoch's topology diff.

        ``previous`` must be the table of ``diff.previous`` and ``graph``
        the diff's current graph; distances and reachability of the result
        are byte-identical to a cold solve on ``graph``.  Incompatible
        inputs (non-Dijkstra table, foreign graph) degrade to a cold
        solve with the table's own sources.
        """
        self.stats.tables_advanced += 1
        if not self._compatible(previous, graph, diff):
            return self.solve(graph, sources=previous.sources)
        source_count = len(previous.sources)
        # "none": identical delays (an empty diff, or bandwidth-only
        # changes) keep the previous trees exactly valid.
        if diff.is_empty or (
            diff.is_structural_noop and diff.delay_changed.size == 0
        ):
            self.stats.empty_reuses += 1
            self.stats.rows_reused += source_count
            return previous._rebind(graph)

        n = len(graph.index)
        weights = graph.clamped_delays_ms()
        raised, decreased = self._classify_changed(graph, diff, weights)
        # "wholesale": the diff says the trees are gone — solve outright.
        if self._is_wholesale(diff, raised):
            return self._solve_stacked([previous], graph)[0]
        # Patch the CSR adjacency forward instead of re-sorting it from
        # scratch — boundary-seed expansion and the kernel both need it.
        graph.carry_adjacency_from(diff)
        tree_matrix = previous._tree_matrix_for(graph, diff)
        previous_predecessors = previous._predecessors
        node_a, node_b = graph.node_a, graph.node_b

        # Directly hit nodes: the tree edge above them disappeared or was
        # delay-raised.  Every other node keeps its carried value (see the
        # module docstring for why those stay bitwise exact).  On
        # delay-only epochs the membership index narrows the gather to
        # sources whose tree traverses a raised edge.
        if diff.is_structural_noop:
            # ``_tree_matrix_for`` above already synced the cache to this
            # epoch's structure token, so a surviving membership index is
            # valid here; count hits to prove the cross-epoch carry.
            if previous._caches.membership is None:
                self.stats.membership_rebuilds += 1
            else:
                self.stats.membership_reuses += 1
            membership = previous._membership_for(graph, diff)
            affected_rows = (
                np.flatnonzero(membership[:, raised].any(axis=1))
                if raised.size
                else np.empty(0, dtype=np.int64)
            )
            self.stats.repaired_epochs += 1
        else:
            affected_rows = np.arange(source_count)
            self.stats.structural_epochs += 1

        # Invalidate the severed subtrees: close the directly hit set over
        # descendants by pointer-doubling the predecessor chains.
        hit, affected_rows, full = self._severed_closure(
            tree_matrix, previous_predecessors, raised, affected_rows,
            source_count, n, weights.size, not diff.is_structural_noop,
        )

        # Carry the previous distances, with the hit region pushed to
        # ``inf``; the published array is only copied when something
        # actually needs invalidating or repairing.
        distances = previous._distances
        owned = False
        if hit is not None:
            hit2d = hit.reshape(affected_rows.size, n)
            if full:
                invalid = hit2d
            else:
                invalid = np.zeros((source_count, n), dtype=bool)
                invalid[affected_rows] = hit2d
            distances = np.where(invalid, np.inf, distances)
            owned = True

        collected: list[tuple[np.ndarray, ...]] = []

        # Seeds, part 1 — the finite→inf boundary of the invalidated
        # region: every edge from a still-finite node into a hit node is a
        # violation by construction (finite + w < inf), so it goes in
        # unchecked with gain ``inf``.
        if hit is not None:
            self._boundary_seeds(
                graph, distances, hit2d, affected_rows, full, collected
            )

        # Seeds, part 2 — every added or delay-decreased edge, checked
        # against all rows.  No other edge can violate Bellman optimality
        # between two carried finite values (module docstring).
        improving = decreased
        if not diff.is_structural_noop and diff.links_added.size:
            improving = np.concatenate([diff.links_added, decreased])
        self._collect_seeds(
            collected, distances, weights, node_a, node_b,
            np.arange(source_count), improving,
        )

        if not collected:
            # No violated edge anywhere: predecessors are untouched, so
            # the tree-edge and membership caches stay valid for the next
            # epoch.  (An invalidated region with no finite boundary is
            # genuinely unreachable — its ``inf`` rows are final.)
            self.stats.rows_reused += source_count
            return ShortestPaths._from_arrays(
                graph, previous.sources, "dijkstra", distances,
                previous._predecessors, caches=previous._caches,
            )

        if not owned:
            distances = distances.copy()
        seed_rows = np.concatenate([c[0] for c in collected])
        seed_parents = np.concatenate([c[1] for c in collected])
        seed_children = np.concatenate([c[2] for c in collected])
        seed_edges = np.concatenate([c[3] for c in collected])
        seed_gains = np.concatenate([c[4] for c in collected])
        violated_rows = np.unique(seed_rows)
        seed_counts = np.bincount(seed_rows, minlength=source_count)
        # Largest *finite* undercut per row: a finite multi-millisecond
        # gain means a better link rewired a whole region (solver
        # territory), while ``inf`` seeds merely mark the boundary of a
        # severed subtree — a bounded re-hang the heap handles well.
        row_gain = np.zeros(source_count)
        finite_gains = np.isfinite(seed_gains)
        np.maximum.at(row_gain, seed_rows[finite_gains], seed_gains[finite_gains])

        predecessors = previous._predecessors.copy()
        # A zero threshold disables the Python heap entirely (every seeded
        # row goes straight to the kernel / solver).
        budget = (
            max(32, int(self.repair_threshold * n))
            if self.repair_threshold > 0
            else 0
        )
        if self.kernel_backend is not None:
            # With the batched kernel available the Python heap walk is
            # never the best tool — even tiny repairs batch into the one
            # kernel call more cheaply than they interpret, and skipping
            # the heap also skips materialising the adjacency lists.
            budget = 0
        solver_rows: list[int] = []
        kernel_rows: list[int] = []
        adjacency_lists: Optional[tuple[list, list, list]] = None
        for row in violated_rows.tolist():
            # With the kernel enabled (budget 0) every violated row joins
            # the batched bounded kernel call; the Python re-relaxation
            # below only serves the kernel-disabled configuration, where
            # it pays for the frequent small repairs.  Rows whose
            # violated-edge count reaches the node count are wholesale
            # rewires — a bounded traversal would sweep the whole graph
            # at Python/NumPy speed, so they go to the C solver instead
            # (as does everything when the kernel is disabled).
            if (
                seed_counts[row] > budget
                or row_gain[row] >= self.solver_handoff_gain_ms
            ):
                if self.kernel_backend is None or seed_counts[row] >= n:
                    solver_rows.append(row)
                else:
                    kernel_rows.append(row)
                continue
            if adjacency_lists is None:
                adjacency_lists = graph.adjacency_lists()
            mask = seed_rows == row
            seeds = list(zip(
                seed_parents[mask].tolist(),
                seed_children[mask].tolist(),
                seed_edges[mask].tolist(),
            ))
            repair = self._heap_repair(
                *adjacency_lists, weights, distances[row], seeds, budget
            )
            if repair is None:
                if self.kernel_backend is None:
                    solver_rows.append(row)
                else:
                    kernel_rows.append(row)
                continue
            settles, improved, new_parents = repair
            if improved:
                nodes = np.fromiter(improved.keys(), np.int64, len(improved))
                distances[row, nodes] = np.fromiter(
                    improved.values(), np.float64, len(improved)
                )
                predecessors[row, nodes] = np.fromiter(
                    (new_parents[node] for node in improved), np.int32, len(improved)
                )
            self.stats.rows_repaired += 1
            self.stats.heap_settles += settles
        if kernel_rows:
            self.stats.kernel_settles += self._kernel_resolve(
                graph, weights, distances, predecessors, kernel_rows,
                seed_rows, seed_parents, seed_children, seed_edges,
            )
            self.stats.kernel_calls += 1
            self.stats.rows_kernel += len(kernel_rows)
        if solver_rows:
            solved_distances, solved_predecessors = csgraph.dijkstra(
                graph.delay_matrix(),
                directed=False,
                indices=[previous.sources[row] for row in solver_rows],
                return_predecessors=True,
            )
            distances[solver_rows] = np.atleast_2d(solved_distances)
            predecessors[solver_rows] = np.atleast_2d(solved_predecessors)
            self.stats.solver_calls += 1
            self.stats.rows_solved += len(solver_rows)
        self.stats.rows_reused += source_count - violated_rows.size
        caches = self._patched_caches(
            graph, tree_matrix, previous._caches, previous._predecessors, predecessors
        )
        return ShortestPaths._from_arrays(
            graph, previous.sources, "dijkstra", distances, predecessors,
            caches=caches,
        )

    # -- epoch-batched multi-table path ---------------------------------

    def advance_all(
        self,
        tables: Sequence[ShortestPaths],
        graph: NetworkGraph,
        diff: TopologyDiff,
    ) -> list[ShortestPaths]:
        """Advance many tables across one epoch, sharing the fixed costs.

        Semantically ``[self.advance(t, graph, diff) for t in tables]``
        — every published table is byte-identical to the per-table
        loop, hence to a cold solve — but the diff is classified once.
        A wholesale epoch solves every compatible table in one stacked
        ``csgraph.dijkstra``; otherwise the per-epoch work (adjacency
        patch, seed gathering, closure rounds) runs once and every
        violated row of every table joins ONE stacked kernel invocation
        (see the module docstring's row-locality argument).  Tables
        incompatible with the diff fall back to :meth:`advance`
        individually, as does the whole call on a trivially reusable
        diff or a repair epoch with the kernel disabled.

        Side channel: ``self.last_advance_costs`` is rewritten with a
        list parallel to ``tables`` scoring each table's work this
        epoch (0 for pure reuse, ~1 per kernel row, ~4 per solver/cold
        row); the constellation's cost-aware table cache feeds eviction
        from it.
        """
        tables = list(tables)
        costs = [0.0] * len(tables)
        self.last_advance_costs = costs
        if not tables:
            return []

        def _fallback(index: int, table: ShortestPaths) -> ShortestPaths:
            stats = self.stats
            before = (stats.rows_solved, stats.rows_kernel, stats.rows_repaired)
            advanced = self.advance(table, graph, diff)
            costs[index] = (
                4.0 * (stats.rows_solved - before[0])
                + (stats.rows_kernel - before[1])
                + (stats.rows_repaired - before[2])
            )
            return advanced

        if diff.is_empty or (
            diff.is_structural_noop and diff.delay_changed.size == 0
        ):
            return [_fallback(i, t) for i, t in enumerate(tables)]
        results: list[Optional[ShortestPaths]] = [None] * len(tables)
        batch: list[int] = []
        for i, table in enumerate(tables):
            if self._compatible(table, graph, diff):
                batch.append(i)
            else:
                results[i] = _fallback(i, table)
        if not batch:
            return results
        weights = graph.clamped_delays_ms()
        raised, decreased = self._classify_changed(graph, diff, weights)
        batch_tables = [tables[i] for i in batch]
        if self._is_wholesale(diff, raised):
            self.stats.tables_advanced += len(batch)
            advanced = self._solve_stacked(batch_tables, graph)
            batch_costs = [4.0 * len(t.sources) for t in batch_tables]
        elif self.kernel_backend is None:
            for i in batch:
                results[i] = _fallback(i, tables[i])
            return results
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
        """Stacked-row transcription of :meth:`advance` over many tables.

        Runs the identical per-row arithmetic on the vertically stacked
        ``(total_rows, n)`` arrays (every step of :meth:`advance` is
        row-local; see the module docstring), so the published bytes
        match the per-table loop's.  Only called with the kernel
        enabled, so the routing is the budget-0 one: every violated row
        joins the stacked kernel call except wholesale-rewired rows
        (violated-edge count ≥ ``n``), which go to one batched
        ``csgraph`` call covering all tables.

        Published tables hold row-slice views of the stacked arrays —
        tables are immutable once published, so sharing is safe; note a
        slice keeps its whole stacked epoch alive, which is the
        all-pairs serving shape where every table is carried anyway.

        Stats nuance: ``repaired_epochs``/``structural_epochs`` count
        once per *batch* (the epoch classification is shared) and a
        batch contributes at most one ``kernel_calls``/``solver_calls``
        each — that is the point — while the ``rows_*`` counters
        attribute per row exactly as the per-table loop does.
        """
        stats = self.stats
        stats.tables_advanced += len(tables)
        stats.batched_calls += 1
        row_counts = np.array([len(t.sources) for t in tables], dtype=np.int64)
        row_starts = np.concatenate(([0], np.cumsum(row_counts)))
        total_rows = int(row_starts[-1])
        stats.batched_rows += total_rows
        n = len(graph.index)
        graph.carry_adjacency_from(diff)
        tree_matrix = np.vstack([t._tree_matrix_for(graph, diff) for t in tables])
        previous_predecessors = np.vstack([t._predecessors for t in tables])
        node_a, node_b = graph.node_a, graph.node_b

        if diff.is_structural_noop:
            memberships = []
            for table in tables:
                if table._caches.membership is None:
                    stats.membership_rebuilds += 1
                else:
                    stats.membership_reuses += 1
                memberships.append(table._membership_for(graph, diff))
            membership = np.vstack(memberships)
            affected_rows = (
                np.flatnonzero(membership[:, raised].any(axis=1))
                if raised.size
                else np.empty(0, dtype=np.int64)
            )
            stats.repaired_epochs += 1
        else:
            affected_rows = np.arange(total_rows)
            stats.structural_epochs += 1

        hit, affected_rows, full = self._severed_closure(
            tree_matrix, previous_predecessors, raised, affected_rows,
            total_rows, n, weights.size, not diff.is_structural_noop,
        )

        # ``vstack`` copied, so invalidation can write in place; the
        # values match :meth:`advance`'s copy-on-invalidate exactly.
        distances = np.vstack([t._distances for t in tables])
        collected: list[tuple[np.ndarray, ...]] = []
        if hit is not None:
            hit2d = hit.reshape(affected_rows.size, n)
            if full:
                distances[hit2d] = np.inf
            else:
                invalid = np.zeros((total_rows, n), dtype=bool)
                invalid[affected_rows] = hit2d
                distances[invalid] = np.inf
            self._boundary_seeds(
                graph, distances, hit2d, affected_rows, full, collected
            )
        improving = decreased
        if not diff.is_structural_noop and diff.links_added.size:
            improving = np.concatenate([diff.links_added, decreased])
        self._collect_seeds(
            collected, distances, weights, node_a, node_b,
            np.arange(total_rows), improving,
        )

        if not collected:
            stats.rows_reused += total_rows
            out = []
            for k, table in enumerate(tables):
                if hit is None:
                    out.append(table._rebind(graph))
                else:
                    out.append(ShortestPaths._from_arrays(
                        graph, table.sources, "dijkstra",
                        distances[row_starts[k]:row_starts[k + 1]],
                        table._predecessors, caches=table._caches,
                    ))
            return out, [0.0] * len(tables)

        seed_rows = np.concatenate([c[0] for c in collected])
        seed_parents = np.concatenate([c[1] for c in collected])
        seed_children = np.concatenate([c[2] for c in collected])
        seed_edges = np.concatenate([c[3] for c in collected])
        violated_rows = np.unique(seed_rows)
        seed_counts = np.bincount(seed_rows, minlength=total_rows)
        predecessors = previous_predecessors.copy()
        solver_mask = seed_counts[violated_rows] >= n
        kernel_rows = violated_rows[~solver_mask]
        solver_rows = violated_rows[solver_mask]
        if kernel_rows.size:
            stats.kernel_settles += self._kernel_resolve(
                graph, weights, distances, predecessors, kernel_rows.tolist(),
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
                graph, tree_matrix[start:stop], table._caches,
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
        resolves them.  Shared verbatim by :meth:`PathEngine.advance`
        and the batched multi-table path.
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
        affected_rows: np.ndarray,
        row_total: int,
        n: int,
        edge_count: int,
        structural: bool,
    ) -> tuple[Optional[np.ndarray], np.ndarray, bool]:
        """Close the directly hit node set over descendants.

        Directly hit nodes are those whose tree edge disappeared or was
        delay-raised; the set is closed over descendants by
        pointer-doubling the predecessor chains (a no-change round
        means every hit ancestor has been seen).  Returns ``(hit,
        affected_rows, full)``: the flat ``(len(affected_rows) * n,)``
        invalidation mask (None when no row lost anything), the rows
        narrowed to those that did, and whether that is every row.
        Row-local — each row's ancestor chains stay inside its own
        ``n``-slice of the flat index space — so stacked multi-table
        calls close every table's rows in the same gathers (extra
        rounds demanded by a slow row are no-ops for converged rows).
        """
        hit = None
        full = affected_rows.size == row_total
        if affected_rows.size:
            sub_matrix = tree_matrix if full else tree_matrix[affected_rows]
            sub_pred = predecessors if full else predecessors[affected_rows]
            raised_mask = np.zeros(edge_count, dtype=bool)
            raised_mask[raised] = True
            direct = (sub_matrix >= 0) & raised_mask[np.maximum(sub_matrix, 0)]
            if structural:
                direct |= (sub_matrix < 0) & (sub_pred >= 0)
            # Narrow to the rows that actually lost something before the
            # closure: on a localized flicker most trees never touch the
            # failed links, and the pointer-doubling gathers below cost
            # O(rows × n) per round.
            row_hit = direct.any(axis=1)
            if row_hit.any():
                if not row_hit.all():
                    affected_rows = affected_rows[row_hit]
                    direct = direct[row_hit]
                    sub_pred = sub_pred[row_hit]
                    full = affected_rows.size == row_total
                k = affected_rows.size
                hit = direct.reshape(-1)
                flat_pred = sub_pred.reshape(-1).astype(np.int64)
                index = np.arange(k * n, dtype=np.int64)
                row_base = np.repeat(np.arange(k, dtype=np.int64) * n, n)
                ancestor = np.where(flat_pred >= 0, row_base + flat_pred, index)
                count, previous_count = int(np.count_nonzero(hit)), -1
                while count != previous_count:
                    np.logical_or(hit, hit[ancestor], out=hit)
                    ancestor = ancestor[ancestor]
                    previous_count, count = count, int(np.count_nonzero(hit))
        return hit, affected_rows, full

    @staticmethod
    def _collect_seeds(
        collected: list,
        distances: np.ndarray,
        weights: np.ndarray,
        node_a: np.ndarray,
        node_b: np.ndarray,
        rows: np.ndarray,
        edge_ids: Optional[np.ndarray],
    ) -> None:
        """Append the violated directed edges among ``edge_ids`` × ``rows``."""
        if rows.size == 0 or (edge_ids is not None and edge_ids.size == 0):
            return
        ea = node_a if edge_ids is None else node_a[edge_ids]
        eb = node_b if edge_ids is None else node_b[edge_ids]
        ew = weights if edge_ids is None else weights[edge_ids]
        sub = distances if rows.size == distances.shape[0] else distances[rows]
        da = sub[:, ea]
        db = sub[:, eb]
        forward_candidate = da + ew
        reverse_candidate = db + ew
        forward = forward_candidate < db
        reverse = reverse_candidate < da
        # Fast exit for the common steady epoch: a pair of boolean
        # reductions is much cheaper than materialising index arrays.
        if not (forward.any() or reverse.any()):
            return
        f_rows, f_edges = np.nonzero(forward)
        r_rows, r_edges = np.nonzero(reverse)
        global_ids = (
            np.concatenate([f_edges, r_edges])
            if edge_ids is None
            else np.concatenate([edge_ids[f_edges], edge_ids[r_edges]])
        )
        collected.append((
            np.concatenate([rows[f_rows], rows[r_rows]]),
            np.concatenate([ea[f_edges], eb[r_edges]]),
            np.concatenate([eb[f_edges], ea[r_edges]]),
            global_ids,
            # How much the candidate undercuts the current value —
            # ``inf`` when it reconnects an unreachable node.  Used
            # only to route the row to heap repair vs the solver.
            np.concatenate([
                db[f_rows, f_edges] - forward_candidate[f_rows, f_edges],
                da[r_rows, r_edges] - reverse_candidate[r_rows, r_edges],
            ]),
        ))

    @staticmethod
    def _boundary_seeds(
        graph: NetworkGraph,
        distances: np.ndarray,
        hit2d: np.ndarray,
        affected_rows: np.ndarray,
        full: bool,
        collected: list,
    ) -> None:
        """Seed the finite→``inf`` boundary of the invalidated region."""
        indptr, adj_nodes, adj_edges = graph.adjacency_arrays()
        local_rows, hit_nodes = np.nonzero(hit2d)
        hit_rows = local_rows if full else affected_rows[local_rows]
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
                    np.full(int(np.count_nonzero(finite)), np.inf),
                ))

    def _kernel_resolve(
        self,
        graph: NetworkGraph,
        weights: np.ndarray,
        distances: np.ndarray,
        predecessors: np.ndarray,
        kernel_rows: list[int],
        seed_rows: np.ndarray,
        seed_parents: np.ndarray,
        seed_children: np.ndarray,
        seed_edges: np.ndarray,
    ) -> int:
        """Repair all handed-off rows in one batched bounded kernel call.

        The rows are compacted into a flat ``(len(kernel_rows) * n,)``
        distance/predecessor view seeded with their violated edges; the
        kernel relaxes to the cold-solve fixed point while the old
        distances bound the traversal to the affected region (see
        :mod:`repro.topology._kernels`).  Returns the settle count.
        """
        indptr, adj_nodes, _ = graph.adjacency_arrays()
        adj_weights = graph.adjacency_weights()
        n = distances.shape[1]
        rows = np.asarray(kernel_rows, dtype=np.int64)
        if rows.size == distances.shape[0]:
            # Every row was handed off (then every seed belongs to a
            # kernel row): the flat views alias the published arrays, so
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
        previous_caches: _PathCaches,
        old_predecessors: np.ndarray,
        new_predecessors: np.ndarray,
    ) -> _PathCaches:
        """Caches for the next epoch, patched where predecessors changed.

        Repairs touch a small fraction of the predecessor entries, so the
        node-indexed tree-edge matrix is point-patched instead of
        rebuilt — and when the previous epoch's edge→tree membership
        index is still valid for this structure token (delay-only
        chains), its rows are patched the same way instead of dropping
        the index and rebuilding it on the next delay diff.
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
        old_membership = previous_caches.membership
        if (
            old_membership is not None
            and previous_caches.edges_token is caches.edges_token
        ):
            membership = old_membership.copy()
            changed_rows = np.unique(rows)
            membership[changed_rows] = False
            sub = matrix[changed_rows]
            sub_rows, sub_cols = np.nonzero(sub >= 0)
            membership[changed_rows[sub_rows], sub[sub_rows, sub_cols]] = True
            caches.membership = membership
        return caches

    @staticmethod
    def _heap_repair(
        indptr: list[int],
        neighbors: list[int],
        adjacency_weights: list[float],
        weights: np.ndarray,
        dist_row: np.ndarray,
        seeds: list[tuple[int, int, int]],
        budget: int,
    ) -> Optional[tuple[int, dict[int, float], dict[int, int]]]:
        """Dijkstra-style re-relaxation restricted to the affected subtrees.

        Seeded with the violated directed edges, relaxes to the unique
        fixed point where no edge can improve — which equals the cold
        solve bit for bit (see the module docstring).  Improvements are
        tracked in a dict overlay over the (untouched) ``dist_row``, so a
        repair touching ``k`` nodes costs O(k·degree) regardless of the
        row length.  Returns ``(settles, improved, parents)``, or None
        when the touched fraction exceeded the budget (the caller then
        recomputes the row with the batched solver instead).
        """
        base = dist_row.item
        improved: dict[int, float] = {}
        parents: dict[int, int] = {}
        heap: list[tuple[float, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        get = improved.get
        for parent, child, edge in seeds:
            source_value = get(parent)
            if source_value is None:
                source_value = base(parent)
            candidate = source_value + float(weights[edge])
            current = get(child)
            if current is None:
                current = base(child)
            if candidate < current:
                improved[child] = candidate
                parents[child] = parent
                push(heap, (candidate, child))
        settles = 0
        while heap:
            distance, node = pop(heap)
            if distance > improved[node]:
                continue  # stale entry: the node improved after this push
            settles += 1
            if settles > budget:
                return None
            for position in range(indptr[node], indptr[node + 1]):
                candidate = distance + adjacency_weights[position]
                neighbor = neighbors[position]
                current = get(neighbor)
                if current is None:
                    current = base(neighbor)
                if candidate < current:
                    improved[neighbor] = candidate
                    parents[neighbor] = node
                    push(heap, (candidate, neighbor))
        return settles, improved, parents
