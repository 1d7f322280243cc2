"""Batched multi-source bounded Dijkstra kernels for the path engine.

The incremental :class:`~repro.topology.paths.PathEngine` repairs a
shortest-path table by carrying the previous distances forward,
invalidating the severed subtrees to ``inf`` and seeding the violated
edges (the finite→``inf`` boundary plus added/decreased links).  This
module is the **bounded regional re-solve** that finishes the repair:
all violated rows are repaired in one batched call that only ever
touches the affected region, so a churn epoch (handovers, ISL flicker)
costs region-sized work instead of a cold ``csgraph.dijkstra`` row per
source.

Algorithm
---------

Inputs are the CSR adjacency of the epoch graph (``indptr``,
``adj_nodes``, ``adj_weights`` — weights pre-gathered into adjacency
order), the carried distance rows flattened to one ``(rows * n,)``
array, the matching flat predecessor array, and the violated directed
edges found by the engine's verification pass (``parent → child`` with
the edge weight), expressed in flat node coordinates ``row * n + node``.

Conceptually the kernel runs Dijkstra from a *virtual source* connected
to every seed child at its candidate distance ``dist[parent] + w``, over
the disjoint union of one graph copy per affected row.  Two properties
bound the work:

* **Upper-bound pruning** — every entry of the carried ``dist`` array
  is a valid upper bound (it is the float sum of an existing path, or
  ``+inf`` where the old path died), so a relaxation is only accepted
  when it *strictly improves* the current value.  Nodes whose old
  distance already beats every candidate path from the seeds are never
  touched; the traversal therefore stays inside the re-hung region
  instead of sweeping all ``rows × n`` states.
* **Batching** — flat ``row * n + node`` indexing makes the per-row
  subproblems independent cells of one array, so a single call (one heap,
  or one frontier sweep) repairs every violated row of the call.

Correctness / parity contract
-----------------------------

The kernel's distances are **byte-identical** to a cold
``csgraph.dijkstra`` solve, by the same monotone-IEEE-754 argument as the
engine's repair path (see the ``paths.py`` module docstring): every value
written is the left-to-right float sum of the hop weights along an actual
path, IEEE-754 addition is monotone, and the relaxation runs until no
edge can improve any value.  A state where ``dist[child] <=
dist[parent] + w`` holds for every edge and every finite entry is a path
sum is the *unique* fixed point — the minimum over all paths of the float
path sum — regardless of the order in which relaxations were applied.
Seeding with exactly the violated edges suffices to reach it: if some
node ended above its true distance, walking its true shortest path from
the source gives a first edge whose relaxation would still improve it;
that edge was either violated at seed time (and therefore seeded) or
became violated when its tail improved (and its tail's settlement
relaxed it) — a contradiction either way.

Because relaxation *order* is free, the module ships three
interchangeable implementations behind :func:`bounded_regional_resolve`:

* ``"numba"`` — :func:`_resolve_heap` compiled with
  ``numba.njit(cache=True)``: a flat-array binary heap (two parallel
  ``float64``/``int64`` arrays with inline sift-up/sift-down and lazy
  deletion), classic Dijkstra order.  Available with the ``[fast]``
  extra; the import is guarded so the package works without it.
* ``"numpy"`` — :func:`_resolve_frontier`: a vectorised label-correcting
  sweep.  Each round expands the whole improvement frontier with array
  gathers (``np.repeat`` over CSR degree counts) and commits the round's
  best candidates with ``np.minimum.at``.  Rounds are bounded by the hop
  radius of the affected region, so churn epochs cost a few dozen
  NumPy calls instead of a Python-level loop per settled node.  This is
  the default when Numba is absent.
* ``"python"`` — the *same source* as the Numba leg, interpreted.  Kept
  as the reference implementation the property tests compare against on
  small graphs (and the body Numba compiles, so the compiled leg cannot
  drift from it).

All three reach the same fixed point, hence identical distance bytes.
Predecessors may differ between implementations only where two parents
offer bitwise-equal candidate distances (first writer wins, and the
write order is implementation-defined); reconstructed paths always exist
and re-sum exactly to the reported distance, which is the engine-wide
predecessor contract.

Stacked multi-table rows
------------------------

Nothing in the flat ``row * n + node`` indexing requires the rows to
belong to one table: a seed's parent and child share a row by
construction, every adjacency expansion stays inside ``row * n ..
(row + 1) * n``, and no relaxation ever reads another row's state.  The
engine's epoch-batched :meth:`~repro.topology.paths.PathEngine.
advance_all` exploits exactly this — it stacks the violated rows of
*every* carried table into one kernel invocation whose row axis spans
tables.  The byte-identity argument survives stacking unchanged: each
row relaxes to its own unique fixed point regardless of which other
rows share the call, so a stacked invocation equals the per-table
invocations bit for bit in distances (all three backends).  Within a
row even the relaxation *order* is preserved — heap comparisons break
distance ties on the flat index, whose per-row offsets are unaffected
by the stacking base, and the frontier sweep's sorted commits keep
per-row relative order — so predecessor bytes match the per-table call
too; against a *cold* solve they may still differ at exact ties, as
above.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only when the [fast] extra is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default environment
    numba = None
    HAVE_NUMBA = False


def _resolve_heap(
    indptr: np.ndarray,
    adj_nodes: np.ndarray,
    adj_weights: np.ndarray,
    n: int,
    dist: np.ndarray,
    pred: np.ndarray,
    seed_parent_flat: np.ndarray,
    seed_child_flat: np.ndarray,
    seed_weight: np.ndarray,
) -> int:
    """Flat-array binary-heap bounded Dijkstra (Numba-compilable body).

    ``dist`` (float64) and ``pred`` (int32) are flat ``rows * n`` arrays,
    mutated in place; ``pred`` stores parent *node* ids (0..n-1).
    Returns the number of settled heap entries.
    """
    capacity = 64 + 2 * seed_child_flat.size
    heap_dist = np.empty(capacity, np.float64)
    heap_node = np.empty(capacity, np.int64)
    size = 0
    # Seed: apply the violated edges in order; duplicates targeting the
    # same child keep the strictly-best value (first writer on ties).
    for i in range(seed_child_flat.size):
        parent = seed_parent_flat[i]
        child = seed_child_flat[i]
        candidate = dist[parent] + seed_weight[i]
        if candidate < dist[child]:
            dist[child] = candidate
            pred[child] = parent - (parent // n) * n
            if size == capacity:
                capacity *= 2
                new_dist = np.empty(capacity, np.float64)
                new_node = np.empty(capacity, np.int64)
                new_dist[:size] = heap_dist[:size]
                new_node[:size] = heap_node[:size]
                heap_dist = new_dist
                heap_node = new_node
            # sift up
            pos = size
            size += 1
            while pos > 0:
                up = (pos - 1) // 2
                if heap_dist[up] <= candidate:
                    break
                heap_dist[pos] = heap_dist[up]
                heap_node[pos] = heap_node[up]
                pos = up
            heap_dist[pos] = candidate
            heap_node[pos] = child
    settles = 0
    while size > 0:
        top_dist = heap_dist[0]
        top_node = heap_node[0]
        # pop: move the last leaf to the root and sift down
        size -= 1
        last_dist = heap_dist[size]
        last_node = heap_node[size]
        pos = 0
        while True:
            left = 2 * pos + 1
            if left >= size:
                break
            right = left + 1
            child_pos = left
            if right < size and heap_dist[right] < heap_dist[left]:
                child_pos = right
            if heap_dist[child_pos] >= last_dist:
                break
            heap_dist[pos] = heap_dist[child_pos]
            heap_node[pos] = heap_node[child_pos]
            pos = child_pos
        heap_dist[pos] = last_dist
        heap_node[pos] = last_node
        if top_dist > dist[top_node]:
            continue  # lazy deletion: the node improved after this push
        settles += 1
        base = top_node - top_node % n
        node = top_node - base
        for position in range(indptr[node], indptr[node + 1]):
            candidate = top_dist + adj_weights[position]
            neighbor = base + adj_nodes[position]
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                pred[neighbor] = node
                if size == capacity:
                    capacity *= 2
                    new_dist = np.empty(capacity, np.float64)
                    new_node = np.empty(capacity, np.int64)
                    new_dist[:size] = heap_dist[:size]
                    new_node[:size] = heap_node[:size]
                    heap_dist = new_dist
                    heap_node = new_node
                pos = size
                size += 1
                while pos > 0:
                    up = (pos - 1) // 2
                    if heap_dist[up] <= candidate:
                        break
                    heap_dist[pos] = heap_dist[up]
                    heap_node[pos] = heap_node[up]
                    pos = up
                heap_dist[pos] = candidate
                heap_node[pos] = neighbor
    return settles


def _resolve_frontier(
    indptr: np.ndarray,
    adj_nodes: np.ndarray,
    adj_weights: np.ndarray,
    n: int,
    dist: np.ndarray,
    pred: np.ndarray,
    seed_parent_flat: np.ndarray,
    seed_child_flat: np.ndarray,
    seed_weight: np.ndarray,
) -> int:
    """Vectorised frontier label-correcting bounded re-solve (pure NumPy).

    Same in/out contract as :func:`_resolve_heap`; relaxation order is
    breadth-of-frontier instead of heap order, which reaches the same
    fixed point (see the module docstring).  Returns the total number of
    frontier slots processed (the settle-count analogue).
    """
    # Deduplicating a round's improved children via a reusable boolean
    # scratch over the flat state space is one C scan per round, an order
    # of magnitude cheaper than the ``np.unique`` argsort it replaces.
    # Predecessor writes use duplicate-index fancy assignment: the last
    # writer wins, and every writer passed the ``winners`` filter, so all
    # of them offer the bitwise-minimal candidate (the pred contract
    # allows any such parent).
    scratch = np.zeros(dist.size, np.bool_)
    indptr_tail = indptr[1:]

    # Seed round: commit the best candidate per child, remember winners.
    candidates = dist[seed_parent_flat] + seed_weight
    improved = np.flatnonzero(candidates < dist[seed_child_flat])
    frontier = np.empty(0, np.int64)
    if improved.size:
        children = seed_child_flat[improved]
        candidates = candidates[improved]
        parents = seed_parent_flat[improved]
        np.minimum.at(dist, children, candidates)
        winners = candidates == dist[children]
        won = children[winners]
        pred[won] = (parents[winners] % n).astype(pred.dtype)
        scratch[won] = True
        frontier = np.flatnonzero(scratch)
        scratch[frontier] = False
    settles = 0
    while frontier.size:
        settles += frontier.size
        nodes = frontier % n
        starts = indptr[nodes]
        counts = indptr_tail[nodes] - starts
        total = int(counts.sum())
        if total == 0:
            break
        positions = (
            np.repeat(starts - (np.cumsum(counts) - counts), counts)
            + np.arange(total)
        )
        targets = np.repeat(frontier - nodes, counts) + adj_nodes[positions]
        candidates = np.repeat(dist[frontier], counts) + adj_weights[positions]
        improved = np.flatnonzero(candidates < dist[targets])
        if improved.size == 0:
            break
        targets = targets[improved]
        candidates = candidates[improved]
        np.minimum.at(dist, targets, candidates)
        winners = candidates == dist[targets]
        won = targets[winners]
        pred[won] = np.repeat(nodes, counts)[improved[winners]].astype(pred.dtype)
        scratch[won] = True
        frontier = np.flatnonzero(scratch)
        scratch[frontier] = False
    return settles


_numba_resolve = None
if HAVE_NUMBA:  # pragma: no cover - exercised only with the [fast] extra
    _numba_resolve = numba.njit(cache=True)(_resolve_heap)

#: Available kernel backends, best first.  ``"numba"`` appears only when
#: the optional dependency is installed.
KERNEL_BACKENDS: tuple[str, ...] = (
    ("numba", "numpy", "python") if HAVE_NUMBA else ("numpy", "python")
)

#: Backend picked by ``backend="auto"``.
DEFAULT_BACKEND: str = KERNEL_BACKENDS[0]


def resolve_backend(backend: str) -> str:
    """Normalise a backend request (``"auto"`` → the best available)."""
    if backend == "auto":
        return DEFAULT_BACKEND
    if backend not in KERNEL_BACKENDS:
        available = ", ".join(KERNEL_BACKENDS)
        raise ValueError(
            f"unknown kernel backend {backend!r} (available: {available}, auto)"
        )
    return backend


def bounded_regional_resolve(
    indptr: np.ndarray,
    adj_nodes: np.ndarray,
    adj_weights: np.ndarray,
    n: int,
    dist: np.ndarray,
    pred: np.ndarray,
    seed_parent_flat: np.ndarray,
    seed_child_flat: np.ndarray,
    seed_weight: np.ndarray,
    backend: str = "auto",
) -> int:
    """Batched bounded re-solve of the flat rows in ``dist``/``pred``.

    Dispatches to the requested backend (see the module docstring for the
    parity contract) and returns its settle count.  ``dist`` and ``pred``
    are mutated in place.
    """
    backend = resolve_backend(backend)
    if backend == "numba":
        return int(
            _numba_resolve(
                indptr.astype(np.int64, copy=False),
                adj_nodes.astype(np.int64, copy=False),
                adj_weights,
                n,
                dist,
                pred,
                seed_parent_flat,
                seed_child_flat,
                seed_weight,
            )
        )
    if backend == "numpy":
        return _resolve_frontier(
            indptr, adj_nodes, adj_weights, n, dist, pred,
            seed_parent_flat, seed_child_flat, seed_weight,
        )
    return _resolve_heap(
        indptr, adj_nodes, adj_weights, n, dist, pred,
        seed_parent_flat, seed_child_flat, seed_weight,
    )
