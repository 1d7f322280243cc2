"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is instrumented: :class:`Tracer` replaces a public
entry point (a method on its class, or a function name in the module that
imported it) with a wrapper that records a span, and puts the original back
afterwards.  A span is ``(id, name, start_ns, end_ns, parent, epoch, thread,
size)``; spans stay in memory until the run writes them out.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`), so nested layers are never
counted twice and children that ran in parallel on pool threads are not
subtracted more than once.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: Span record layout (a plain list, mutated in place when the span ends).
ID, NAME, START, END, PARENT, EPOCH, THREAD, SIZE = range(8)

#: Threads that run work *on behalf of* the blocked driver thread (the thread
#: backend's fan-out pool): their root spans adopt the driver's open span as
#: parent.  Every other thread (the gateway's event loop) starts its own tree.
ADOPTED_THREAD_PREFIXES = ("celestial-fanout",)


class Tracer:
    """Records spans around patched entry points; one instance per process."""

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns):
        self.clock = clock
        self.spans: list[list] = []
        #: Operation the driver is currently running; stamped on every span.
        self.epoch = -1
        self.enabled = True
        #: ``name -> [calls, total_ns]`` for entry points too hot for spans.
        self.totals: dict[str, list[int]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        # Forked dist workers inherit the patched classes; worker internals
        # are out of scope, so a child must not pay for (or hoard) spans.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[list]) -> list:
        if stack:
            parent = stack[-1][ID]
        elif self._main_stack and threading.current_thread().name.startswith(
            ADOPTED_THREAD_PREFIXES
        ):
            parent = self._main_stack[-1][ID]
        else:
            parent = None
        span = [
            next(self._ids), name, self.clock(), 0, parent, self.epoch,
            threading.current_thread().name, 0,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def begin(self, name: str) -> None:
        """Open a span on the calling thread; :meth:`end` closes it."""
        if self.enabled:
            self._open(name, self._stack())

    def end(self) -> None:
        if self.enabled:
            self._stack().pop()[END] = self.clock()

    def wrap(
        self,
        name: str,
        function: Callable,
        main_only: bool = False,
        sized: bool = False,
    ) -> Callable:
        """A wrapper recording one span named ``name`` per call.

        ``main_only`` skips the span off the driver thread, so that the time
        stays in the enclosing span there.  ``sized`` stores ``len(result)``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            if main_only and threading.get_ident() != tracer._main:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = tracer._open(name, stack)
            try:
                result = function(*args, **kwargs)
                if sized:
                    span[SIZE] = len(result)
                return result
            finally:
                span[END] = tracer.clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def accumulate(self, name: str, function: Callable) -> Callable:
        """A wrapper adding call count and duration to ``totals[name]``."""
        total = self.totals.setdefault(name, [0, 0])
        clock = self.clock

        def counted(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += clock() - started

        counted.__wrapped__ = function
        return counted

    # -- patching ----------------------------------------------------------

    def _replace(self, owner: object, attribute: str, make: Callable) -> None:
        """Swap ``owner.attribute`` for ``make(original)``, keeping its kind."""
        raw = vars(owner)[attribute]
        self._patches.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attribute, replacement)

    def patch(self, owner: object, attribute: str, name: str, **options) -> None:
        """Record a span named ``name`` around ``owner.attribute``.

        ``owner`` is a class (methods) or a module — for a function that was
        imported by name, the *consuming* module, whose global is rebound.
        """
        self._replace(
            owner, attribute, lambda function: self.wrap(name, function, **options)
        )

    def patch_total(self, owner: object, attribute: str, name: str) -> None:
        """Accumulate calls/duration of ``owner.attribute`` without spans."""
        self._replace(
            owner, attribute, lambda function: self.accumulate(name, function)
        )

    def unpatch(self) -> None:
        """Put every patched attribute back (in reverse order)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def take(self) -> tuple[list[list], dict[str, list[int]]]:
        """Hand over and reset the recorded spans and totals."""
        spans, self.spans = self.spans, []
        totals = {name: list(value) for name, value in self.totals.items()}
        for value in self.totals.values():
            value[0] = value[1] = 0
        return spans, totals


# -- reduction -------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: list[list]) -> list[int]:
    """Self time [ns] of each span, in the order given."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    ]


def on_driver_thread(span: list) -> bool:
    """Whether a span ran on the driver thread or a pool thread working for it."""
    return span[THREAD] == "MainThread" or span[THREAD].startswith(ADOPTED_THREAD_PREFIXES)


def layer_series(
    spans: list[list], operations: int, keep=None
) -> dict[str, dict[str, list[int]]]:
    """Per span name, per operation: summed self ns, inclusive ns, calls, sizes.

    Spans stamped with an epoch outside ``1 … operations`` (set-up, warm-up)
    are left out, as are those ``keep`` rejects (self times are computed over
    all spans first).
    """
    series: dict[str, dict[str, list[int]]] = {}
    for span, own in zip(spans, self_times(spans)):
        slot = span[EPOCH] - 1
        if not 0 <= slot < operations or (keep is not None and not keep(span)):
            continue
        layer = series.get(span[NAME])
        if layer is None:
            layer = series[span[NAME]] = {
                key: [0] * operations for key in ("self", "inclusive", "calls", "size")
            }
        layer["self"][slot] += own
        layer["inclusive"][slot] += span[END] - span[START]
        layer["calls"][slot] += 1
        layer["size"][slot] += span[SIZE]
    return series


def spans_named(spans: list[list], name: str, epoch: int) -> list[list]:
    """The spans called ``name`` that were stamped with ``epoch``."""
    return [s for s in spans if s[NAME] == name and s[EPOCH] == epoch]


# -- the entry points the benchmark wraps ------------------------------------------


def install_driver(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the driver process runs."""
    from repro.core import constellation, coordinator, database, machine_manager
    from repro.dist import backend, wire
    from repro.net.network import VirtualNetwork
    from repro.orbits.shells import Shell
    from repro.serve import codec, gateway
    from repro.sim.engine import Simulation
    from repro.topology.graph import NetworkGraph
    from repro.topology.paths import PathEngine

    patch = tracer.patch
    patch(Shell, "positions_eci", "orbits.propagate")
    # constellation.py imported these by name, so its globals are rebound.
    patch(constellation, "eci_to_ecef", "orbits.propagate")
    for function in (
        "isl_closest_approach_km",
        "elevation_angle_deg",
        "elevation_angle_matrix_deg",
        "slant_range_km",
        "visible_satellites_batch",
    ):
        patch(constellation, function, "orbits.visibility")
    patch(constellation.ConstellationCalculation, "diff_since", "constellation.diff_since")
    patch(constellation.ConstellationCalculation, "state_at", "constellation.state_at")
    patch(constellation.ConstellationState, "path", "paths.query")
    patch(NetworkGraph, "from_edge_arrays", "graph.build")
    patch(NetworkGraph, "diff_from", "graph.diff")
    patch(PathEngine, "advance_all", "paths.advance")
    patch(PathEngine, "solve", "paths.advance")
    patch(database.ConstellationDatabase, "set_state", "database.set_state")
    patch(coordinator.Coordinator, "update", "coordinator.update")
    patch(coordinator.Coordinator, "sample_all_usage", "coordinator.sample")
    for cls in (backend.ThreadFanoutBackend, backend.ProcessFanoutBackend):
        patch(cls, "apply_slices", "fanout.apply")
        patch(cls, "apply_full_state", "fanout.apply")
        patch(cls, "sample_all", "fanout.sample")
    patch(machine_manager.MachineManager, "apply_diff", "manager.apply")
    patch(machine_manager.MachineManager, "apply_state", "manager.apply")
    patch(machine_manager.MachineManager, "sample_usage", "manager.sample")
    patch(machine_manager.MachineManager, "advance_sample_stream", "manager.sample")
    # The dist path's frames only: the gateway thread's encodes and decodes
    # stay inside codec.encode / gateway.publish.
    patch(wire, "slice_payload", "wire.encode", main_only=True)
    patch(wire, "encode_frame", "wire.encode", main_only=True, sized=True)
    patch(wire, "decode_frame", "wire.decode", main_only=True)
    patch(codec.EpochUpdateCodec, "diff_update", "codec.encode")
    patch(codec.EpochUpdateCodec, "keyframe_update", "codec.encode")
    # Runs on the gateway's loop thread.  The listener that hands an epoch to
    # that loop is bracketed by the rig's own listeners ("gateway.notify"),
    # so database.set_state's self time excludes it.
    patch(gateway.StreamGateway, "publish", "gateway.publish")
    patch(Simulation, "run", "sim.run")
    patch(VirtualNetwork, "apply_diff", "net.apply_diff")
    tracer.patch_total(VirtualNetwork, "send", "net.send")


def install_sink(tracer: Tracer) -> None:
    """Wrap the subscriber-side entry points the sink process runs."""
    from repro.dist import wire
    from repro.dist.transport import SocketTransport
    from repro.serve.client import SubscriptionClient
    from repro.serve.codec import EpochReplica

    tracer.patch(SocketTransport, "recv_bytes", "client.recv", sized=True)
    tracer.patch(wire, "decode_frame", "client.decode")
    tracer.patch(EpochReplica, "apply", "replica.apply")
    tracer.patch(SubscriptionClient, "query", "client.query")
