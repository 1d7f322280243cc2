"""Core discrete-event simulation engine.

The engine follows the familiar process-based simulation model: a
:class:`Simulation` owns a priority queue of scheduled events and the current
simulated time.  A :class:`Process` drives a Python generator; every value
the generator yields must be an :class:`Event` — in practice a
:class:`Timeout` or the event of an inbox :meth:`~repro.sim.Store.get` — and
the process resumes with the event's value when that event is processed.
The engine is deterministic: events scheduled for the same time are
processed in scheduling order.

Timers beside processes
-----------------------

Work that only has to happen *at* a time — nothing waits on it — does not
need a process: :meth:`Simulation.call_at` puts a bare callback on the same
queue as the events, ordered by the same ``(time, priority, sequence)`` key,
with the sequence number taken at the call.  A timer scheduled before an
event for the same instant therefore fires before it, and the other way
round.  A generator process costs one queue entry to start and one per
wake-up (the timeout or inbox event it yields); a timer costs one, which is
why the virtual network delivers messages with timers.  A delivered message
is two entries: the timer, and the receiver's wake-up — the inbox event that
the timer's :meth:`~repro.sim.Store.put` triggers (the put itself schedules
nothing).

:attr:`Simulation.processed_events` counts queue entries popped — events
and timers alike, one per :meth:`Simulation.step`.
Events are ``__slots__`` objects, and a step tells a timer from an event by
its exact type, with no ``isinstance``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for illegal simulation operations (e.g. negative delays)."""


class Event:
    """A condition that may be triggered once, resuming waiting processes.

    The queue tells an event from a timer by its exact type, so the only
    events are an ``Event`` and a :class:`Timeout`: subclass neither.
    """

    __slots__ = ("sim", "callbacks", "triggered", "processed", "value")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.processed = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with an optional value."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self.triggered = True
        self.value = value
        self.sim._schedule(self, 0.0)
        return self


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.triggered = True
        self.value = value
        sim._schedule(self, delay)


class Process:
    """Drives a generator: each event it yields resumes it with its value."""

    def __init__(self, sim: "Simulation", generator: Generator):
        self.sim = sim
        self._generator = generator
        Event(sim).succeed().callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration:
            return
        kind = type(target)
        if kind is not Event and kind is not Timeout:
            raise SimulationError(
                f"process yielded {target!r}, which is not an Event"
            )
        if target.processed:
            # The event already fired and its callbacks ran; resume through a
            # fresh immediate event so queue ordering stays deterministic.
            target = Event(self.sim).succeed(target.value)
        target.callbacks.append(self._resume)


class Simulation:
    """Deterministic discrete-event simulation loop."""

    def __init__(self):
        self.now: float = 0.0
        #: ``(time, priority, sequence, entry)``; an entry is an
        #: :class:`Event` or the bare callback of a :meth:`call_at` timer.
        self._queue: list[tuple[float, int, int, Event | Callable[[], None]]] = []
        self._sequence = 0
        #: Queue entries (events and timers) processed so far.
        self.processed_events = 0

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past: {delay}")
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, 0, self._sequence, event))

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Call ``callback()`` when simulated time reaches ``time``.

        The timer is one queue entry: no event, no waiters, no way to cancel
        it.  Among entries for the same time it keeps its scheduling order
        (the sequence number is taken here, at the call); an exception the
        callback raises propagates out of :meth:`step`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule a timer in the past: {time} < {self.now}"
            )
        self._sequence += 1
        heapq.heappush(self._queue, (time, 0, self._sequence, callback))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register a generator as a simulation process and start it."""
        return Process(self, generator)

    def clear(self) -> None:
        """Drop every pending entry (each event holds the simulation)."""
        self._queue.clear()

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queue entry: an event or a timer."""
        if not self._queue:
            raise SimulationError("no more events to process")
        time, _, _, entry = heapq.heappop(self._queue)
        if time > self.now:
            self.now = time
        elif time < self.now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self.processed_events += 1
        kind = type(entry)
        if kind is not Event and kind is not Timeout:
            entry()
            return
        entry.processed = True
        callbacks, entry.callbacks = entry.callbacks, []
        for callback in callbacks:
            callback(entry)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, already at {self.now}"
            )
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = until
