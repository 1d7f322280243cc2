"""Core discrete-event simulation engine.

The engine follows the familiar process-based simulation model: a
:class:`Simulation` owns a priority queue of scheduled events and the current
simulated time.  A :class:`Process` wraps a Python generator; every value the
generator yields must be an :class:`Event`, and the process resumes when that
event is triggered.  The engine is deterministic: events scheduled for the
same time are processed in scheduling order.

Timers beside processes
-----------------------

Work that only has to happen *at* a time — nothing waits on it, nothing
interrupts it — does not need a process: :meth:`Simulation.call_at` puts a
bare callback on the same queue as the events, ordered by the same
``(time, priority, sequence)`` key, with the sequence number taken at the
call.  A timer scheduled before an event for the same instant therefore
fires before it, and the other way round.  A generator process costs three
queue entries for one wake-up (its start, the timeout it yields, its own
completion); a timer costs one, which is why the virtual network delivers
messages with timers.

:attr:`Simulation.processed_events` counts queue entries popped — events
and timers alike, one per :meth:`Simulation.step`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for illegal simulation operations (e.g. negative delays)."""


class Interrupt(Exception):
    """Thrown into a process when it is interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A condition that may be triggered once, resuming waiting processes."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.processed = False
        self.ok: Optional[bool] = None
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        self.sim._schedule(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.sim._schedule(self, 0.0)
        return self


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self.ok = True
        self.value = value
        sim._schedule(self, delay)


class Process(Event):
    """An event that wraps a running generator-based process.

    The process triggers (as an event) when its generator returns; the return
    value of the generator becomes the event value.
    """

    def __init__(self, sim: "Simulation", generator: Generator):
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: Incremented whenever the wait target is superseded (interrupt).
        #: Every wait registration carries the epoch at registration time, so
        #: a stale resume is dropped even when it can no longer be
        #: deregistered (already queued, or already snapshotted by ``step``).
        self._wait_epoch = 0
        self._wait_callback: Optional[Callable[[Event], None]] = None
        init = Event(sim)
        init.succeed()
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """Whether the process generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it.

        The event the process was waiting on no longer resumes it: its
        resume callback is deregistered, and the wait epoch is bumped so
        that a resume that can no longer be deregistered (already queued as
        a proxy, or already snapshotted by a running ``step``) is dropped
        instead of resuming the generator at the wrong simulated instant.
        """
        if self.triggered:
            return
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._wait_callback)
            except ValueError:
                pass
            self._waiting_on = None
            self._wait_callback = None
        self._wait_epoch += 1
        interrupt_event = Event(self.sim)
        interrupt_event.triggered = True
        interrupt_event.ok = False
        interrupt_event.value = Interrupt(cause)
        interrupt_event._delivers_interrupt = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, 0.0)

    def _resume_guarded(self, event: Event, epoch: int) -> None:
        # A proxy resume scheduled before an interrupt superseded the wait
        # must not resume the generator at the wrong instant.
        if epoch != self._wait_epoch:
            return
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        if getattr(event, "_delivers_interrupt", False):
            # An interrupt may be popped after the process has re-waited on a
            # different event (e.g. it was scheduled before the process first
            # ran, or a second interrupt in the same timestep): it must still
            # be delivered.  Detach from whatever the process waits on now so
            # the stale wait cannot resume it a second time, and invalidate
            # any resume that is already in flight.
            if self._waiting_on is not None:
                try:
                    self._waiting_on.callbacks.remove(self._wait_callback)
                except ValueError:
                    pass
            self._wait_epoch += 1
        elif self._waiting_on is not None and event is not self._waiting_on:
            # Superseded: the process has since been pointed at another event.
            return
        self._waiting_on = None
        self._wait_callback = None
        self.sim._active_process = self
        try:
            if event.ok:
                target = self._generator.send(event.value)
            else:
                target = self._generator.throw(event.value)
        except StopIteration as stop:
            self.sim._active_process = None
            if not self.triggered:
                self.succeed(stop.value)
            return
        except Interrupt:
            self.sim._active_process = None
            if not self.triggered:
                self.succeed(None)
            return
        self.sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}, which is not an Event"
            )
        epoch = self._wait_epoch
        callback = lambda event, _epoch=epoch: self._resume_guarded(event, _epoch)
        if target.processed:
            # The event already fired and its callbacks ran; resume through a
            # fresh immediate event so queue ordering stays deterministic.
            # The proxy sits in the queue and cannot be deregistered, so the
            # epoch carried by the callback is what invalidates it if an
            # interrupt supersedes the wait first.
            resume = Event(self.sim)
            resume.triggered = True
            resume.ok = target.ok
            resume.value = target.value
            resume.callbacks.append(callback)
            self.sim._schedule(resume, 0.0)
        else:
            # The epoch guard also covers the case where the wait target is
            # being processed right now: step() has already snapshotted its
            # callback list, so deregistration alone could not stop a resume
            # that an interrupt (fired from an earlier callback of the same
            # event) has superseded.
            self._waiting_on = target
            self._wait_callback = callback
            target.callbacks.append(callback)


class _Condition(Event):
    """Base for composite events over a set of child events."""

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._child_done(event)
            else:
                event.callbacks.append(self._child_done)

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

    def _values(self) -> dict:
        return {
            index: event.value
            for index, event in enumerate(self.events)
            if event.processed
        }


class AllOf(_Condition):
    """Triggers when all child events have triggered."""

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok is False:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values())


class AnyOf(_Condition):
    """Triggers when at least one child event has triggered."""

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok is False:
            self.fail(event.value)
            return
        self.succeed(self._values())


class Simulation:
    """Deterministic discrete-event simulation loop."""

    def __init__(self):
        self.now: float = 0.0
        #: ``(time, priority, sequence, entry)``; an entry is an
        #: :class:`Event` or the bare callback of a :meth:`call_at` timer.
        self._queue: list[tuple[float, int, int, Event | Callable[[], None]]] = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._processed_events = 0

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

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register a generator as a simulation process and start it."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering once every given event has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering once any given event has triggered."""
        return AnyOf(self, events)

    # -- execution --------------------------------------------------------

    @property
    def processed_events(self) -> int:
        """Queue entries (events and timers) processed so far."""
        return self._processed_events

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one queue entry: an event or a timer."""
        if not self._queue:
            raise SimulationError("no more events to process")
        time, _, _, entry = heapq.heappop(self._queue)
        if time < self.now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self.now = max(self.now, time)
        self._processed_events += 1
        if not isinstance(entry, Event):
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
