"""Inboxes for simulation processes: an unbounded FIFO store."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Event, Simulation


class Store:
    """An unbounded FIFO queue that simulation processes wait on.

    ``put`` is immediate and schedules nothing: the item goes to the oldest
    waiting getter (whose event is then scheduled) or joins the queue.
    ``get`` returns an event that triggers with the next item as soon as one
    is available.  A store never holds items and waiting getters at once.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Request an item; the returned event triggers with the item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
