"""Discrete-event simulation engine used by the Celestial testbed substrate.

The real Celestial testbed runs on wall-clock time on cloud hosts.  This
reproduction replaces wall-clock execution with a deterministic discrete-event
simulation so that experiments are repeatable and run offline.  The engine is
sized to its callers: an event queue, timers, generator-based processes that
wait on a timeout or an inbox, and unbounded FIFO inboxes.
"""

from repro.sim.engine import Event, Simulation
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "RandomStreams",
    "Simulation",
    "Store",
]
