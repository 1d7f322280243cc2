"""Discrete-event simulation engine used by the Celestial testbed substrate.

The real Celestial testbed runs on wall-clock time on cloud hosts.  This
reproduction replaces wall-clock execution with a deterministic discrete-event
simulation so that experiments are repeatable and run offline.  The engine is
deliberately small (SimPy-like): generator-based processes, an event queue,
timeouts, stores and resources.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulation,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulation",
    "SimulationError",
    "Store",
    "Timeout",
]
