"""Celestial: virtual software system testbeds for the LEO edge.

A from-scratch Python reproduction of *Celestial* (Pfandzelter & Bermbach,
Middleware 2022): an emulation testbed for LEO edge computing in which a
coordinator computes satellite constellation state (SGP4/Kepler propagation,
+GRID ISLs, ground-station uplinks, shortest paths) and hosts emulate
satellite/ground-station servers as microVMs whose traffic is shaped per
machine pair (end-to-end delay, token-bucket bandwidth, loss, blocked when
unreachable), with bounding-box suspension, DNS, an HTTP info API and fault
injection.
A host is placement (least reserved memory) plus CPU/memory accounting;
the default fan-out to the hosts' managers is a loop, and worker processes
(``parallelism="processes"``) exist to exercise the remote-worker protocol.

Quickstart::

    from repro import Celestial, Configuration
    from repro.scenarios import west_africa_configuration

    config = west_africa_configuration(duration_s=60.0)
    with Celestial(config) as testbed:  # closing stops the processes it forked
        testbed.run(until=10.0)
        print(testbed.state.rtt_ms(testbed.ground_station("accra"),
                                   testbed.ground_station("abuja")))
"""

from repro.core import (
    BoundingBox,
    Celestial,
    ComputeParams,
    Configuration,
    ConfigurationError,
    ConstellationCalculation,
    GroundStationConfig,
    HostConfig,
    MachineId,
    NetworkParams,
    ShellConfig,
    estimate_resources,
    validate_configuration,
)
from repro.orbits import Epoch, GroundStation, ShellGeometry

__version__ = "1.0.0"

__all__ = [
    "BoundingBox",
    "Celestial",
    "ComputeParams",
    "Configuration",
    "ConfigurationError",
    "ConstellationCalculation",
    "Epoch",
    "GroundStation",
    "GroundStationConfig",
    "HostConfig",
    "MachineId",
    "NetworkParams",
    "ShellConfig",
    "ShellGeometry",
    "estimate_resources",
    "validate_configuration",
    "__version__",
]
