"""Celestial core: the paper's primary contribution.

This package contains the components shown in Fig. 2 of the paper:

* the **configuration file** model and **validator** (resource estimation),
* the **Constellation Calculation** (positions, topology, shortest paths),
* the central **database** and per-host **HTTP info API** / **DNS server**
  (A records),
* the **Machine Manager** that boots/suspends microVMs and installs network
  rules on each host,
* **fault injection**, the optional **animation** exporter, and
* the **Coordinator** plus the high-level :class:`Celestial` testbed façade.
"""

from repro.core.config import (
    ComputeParams,
    Configuration,
    ConfigurationError,
    GroundStationConfig,
    HostConfig,
    NetworkParams,
    ShellConfig,
)
from repro.core.bounding_box import BoundingBox
from repro.core.addressing import machine_ip, network_for
from repro.core.dns import CelestialDNS, DNSError
from repro.core.validator import ResourceEstimate, estimate_resources, validate_configuration
from repro.core.constellation import (
    ConstellationCalculation,
    ConstellationDiff,
    ConstellationState,
    MachineId,
)
from repro.core.database import ConstellationDatabase
from repro.core.info_api import HTTPInfoServer, InfoAPI, InfoAPIError
from repro.core.machine_manager import EpochRecord, MachineManager
from repro.core.fault_injection import FaultInjector, RadiationModel
from repro.core.coordinator import Coordinator
from repro.core.animation import constellation_snapshot, snapshot_to_geojson
from repro.core.testbed import Celestial

__all__ = [
    "BoundingBox",
    "Celestial",
    "CelestialDNS",
    "ComputeParams",
    "Configuration",
    "ConfigurationError",
    "ConstellationCalculation",
    "ConstellationDiff",
    "ConstellationDatabase",
    "ConstellationState",
    "Coordinator",
    "DNSError",
    "EpochRecord",
    "FaultInjector",
    "GroundStationConfig",
    "HTTPInfoServer",
    "HostConfig",
    "InfoAPI",
    "InfoAPIError",
    "MachineId",
    "MachineManager",
    "NetworkParams",
    "RadiationModel",
    "ResourceEstimate",
    "ShellConfig",
    "constellation_snapshot",
    "estimate_resources",
    "machine_ip",
    "network_for",
    "snapshot_to_geojson",
    "validate_configuration",
]
