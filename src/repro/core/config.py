"""Configuration model for a Celestial emulation run.

To limit side effects and ensure repeatable testing, all parameters are
passed within a single configuration file (§3.1): network parameters (ISL
bandwidth, minimum elevation), compute parameters (resources allocated to
satellite and ground-station servers), orbital parameters for each satellite
shell, ground-station locations, the optional bounding box, the host fleet
and the update interval.  This module provides the typed in-memory form of
that file, read and written like an experiment spec by the one reader and
writer of :mod:`repro.core.tables`: an unknown key or a value of the wrong
type is a :class:`ConfigurationError` naming its dotted path and expected
type, not a run with the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.core.bounding_box import BoundingBox
from repro.core.tables import FLAT, ConfigurationError, Table
from repro.orbits import Epoch, GroundStation, ShellGeometry
from repro.orbits import constants


@dataclass(frozen=True)
class NetworkParams:
    """Network parameters of a shell (or of ground-station uplinks)."""

    isl_bandwidth_kbps: float = 10_000_000.0
    uplink_bandwidth_kbps: float = 10_000_000.0
    min_elevation_deg: float = constants.DEFAULT_MIN_ELEVATION_DEG
    atmosphere_grazing_altitude_km: float = constants.ATMOSPHERE_GRAZING_ALTITUDE_KM

    def __post_init__(self):
        if self.isl_bandwidth_kbps <= 0 or self.uplink_bandwidth_kbps <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ConfigurationError("minimum elevation must be in [0, 90) degrees")


@dataclass(frozen=True)
class ComputeParams:
    """Compute resources allocated to a class of emulated servers."""

    vcpu_count: int = 2
    memory_mib: int = 512
    cpu_quota: float = 1.0
    idle_cpu_fraction: float = 0.03

    def __post_init__(self):
        if self.vcpu_count <= 0 or self.memory_mib <= 0:
            raise ConfigurationError("compute resources must be positive")
        if not 0.0 < self.cpu_quota <= 1.0:
            raise ConfigurationError("cpu quota must be in (0, 1]")
        if not 0.0 <= self.idle_cpu_fraction <= 1.0:
            raise ConfigurationError("idle cpu fraction must be in [0, 1]")


@dataclass(frozen=True)
class ShellConfig:
    """One constellation shell with its network and compute parameters."""

    name: str
    geometry: ShellGeometry
    network: NetworkParams = field(default_factory=NetworkParams)
    compute: ComputeParams = field(default_factory=ComputeParams)
    propagator: Literal["kepler_j2", "sgp4"] = "kepler_j2"

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("shell name must not be empty")


@dataclass(frozen=True)
class GroundStationConfig:
    """A ground-station server with its location and resources."""

    #: Written flat in the file: ``name``, ``latitude_deg``, ... beside ``compute``.
    station: GroundStation = field(metadata=FLAT)
    compute: ComputeParams = field(default_factory=ComputeParams)
    uplink_bandwidth_kbps: Optional[float] = None
    min_elevation_deg: Optional[float] = None

    @property
    def name(self) -> str:
        """Name of the ground station."""
        return self.station.name


@dataclass(frozen=True)
class HostConfig:
    """The fleet of hosts: how many, and the resources each accounts for.

    A host is an accounting construct (placement by least reserved memory,
    CPU/memory usage for Figs. 7-8); there is no inter-host network.
    """

    count: int = 1
    cpu_cores: int = 32
    memory_mib: int = 32 * 1024

    def __post_init__(self):
        if self.count <= 0 or self.cpu_cores <= 0 or self.memory_mib <= 0:
            raise ConfigurationError("host resources must be positive")

    @property
    def total_cores(self) -> int:
        """Total CPU cores across all hosts."""
        return self.count * self.cpu_cores

    @property
    def total_memory_mib(self) -> int:
        """Total memory across all hosts [MiB]."""
        return self.count * self.memory_mib


@dataclass(frozen=True)
class Configuration(Table):
    """Complete configuration of one emulation run."""

    shells: tuple[ShellConfig, ...]
    ground_stations: tuple[GroundStationConfig, ...] = ()
    bounding_box: Optional[BoundingBox] = None
    hosts: HostConfig = field(default_factory=HostConfig)
    epoch: Epoch = field(default_factory=Epoch)
    update_interval_s: float = 2.0
    duration_s: float = 600.0
    seed: int = 0

    def __post_init__(self):
        if not self.shells:
            raise ConfigurationError("at least one shell is required")
        if self.update_interval_s <= 0:
            raise ConfigurationError("update interval must be positive")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        names = [shell.name for shell in self.shells]
        if len(set(names)) != len(names):
            raise ConfigurationError("shell names must be unique")
        gst_names = [gst.name for gst in self.ground_stations]
        if len(set(gst_names)) != len(gst_names):
            raise ConfigurationError("ground station names must be unique")

    # -- derived views -----------------------------------------------------

    @property
    def shell_sizes(self) -> list[int]:
        """Number of satellites per shell."""
        return [shell.geometry.total_satellites for shell in self.shells]

    @property
    def total_satellites(self) -> int:
        """Number of satellites across all shells."""
        return sum(self.shell_sizes)

    @property
    def ground_station_names(self) -> list[str]:
        """Names of all configured ground stations."""
        return [gst.name for gst in self.ground_stations]
