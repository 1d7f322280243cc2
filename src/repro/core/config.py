"""Configuration model for a Celestial emulation run.

To limit side effects and ensure repeatable testing, all parameters are
passed within a single configuration file (§3.1): network parameters (ISL
bandwidth, minimum elevation), compute parameters (resources allocated to
satellite and ground-station servers), orbital parameters for each satellite
shell, ground-station locations, the optional bounding box, the host fleet
and the update interval.  This module provides the typed in-memory form of
that file plus (de)serialisation from plain dictionaries and TOML.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Literal, Optional

from repro.core.bounding_box import BoundingBox
from repro.orbits import Epoch, GroundStation, ShellGeometry
from repro.orbits import constants


class ConfigurationError(ValueError):
    """Raised when a configuration is inconsistent or incomplete."""


# Alias kept for symmetry with the other *Config names in the public API.
BoundingBoxConfig = BoundingBox


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
    disk_mib: int = 512
    cpu_quota: float = 1.0
    idle_cpu_fraction: float = 0.03

    def __post_init__(self):
        if self.vcpu_count <= 0 or self.memory_mib <= 0 or self.disk_mib <= 0:
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

    station: GroundStation
    compute: ComputeParams = field(default_factory=ComputeParams)
    uplink_bandwidth_kbps: Optional[float] = None
    min_elevation_deg: Optional[float] = None

    @property
    def name(self) -> str:
        """Name of the ground station."""
        return self.station.name


#: ``[hosts]`` keys earlier versions accepted and nothing ever read.
_REMOVED_HOST_KEYS = ("inter_host_latency_ms", "coordinator_cores", "coordinator_memory_mib")


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
class Configuration:
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
    def total_machines(self) -> int:
        """Number of emulated machines (satellites + ground stations)."""
        return self.total_satellites + len(self.ground_stations)

    @property
    def ground_station_names(self) -> list[str]:
        """Names of all configured ground stations."""
        return [gst.name for gst in self.ground_stations]

    def ground_station_config(self, name: str) -> GroundStationConfig:
        """Configuration of a ground station by name."""
        for gst in self.ground_stations:
            if gst.name == name:
                return gst
        raise ConfigurationError(f"unknown ground station: {name!r}")

    def update_steps(self) -> int:
        """Number of constellation updates during the run."""
        return int(self.duration_s // self.update_interval_s) + 1

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form of the configuration (JSON/TOML friendly)."""
        return {
            "epoch": self.epoch.start.isoformat(),
            "update_interval_s": self.update_interval_s,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "bounding_box": (
                dataclasses.asdict(self.bounding_box) if self.bounding_box else None
            ),
            "hosts": dataclasses.asdict(self.hosts),
            "shells": [
                {
                    "name": shell.name,
                    "propagator": shell.propagator,
                    "geometry": dataclasses.asdict(shell.geometry),
                    "network": dataclasses.asdict(shell.network),
                    "compute": dataclasses.asdict(shell.compute),
                }
                for shell in self.shells
            ],
            "ground_stations": [
                {
                    "name": gst.station.name,
                    "latitude_deg": gst.station.latitude_deg,
                    "longitude_deg": gst.station.longitude_deg,
                    "altitude_km": gst.station.altitude_km,
                    "compute": dataclasses.asdict(gst.compute),
                    "uplink_bandwidth_kbps": gst.uplink_bandwidth_kbps,
                    "min_elevation_deg": gst.min_elevation_deg,
                }
                for gst in self.ground_stations
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Configuration":
        """Build a configuration from its plain-dictionary form."""
        for key in _REMOVED_HOST_KEYS:
            if key in (data.get("hosts") or {}):
                raise ConfigurationError(
                    f"hosts.{key} was removed: hosts are an accounting construct "
                    "(placement and usage only, no overlay between them and no "
                    "coordinator machine); delete the key"
                )
        try:
            shells = tuple(
                ShellConfig(
                    name=shell["name"],
                    geometry=ShellGeometry(**shell["geometry"]),
                    network=NetworkParams(**shell.get("network", {})),
                    compute=ComputeParams(**shell.get("compute", {})),
                    propagator=shell.get("propagator", "kepler_j2"),
                )
                for shell in data["shells"]
            )
            ground_stations = tuple(
                GroundStationConfig(
                    station=GroundStation(
                        name=gst["name"],
                        latitude_deg=gst["latitude_deg"],
                        longitude_deg=gst["longitude_deg"],
                        altitude_km=gst.get("altitude_km", 0.0),
                    ),
                    compute=ComputeParams(**gst.get("compute", {})),
                    uplink_bandwidth_kbps=gst.get("uplink_bandwidth_kbps"),
                    min_elevation_deg=gst.get("min_elevation_deg"),
                )
                for gst in data.get("ground_stations", [])
            )
            bounding_box = None
            if data.get("bounding_box"):
                bounding_box = BoundingBox(**data["bounding_box"])
            hosts = HostConfig(**data.get("hosts", {}))
            epoch = Epoch(datetime.fromisoformat(data["epoch"])) if "epoch" in data else Epoch()
        except (KeyError, TypeError) as error:
            raise ConfigurationError(f"invalid configuration: {error}") from error
        return cls(
            shells=shells,
            ground_stations=ground_stations,
            bounding_box=bounding_box,
            hosts=hosts,
            epoch=epoch,
            update_interval_s=data.get("update_interval_s", 2.0),
            duration_s=data.get("duration_s", 600.0),
            seed=data.get("seed", 0),
        )

    @classmethod
    def from_toml(cls, path) -> "Configuration":
        """Load a configuration from a TOML file."""
        import tomllib

        with open(path, "rb") as handle:
            return cls.from_dict(tomllib.load(handle))

    @classmethod
    def from_path(cls, path) -> "Configuration":
        """Load a configuration from a ``.toml`` or ``.json`` file.

        The format is selected by the file extension; any other suffix is a
        :class:`ConfigurationError` (shared by the CLI and the experiment
        runner, so both reject unknown formats identically).
        """
        import json

        path_str = str(path)
        if path_str.endswith(".toml"):
            return cls.from_toml(path)
        if path_str.endswith(".json"):
            with open(path) as handle:
                return cls.from_dict(json.load(handle))
        raise ConfigurationError(
            f"unsupported configuration file suffix: {path_str!r} "
            "(expected .toml or .json)"
        )
