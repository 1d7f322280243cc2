"""The Telesat Lightspeed constellation: a polar + inclined hybrid.

Unlike the single-pattern systems (Starlink's Walker-delta shells, OneWeb's
near-polar Walker-star), Lightspeed combines **two complementary shells**
following Telesat's updated FCC filing (298 satellites):

* a **polar shell** — 78 satellites in 6 near-polar planes of 13 at
  1,015 km and 98.98° inclination.  Like Iridium and OneWeb it is a
  Walker-star pattern (ascending nodes over a 180° arc), so it has the two
  counter-rotating seam planes and provides the global/polar coverage the
  inclined shell cannot.
* an **inclined shell** — 220 satellites in 20 planes of 11 at 1,325 km and
  50.88° inclination, a Walker-delta pattern concentrating capacity over
  the populated mid-latitudes.

The hybrid stresses a code path none of the other scenarios exercises:
*both* seam logic (polar star) and delta phasing in one operator, with
uplink selection arbitrating between a high shell with polar reach and a
lower, denser shell — ground stations at high latitude see only the polar
shell, equatorial ones mostly the inclined shell, and mid-latitude ones
genuinely choose.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import (
    ComputeParams,
    Configuration,
    GroundStationConfig,
    HostConfig,
    NetworkParams,
    ShellConfig,
)
from repro.experiments.registry import scenario
from repro.orbits import Epoch, GroundStation, ShellGeometry

#: Minimum elevation for Lightspeed user terminals [deg] (Telesat filing).
TELESAT_MIN_ELEVATION_DEG = 10.0
#: Optical ISL bandwidth class assumed for Lightspeed: 10 Gb/s.
TELESAT_ISL_BANDWIDTH_KBPS = 10_000_000.0
#: Ka-band uplink bandwidth class: 5 Gb/s.
TELESAT_UPLINK_BANDWIDTH_KBPS = 5_000_000.0

#: Ground stations spanning the coverage split of the two shells: the
#: inclined shell's footprint ends near 76° latitude (50.88° inclination
#: plus its ~25° coverage radius), so Alert (82.5°N) is polar-shell-only.
TELESAT_GROUND_STATIONS = {
    "singapore": GroundStation("singapore", 1.3521, 103.8198),
    "ottawa": GroundStation("ottawa", 45.4215, -75.6972),
    "alert": GroundStation("alert", 82.5007, -62.3481),
}

#: Resources of the ground-station servers.
STATION_COMPUTE = ComputeParams(vcpu_count=4, memory_mib=4096)
#: Resources of the satellite servers.
SERVER_COMPUTE = ComputeParams(vcpu_count=2, memory_mib=512)


def telesat_network_params() -> NetworkParams:
    """Network parameters of the Lightspeed shells."""
    return NetworkParams(
        isl_bandwidth_kbps=TELESAT_ISL_BANDWIDTH_KBPS,
        uplink_bandwidth_kbps=TELESAT_UPLINK_BANDWIDTH_KBPS,
        min_elevation_deg=TELESAT_MIN_ELEVATION_DEG,
    )


def telesat_polar_shell(satellite_compute: ComputeParams | None = None) -> ShellConfig:
    """The 1,015 km near-polar Walker-star shell (6 × 13 = 78 satellites)."""
    return ShellConfig(
        name="telesat-polar",
        geometry=ShellGeometry(
            planes=6,
            satellites_per_plane=13,
            altitude_km=1015.0,
            inclination_deg=98.98,
            arc_of_ascending_nodes_deg=180.0,
        ),
        network=telesat_network_params(),
        compute=satellite_compute or SERVER_COMPUTE,
    )


def telesat_inclined_shell(
    satellite_compute: ComputeParams | None = None,
) -> ShellConfig:
    """The 1,325 km inclined Walker-delta shell (20 × 11 = 220 satellites)."""
    return ShellConfig(
        name="telesat-inclined",
        geometry=ShellGeometry(
            planes=20,
            satellites_per_plane=11,
            altitude_km=1325.0,
            inclination_deg=50.88,
            arc_of_ascending_nodes_deg=360.0,
        ),
        network=telesat_network_params(),
        compute=satellite_compute or SERVER_COMPUTE,
    )


def telesat_shells(
    satellite_compute: ComputeParams | None = None,
) -> tuple[ShellConfig, ShellConfig]:
    """Both Lightspeed shells: polar star first, inclined delta second."""
    return (
        telesat_polar_shell(satellite_compute),
        telesat_inclined_shell(satellite_compute),
    )


@scenario("telesat-lightspeed")
def telesat_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """A ready-to-run Lightspeed configuration (298 satellites, 3 stations).

    The stations are placed to exercise the coverage split: Alert (82.5°N)
    is only served by the polar shell, Singapore (1°N) predominantly by the
    inclined shell, Ottawa (45°N) by both.
    """
    ground_stations = tuple(
        GroundStationConfig(station=station, compute=STATION_COMPUTE)
        for station in TELESAT_GROUND_STATIONS.values()
    )
    return Configuration(
        shells=telesat_shells(),
        ground_stations=ground_stations,
        bounding_box=None,
        hosts=HostConfig(count=2, cpu_cores=32, memory_mib=64 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
