"""The planned phase I Starlink constellation (paper Fig. 1).

Five shells: 1,584 satellites at 550 km, 1,600 at 1,110 km, 400 at 1,130 km,
375 at 1,275 km and 450 at 1,325 km altitude — 4,409 satellites in total
(§2.1, §4).  Plane/satellite splits follow the FCC filings used by the paper
and Hypatia: the 550 km shell has 72 planes of 22 satellites at 53°
inclination.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import (
    ComputeParams,
    Configuration,
    HostConfig,
    NetworkParams,
    ShellConfig,
)
from repro.experiments.registry import scenario
from repro.orbits import Epoch, ShellGeometry

#: Minimum elevation for Starlink user terminals / ground stations [deg].
STARLINK_MIN_ELEVATION_DEG = 25.0
#: ISL and ground-link bandwidth used in the §4 experiment: 10 Gb/s.
STARLINK_BANDWIDTH_KBPS = 10_000_000.0

_PHASE1_SHELLS = (
    # (planes, satellites per plane, altitude km, inclination deg)
    (72, 22, 550.0, 53.0),     # 1,584 satellites
    (32, 50, 1110.0, 53.8),    # 1,600 satellites
    (8, 50, 1130.0, 74.0),     # 400 satellites
    (5, 75, 1275.0, 81.0),     # 375 satellites
    (6, 75, 1325.0, 70.0),     # 450 satellites
)


def starlink_network_params() -> NetworkParams:
    """Network parameters of the Starlink shells as used in §4."""
    return NetworkParams(
        isl_bandwidth_kbps=STARLINK_BANDWIDTH_KBPS,
        uplink_bandwidth_kbps=STARLINK_BANDWIDTH_KBPS,
        min_elevation_deg=STARLINK_MIN_ELEVATION_DEG,
    )


def starlink_phase1_shells(
    satellite_compute: ComputeParams | None = None,
    limit: int | None = None,
) -> list[ShellConfig]:
    """Shell configurations of the phase I constellation.

    ``limit`` restricts the number of shells (e.g. ``limit=2`` keeps only the
    two lowest, densest shells, which are the only ones the §4 experiment
    ever selects as bridge servers).
    """
    compute = satellite_compute or ComputeParams(vcpu_count=2, memory_mib=512)
    shells = []
    for index, (planes, per_plane, altitude, inclination) in enumerate(_PHASE1_SHELLS):
        shells.append(
            ShellConfig(
                name=f"starlink-{index}",
                geometry=ShellGeometry(
                    planes=planes,
                    satellites_per_plane=per_plane,
                    altitude_km=altitude,
                    inclination_deg=inclination,
                    arc_of_ascending_nodes_deg=360.0,
                ),
                network=starlink_network_params(),
                compute=compute,
            )
        )
    if limit is not None:
        shells = shells[:limit]
    return shells


def starlink_first_shell(satellite_compute: ComputeParams | None = None) -> ShellConfig:
    """Only the 550 km, 72x22 shell (1,584 satellites)."""
    return starlink_phase1_shells(satellite_compute, limit=1)[0]


@scenario("starlink-phase1")
def starlink_phase1_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    shell_limit: Optional[int] = None,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """The planned phase I Starlink constellation (up to 4,409 satellites).

    A bare-constellation configuration (no ground segment): the §4 meetup
    deployment on top of these shells is the ``west-africa-meetup`` scenario.
    ``shell_limit`` keeps only the lowest shells, as in
    :func:`starlink_phase1_shells`.
    """
    return Configuration(
        shells=tuple(starlink_phase1_shells(limit=shell_limit)),
        ground_stations=(),
        bounding_box=None,
        hosts=HostConfig(count=15, cpu_cores=32, memory_mib=64 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
