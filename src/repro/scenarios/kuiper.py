"""The Project Kuiper constellation (FCC filing, first-generation system).

Three shells totalling 3,236 satellites: 34 planes of 34 satellites at
630 km (1,156), 36 planes of 36 at 610 km (1,296) and 28 planes of 28 at
590 km (784), at moderate inclinations between 33° and 51.9°.  The shell
split follows the FCC authorization also used by Hypatia; like the
Starlink shells these are Walker-delta patterns (ascending nodes spread
over the full 360°), so every plane links to its neighbour across the
seamless +GRID.
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

#: Minimum elevation for Kuiper customer terminals per the FCC filing [deg].
KUIPER_MIN_ELEVATION_DEG = 35.0
#: ISL / gateway link bandwidth assumed for Kuiper: 10 Gb/s (same class as Starlink).
KUIPER_BANDWIDTH_KBPS = 10_000_000.0

_KUIPER_SHELLS = (
    # (planes, satellites per plane, altitude km, inclination deg)
    (34, 34, 630.0, 51.9),  # 1,156 satellites
    (36, 36, 610.0, 42.0),  # 1,296 satellites
    (28, 28, 590.0, 33.0),  # 784 satellites
)


def kuiper_network_params() -> NetworkParams:
    """Network parameters shared by the three Kuiper shells."""
    return NetworkParams(
        isl_bandwidth_kbps=KUIPER_BANDWIDTH_KBPS,
        uplink_bandwidth_kbps=KUIPER_BANDWIDTH_KBPS,
        min_elevation_deg=KUIPER_MIN_ELEVATION_DEG,
    )


def kuiper_shells(
    satellite_compute: ComputeParams | None = None,
    limit: int | None = None,
) -> list[ShellConfig]:
    """Shell configurations of the first-generation Kuiper system.

    ``limit`` restricts the number of shells (e.g. ``limit=1`` keeps only
    the 630 km shell).
    """
    compute = satellite_compute or ComputeParams(vcpu_count=2, memory_mib=512)
    shells = []
    for index, (planes, per_plane, altitude, inclination) in enumerate(_KUIPER_SHELLS):
        shells.append(
            ShellConfig(
                name=f"kuiper-{index}",
                geometry=ShellGeometry(
                    planes=planes,
                    satellites_per_plane=per_plane,
                    altitude_km=altitude,
                    inclination_deg=inclination,
                    arc_of_ascending_nodes_deg=360.0,
                ),
                network=kuiper_network_params(),
                compute=compute,
            )
        )
    if limit is not None:
        shells = shells[:limit]
    return shells


@scenario("kuiper")
def kuiper_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    shell_limit: Optional[int] = None,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """The first-generation Project Kuiper system (up to 3,236 satellites).

    A bare-constellation configuration (no ground segment); ``shell_limit``
    keeps only the first shells, as in :func:`kuiper_shells`.
    """
    return Configuration(
        shells=tuple(kuiper_shells(limit=shell_limit)),
        ground_stations=(),
        bounding_box=None,
        hosts=HostConfig(count=11, cpu_cores=32, memory_mib=64 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
