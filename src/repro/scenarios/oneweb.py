"""The OneWeb first-generation constellation.

A single shell of 648 satellites in 18 near-polar planes of 36 satellites
at 1,200 km altitude and 87.9° inclination.  Like Iridium, OneWeb is a
Walker-star pattern: the ascending nodes are spread over only half the
globe (180° arc), which creates the two counter-rotating seam planes where
no inter-plane ISLs exist — exercising the same +GRID seam logic as the
DART case study, but at a ten times larger scale.
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

#: Minimum elevation for OneWeb user terminals [deg].
ONEWEB_MIN_ELEVATION_DEG = 15.0
#: ISL / gateway link bandwidth assumed for OneWeb: 2.5 Gb/s class.
ONEWEB_BANDWIDTH_KBPS = 2_500_000.0


def oneweb_network_params() -> NetworkParams:
    """Network parameters of the OneWeb shell."""
    return NetworkParams(
        isl_bandwidth_kbps=ONEWEB_BANDWIDTH_KBPS,
        uplink_bandwidth_kbps=ONEWEB_BANDWIDTH_KBPS,
        min_elevation_deg=ONEWEB_MIN_ELEVATION_DEG,
    )


def oneweb_shell(satellite_compute: ComputeParams | None = None) -> ShellConfig:
    """Shell configuration of the OneWeb constellation (648 satellites)."""
    compute = satellite_compute or ComputeParams(vcpu_count=2, memory_mib=512)
    return ShellConfig(
        name="oneweb",
        geometry=ShellGeometry(
            planes=18,
            satellites_per_plane=36,
            altitude_km=1200.0,
            inclination_deg=87.9,
            arc_of_ascending_nodes_deg=180.0,
        ),
        network=oneweb_network_params(),
        compute=compute,
    )


@scenario("oneweb")
def oneweb_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """The OneWeb constellation (648 satellites, Walker-star seam at scale).

    A bare-constellation configuration (no ground segment), exercising the
    +GRID seam logic of the near-polar 180°-arc pattern.
    """
    return Configuration(
        shells=(oneweb_shell(),),
        ground_stations=(),
        bounding_box=None,
        hosts=HostConfig(count=3, cpu_cores=32, memory_mib=64 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
