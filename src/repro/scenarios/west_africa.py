"""The §4 West-Africa meetup scenario (paper Fig. 3).

Three clients in Accra (Ghana), Abuja (Nigeria) and Yaoundé (Cameroon) need a
common meetup server for a WebRTC video conference.  The nearest cloud data
centre is in Johannesburg (South Africa); alternatively a satellite server of
the phase I Starlink constellation can host the video bridge.  A bounding box
over West/North Africa limits which satellites are emulated.
"""

from __future__ import annotations

from typing import Literal, Optional

from repro.core.bounding_box import BoundingBox
from repro.core.config import (
    ComputeParams,
    Configuration,
    ConfigurationError,
    GroundStationConfig,
    HostConfig,
)
from repro.experiments.registry import scenario
from repro.orbits import Epoch, GroundStation
from repro.scenarios.operators import SERVER_COMPUTE, operator_shells

#: Geodetic client locations of the §4 experiment.
CLIENT_LOCATIONS = {
    "accra": GroundStation("accra", 5.6037, -0.1870),
    "abuja": GroundStation("abuja", 9.0765, 7.3986),
    "yaounde": GroundStation("yaounde", 3.8480, 11.5021),
}

#: The nearest cloud data centre: Johannesburg, South Africa.
CLOUD_LOCATION = GroundStation("johannesburg", -26.2041, 28.0473)

#: Resources of clients and the tracking service: 4 cores, 4 GB (§4.1).  The
#: satellite servers and the cloud video bridge get ``SERVER_COMPUTE``.
CLIENT_COMPUTE = ComputeParams(vcpu_count=4, memory_mib=4096)


def west_africa_bounding_box() -> BoundingBox:
    """Bounding box over West Africa used to limit emulated satellites.

    The box covers the three client locations (Fig. 3) with a margin wide
    enough that every satellite a client can see at the minimum elevation is
    emulated, while keeping the validator's core estimate in the same range
    as the paper's 137 cores.
    """
    return BoundingBox(lat_min=-2.0, lat_max=16.0, lon_min=-8.0, lon_max=18.0)


@scenario("west-africa-meetup")
def west_africa_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    shells: Literal["all", "lowest", "two-lowest"] = "two-lowest",
    use_bounding_box: bool = True,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """Configuration of the §4 meetup experiment.

    ``shells`` controls how much of the phase I constellation is modelled;
    the paper observes that only the two lowest/densest shells are ever
    selected as bridge servers, so ``"two-lowest"`` is the default trade-off
    between fidelity and runtime.  The full five-shell constellation is
    available with ``shells="all"``.
    """
    limits = {"all": None, "lowest": 1, "two-lowest": 2}
    if shells not in limits:
        raise ConfigurationError(
            f"unknown shells: {shells!r} (one of {', '.join(map(repr, limits))})"
        )
    shell_configs = tuple(operator_shells("starlink", SERVER_COMPUTE, limits[shells]))
    cloud = (CLOUD_LOCATION.latitude_deg, CLOUD_LOCATION.longitude_deg)
    machines = [(station, CLIENT_COMPUTE) for station in CLIENT_LOCATIONS.values()] + [
        # The cloud data centre hosts the video bridge (2 cores / 512 MB)
        # and the tracking service (4 cores / 4 GB) as separate machines.
        (GroundStation("johannesburg-cloud", *cloud), SERVER_COMPUTE),
        (GroundStation("johannesburg-tracking", *cloud), CLIENT_COMPUTE),
    ]
    # Every ground link runs at the Starlink shells' uplink rate.
    uplink_kbps = shell_configs[0].network.uplink_bandwidth_kbps
    ground_stations = tuple(
        GroundStationConfig(station=station, compute=compute, uplink_bandwidth_kbps=uplink_kbps)
        for station, compute in machines
    )
    return Configuration(
        shells=shell_configs,
        ground_stations=ground_stations,
        bounding_box=west_africa_bounding_box() if use_bounding_box else None,
        hosts=HostConfig(count=3, cpu_cores=32, memory_mib=32 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
