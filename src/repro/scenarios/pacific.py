"""The §5 Pacific DART remote-sensing scenario (paper Figs. 9-11).

100 data buoys in the Pacific Ocean send sensor readings over the Iridium
constellation; readings are processed with an LSTM network either centrally
at the Pacific Tsunami Warning Center (Ford Island, Hawaii) or on the Iridium
satellites, and results are distributed to 200 islands and ships in the
vicinity of the sensors.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.core.config import (
    ComputeParams,
    Configuration,
    ConfigurationError,
    GroundStationConfig,
    HostConfig,
)
from repro.experiments.registry import scenario
from repro.orbits import Epoch, GroundStation
from repro.scenarios.operators import SENSOR_COMPUTE, iridium_shell

#: The central processing location of the DART system (Ford Island, Hawaii).
PACIFIC_TSUNAMI_WARNING_CENTER = GroundStation("pacific-tsunami-warning-center", 21.3649, -157.9497)

#: Central ground-station server: 8 cores, 8,192 MB memory (§5.1).
CENTRAL_COMPUTE = ComputeParams(vcpu_count=8, memory_mib=8192)

# The Pacific region: latitudes -40..50, longitudes 150..360-120 (wrapping).
_PACIFIC_LAT = (-40.0, 50.0)
_PACIFIC_LON_EAST = 150.0
_PACIFIC_LON_SPAN = 90.0  # degrees eastward from 150E, wrapping the antimeridian


def _wrap_longitude(longitude: float) -> float:
    wrapped = (longitude + 180.0) % 360.0 - 180.0
    return wrapped


def generate_buoys(count: int = 100, seed: int = 7) -> list[GroundStation]:
    """Deterministic pseudo-random DART buoy locations in the Pacific."""
    rng = np.random.default_rng(seed)
    buoys = []
    for index in range(count):
        latitude = float(rng.uniform(*_PACIFIC_LAT))
        longitude = _wrap_longitude(_PACIFIC_LON_EAST + float(rng.uniform(0.0, _PACIFIC_LON_SPAN)))
        buoys.append(GroundStation(f"buoy-{index}", latitude, longitude))
    return buoys


def generate_sinks(
    buoys: list[GroundStation], count: int = 200, seed: int = 11
) -> list[GroundStation]:
    """Ship/island data sinks placed in the vicinity of the sensor buoys."""
    rng = np.random.default_rng(seed)
    sinks = []
    for index in range(count):
        anchor = buoys[int(rng.integers(0, len(buoys)))]
        latitude = float(np.clip(anchor.latitude_deg + rng.uniform(-8.0, 8.0), -60.0, 60.0))
        longitude = _wrap_longitude(anchor.longitude_deg + float(rng.uniform(-8.0, 8.0)))
        sinks.append(GroundStation(f"sink-{index}", latitude, longitude))
    return sinks


@scenario("pacific-dart")
def dart_configuration(
    deployment: Literal["central", "satellite"] = "central",
    buoy_count: int = 100,
    sink_count: int = 200,
    duration_s: float = 900.0,
    update_interval_s: float = 5.0,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """Configuration of the §5 ocean environment alert experiment.

    ``deployment`` selects where the inference service runs: at the central
    Pacific Tsunami Warning Center ground station or on each Iridium
    satellite (device-to-device).  The satellite deployment gives satellite
    servers one core and 1,024 MB; the central deployment gives the ground
    station eight cores and 8,192 MB.
    """
    if deployment not in ("central", "satellite"):
        raise ConfigurationError(
            f"unknown deployment: {deployment!r} (one of 'central', 'satellite')"
        )
    # Buoys and sinks uplink at the sensor rate, the central station at the ISL rate.
    shell = iridium_shell(SENSOR_COMPUTE)
    buoys = generate_buoys(buoy_count, seed=7)
    sinks = generate_sinks(buoys, sink_count, seed=11)
    ground_stations = [
        GroundStationConfig(
            station=station,
            compute=SENSOR_COMPUTE,
            uplink_bandwidth_kbps=shell.network.uplink_bandwidth_kbps,
        )
        for station in buoys + sinks
    ]
    ground_stations.append(
        GroundStationConfig(
            station=PACIFIC_TSUNAMI_WARNING_CENTER,
            compute=CENTRAL_COMPUTE,
            uplink_bandwidth_kbps=shell.network.isl_bandwidth_kbps,
        )
    )
    return Configuration(
        shells=(shell,),
        ground_stations=tuple(ground_stations),
        bounding_box=None,
        hosts=HostConfig(count=4, cpu_cores=32, memory_mib=32 * 1024),
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )
