"""The operator catalogue: every constellation's shells as one table.

Each operator is a list of shells; one function, :func:`operator_shells`,
turns a row into a :class:`~repro.core.config.ShellConfig`, and the six
registered factories below combine the operators' shells with hosts and a
ground segment.  A row is ``(name, planes, satellites per plane, altitude
km, inclination deg, arc of ascending nodes deg, ISL kbps, uplink kbps,
minimum elevation deg)``.  An arc of 360° is a Walker-delta pattern, where
every plane links to its neighbour across the seamless +GRID; an arc of 180°
is a Walker-star pattern, whose first and last planes counter-rotate, so no
inter-plane ISLs exist across that seam.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

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

#: Resources of the satellite servers: 2 cores, 512 MB.
SERVER_COMPUTE = ComputeParams(vcpu_count=2, memory_mib=512)
#: Resources of the ground-station servers: 4 cores, 4 GB.
STATION_COMPUTE = ComputeParams(vcpu_count=4, memory_mib=4096)
#: Buoys, data sinks and Iridium satellite servers: 1 CPU core, 1,024 MB (§5.1).
SENSOR_COMPUTE = ComputeParams(vcpu_count=1, memory_mib=1024)

#: Operator → its shells, one row per shell, columns as in the module docstring.
SHELLS = {
    # The planned phase I Starlink constellation (paper Fig. 1, §2.1, §4):
    # 4,409 satellites.  Plane/satellite splits follow the FCC filings used
    # by the paper and Hypatia.  ISL and ground-link bandwidth of the §4
    # experiment: 10 Gb/s; user terminals / ground stations at 25° minimum
    # elevation.
    "starlink": [
        ("starlink-0", 72, 22, 550.0, 53.0, 360.0, 10_000_000.0, 10_000_000.0, 25.0),  # 1,584
        ("starlink-1", 32, 50, 1110.0, 53.8, 360.0, 10_000_000.0, 10_000_000.0, 25.0),  # 1,600
        ("starlink-2", 8, 50, 1130.0, 74.0, 360.0, 10_000_000.0, 10_000_000.0, 25.0),  # 400
        ("starlink-3", 5, 75, 1275.0, 81.0, 360.0, 10_000_000.0, 10_000_000.0, 25.0),  # 375
        ("starlink-4", 6, 75, 1325.0, 70.0, 360.0, 10_000_000.0, 10_000_000.0, 25.0),  # 450
    ],
    # The first-generation Project Kuiper system (FCC authorization, also
    # used by Hypatia): 3,236 satellites at moderate inclinations between
    # 33° and 51.9°.  10 Gb/s ISL / gateway links (same class as Starlink);
    # customer terminals at 35° minimum elevation per the FCC filing.
    "kuiper": [
        ("kuiper-0", 34, 34, 630.0, 51.9, 360.0, 10_000_000.0, 10_000_000.0, 35.0),  # 1,156
        ("kuiper-1", 36, 36, 610.0, 42.0, 360.0, 10_000_000.0, 10_000_000.0, 35.0),  # 1,296
        ("kuiper-2", 28, 28, 590.0, 33.0, 360.0, 10_000_000.0, 10_000_000.0, 35.0),  # 784
    ],
    # OneWeb's first generation: a near-polar Walker-star like Iridium,
    # exercising the same +GRID seam logic as the DART case study at ten
    # times the scale.  2.5 Gb/s class ISL / gateway links; user terminals
    # at 15° minimum elevation.
    "oneweb": [
        ("oneweb", 18, 36, 1200.0, 87.9, 180.0, 2_500_000.0, 2_500_000.0, 15.0),  # 648
    ],
    # Telesat Lightspeed (updated FCC filing, 298 satellites): a polar
    # Walker-star shell with global/polar reach plus an inclined
    # Walker-delta shell concentrating capacity over the populated
    # mid-latitudes — both seam logic and delta phasing in one operator.
    # 10 Gb/s optical ISLs, 5 Gb/s Ka-band uplinks, user terminals at 10°
    # minimum elevation (Telesat filing).
    "telesat": [
        ("telesat-polar", 6, 13, 1015.0, 98.98, 180.0, 10_000_000.0, 5_000_000.0, 10.0),  # 78
        ("telesat-inclined", 20, 11, 1325.0, 50.88, 360.0, 10_000_000.0, 5_000_000.0, 10.0),  # 220
    ],
    # Iridium, as in the DART case study (paper §5, Fig. 10): a polar orbit
    # spaced evenly only around half the globe.  100 Mb/s ISLs and central
    # ground-station links; sensors uplink at the 88 kb/s of Iridium Certus
    # 100, recommended for remote sensing (§5.1); terminals at 8.2° minimum
    # elevation.
    "iridium": [
        ("iridium", 6, 11, 780.0, 90.0, 180.0, 100_000.0, 88.0, 8.2),  # 66
    ],
}


def operator_shells(
    operator: str, compute: ComputeParams = SERVER_COMPUTE, limit: Optional[int] = None
) -> list[ShellConfig]:
    """The shells of ``operator`` in :data:`SHELLS`, lowest index first.

    ``limit`` keeps only the first shells (e.g. Starlink's ``limit=2`` keeps
    the two lowest, densest shells, the only ones the §4 experiment ever
    selects as bridge servers).
    """
    return [
        ShellConfig(
            name=name,
            geometry=ShellGeometry(*geometry),
            network=NetworkParams(
                isl_bandwidth_kbps=isl_kbps,
                uplink_bandwidth_kbps=uplink_kbps,
                min_elevation_deg=min_elevation,
            ),
            compute=compute,
        )
        for name, *geometry, isl_kbps, uplink_kbps, min_elevation in SHELLS[operator][:limit]
    ]


def iridium_shell(
    compute: ComputeParams = SENSOR_COMPUTE, inclination_deg: float = 90.0
) -> ShellConfig:
    """The Iridium shell (66 satellites).

    The paper describes the orbit as polar (90° inclination); the operational
    constellation flies at 86.4°, which can be selected via
    ``inclination_deg`` without affecting the seam behaviour.
    """
    (shell,) = operator_shells("iridium", compute)
    geometry = dataclasses.replace(shell.geometry, inclination_deg=inclination_deg)
    return dataclasses.replace(shell, geometry=geometry)


def _configuration(
    shells: Iterable[ShellConfig],
    stations: Iterable[GroundStation],
    hosts: HostConfig,
    epoch: Optional[Epoch],
    update_interval_s: float,
    duration_s: float,
    seed: int,
) -> Configuration:
    """A configuration without a bounding box; ``stations`` get :data:`STATION_COMPUTE`."""
    return Configuration(
        shells=tuple(shells),
        ground_stations=tuple(
            GroundStationConfig(station=station, compute=STATION_COMPUTE)
            for station in stations
        ),
        bounding_box=None,
        hosts=hosts,
        epoch=epoch if epoch is not None else Epoch(),
        update_interval_s=update_interval_s,
        duration_s=duration_s,
        seed=seed,
    )


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
    ``shell_limit`` keeps only the lowest shells.
    """
    shells = operator_shells("starlink", limit=shell_limit)
    hosts = HostConfig(count=15, cpu_cores=32, memory_mib=64 * 1024)
    return _configuration(shells, (), hosts, epoch, update_interval_s, duration_s, seed)


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
    keeps only the first shells (``1`` keeps the 630 km shell).
    """
    shells = operator_shells("kuiper", limit=shell_limit)
    hosts = HostConfig(count=11, cpu_cores=32, memory_mib=64 * 1024)
    return _configuration(shells, (), hosts, epoch, update_interval_s, duration_s, seed)


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
    hosts = HostConfig(count=3, cpu_cores=32, memory_mib=64 * 1024)
    return _configuration(
        operator_shells("oneweb"), (), hosts, epoch, update_interval_s, duration_s, seed
    )


@scenario("telesat-lightspeed")
def telesat_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """A ready-to-run Lightspeed configuration (298 satellites, 3 stations).

    The stations span the coverage split of the two shells: the inclined
    shell's footprint ends near 76° latitude (50.88° inclination plus its
    ~25° coverage radius), so Alert (82.5°N) is only served by the polar
    shell, Singapore (1°N) predominantly by the inclined shell, and Ottawa
    (45°N) genuinely chooses between both.
    """
    stations = (
        GroundStation("singapore", 1.3521, 103.8198),
        GroundStation("ottawa", 45.4215, -75.6972),
        GroundStation("alert", 82.5007, -62.3481),
    )
    hosts = HostConfig(count=2, cpu_cores=32, memory_mib=64 * 1024)
    return _configuration(
        operator_shells("telesat"), stations, hosts, epoch, update_interval_s, duration_s, seed
    )


@scenario("iridium")
def iridium_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 5.0,
    inclination_deg: float = 90.0,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """The Iridium constellation with one Hawaii ground station (66 satellites).

    The minimal runnable form of the §5 setting: the full buoy/sink ground
    segment of the DART case study is the ``pacific-dart`` scenario; this
    one is small enough for smoke tests and uplink-handover analyses.
    """
    shells = (iridium_shell(inclination_deg=inclination_deg),)
    stations = (GroundStation("hawaii", 21.36, -157.95),)
    hosts = HostConfig(count=2, cpu_cores=32, memory_mib=96 * 1024)
    return _configuration(shells, stations, hosts, epoch, update_interval_s, duration_s, seed)


@scenario("mixed-operator")
def mixed_operator_configuration(
    duration_s: float = 600.0,
    update_interval_s: float = 2.0,
    kuiper_shell_limit: Optional[int] = 1,
    seed: int = 0,
    epoch: Optional[Epoch] = None,
) -> Configuration:
    """Configuration combining one shell per operator (plus optional Kuiper extras).

    The default keeps one shell each of Starlink (1,584 satellites at
    550 km), Kuiper (1,156 at 630 km) and OneWeb (648 at 1,200 km) — 3,388
    satellites across three operators; ``kuiper_shell_limit=None`` enables
    the full 3,236-satellite Kuiper system for a 5,468-satellite stress
    configuration.

    The sky stresses multi-shell uplink selection: the shells differ in
    altitude, pattern (Walker-delta vs. OneWeb's Walker-star seam) and
    minimum elevation (25°/35°/15°), so every elevation check, per-shell
    uplink bundle and shell-offset translation runs in one topology.  The
    stations span equatorial to polar latitudes because the inclinations
    make shell visibility latitude-dependent: only the near-polar OneWeb
    shell covers Longyearbyen.
    """
    shells = (
        *operator_shells("starlink", limit=1),
        *operator_shells("kuiper", limit=kuiper_shell_limit),
        *operator_shells("oneweb"),
    )
    stations = (
        GroundStation("quito", -0.1807, -78.4678),
        GroundStation("berlin", 52.5200, 13.4050),
        GroundStation("longyearbyen", 78.2232, 15.6267),
    )
    hosts = HostConfig(count=4, cpu_cores=32, memory_mib=64 * 1024)
    return _configuration(shells, stations, hosts, epoch, update_interval_s, duration_s, seed)
