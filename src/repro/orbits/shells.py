"""Constellation shells: Walker-style shells of evenly-spaced orbital planes.

A LEO constellation comprises *shells*, each at its own altitude and
inclination.  Each shell consists of a number of orbital planes evenly spaced
around the equator, and each plane contains satellites evenly spaced along
the same orbit (§2.1).  A Walker *delta* shell spreads the ascending nodes of
its planes over 360°; a Walker *star* shell (such as Iridium) spreads them
over 180° so that the first and last planes are counter-rotating "seam"
neighbours (§5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.orbits import constants
from repro.orbits.kepler import (
    KeplerianElements,
    j2_secular_rates,
    mean_motion_from_semi_major_axis,
)
from repro.orbits.sgp4 import SGP4Propagator
from repro.orbits.tle import TwoLineElement


@dataclass(frozen=True)
class Satellite:
    """Identity of one satellite within a shell.

    ``identifier`` is the flat index within its shell (plane × satellites per
    plane + slot); Celestial's DNS names satellites as
    ``<identifier>.<shell>.celestial`` (§3.2).
    """

    shell_index: int
    identifier: int

    @property
    def name(self) -> str:
        """DNS-style name of the satellite machine."""
        return f"{self.identifier}.{self.shell_index}.celestial"


@dataclass(frozen=True)
class ShellGeometry:
    """Static orbital geometry of one constellation shell."""

    planes: int
    satellites_per_plane: int
    altitude_km: float
    inclination_deg: float
    arc_of_ascending_nodes_deg: float = 360.0
    phase_offset_fraction: float = 0.5
    eccentricity: float = 0.0
    raan_offset_deg: float = 0.0

    def __post_init__(self):
        if self.planes <= 0 or self.satellites_per_plane <= 0:
            raise ValueError("planes and satellites_per_plane must be positive")
        if self.altitude_km <= 0:
            raise ValueError("altitude must be positive")
        if not 0.0 < self.arc_of_ascending_nodes_deg <= 360.0:
            raise ValueError("arc of ascending nodes must be in (0, 360] degrees")

    @property
    def total_satellites(self) -> int:
        """Number of satellites in the shell."""
        return self.planes * self.satellites_per_plane

    @property
    def semi_major_axis_km(self) -> float:
        """Semi-major axis of the (circular) shell orbit."""
        return constants.EARTH_RADIUS_KM + self.altitude_km

    @property
    def period_s(self) -> float:
        """Orbital period of the shell [s]."""
        return 2.0 * math.pi / mean_motion_from_semi_major_axis(self.semi_major_axis_km)

    @property
    def is_polar_star(self) -> bool:
        """Whether the shell is a Walker-star constellation (Iridium-like)."""
        return self.arc_of_ascending_nodes_deg <= 180.0


def circular_positions_eci(elements: tuple, t_seconds: float) -> np.ndarray:
    """ECI positions [km] of circular orbits with secular J2 drift, shape (N, 3).

    ``elements`` is ``(radius_km, raan_rad, raan_rate_rad_s, plane_of,
    latitude_rad, latitude_rate_rad_s, cos_inclination, sin_inclination)``
    at the epoch.  ``raan_rad`` and ``raan_rate_rad_s`` are over orbital
    planes (the rate may be a scalar) and ``plane_of`` maps each satellite
    to its plane's row; every other element is a scalar or an array over
    satellites.  The nodes' cosine and sine are taken once per plane and
    gathered to the satellites, which hold their plane's values bit for
    bit.  The one Kepler/J2 kernel: a :class:`Shell` runs it over its
    satellites, the constellation calculation over every shell's elements
    (:func:`stacked_elements`).  A satellite's position depends on its own
    elements only, so it has the same bits whichever shells are stacked
    with it.
    """
    radius, raan, raan_rate, plane_of, latitude, latitude_rate, cos_i, sin_i = elements
    raan = raan + raan_rate * t_seconds
    cos_o, sin_o = np.cos(raan).take(plane_of), np.sin(raan).take(plane_of)
    latitude = latitude + latitude_rate * t_seconds
    cos_u, sin_u = np.cos(latitude), np.sin(latitude)
    x = radius * (cos_u * cos_o - sin_u * sin_o * cos_i)
    y = radius * (cos_u * sin_o + sin_u * cos_o * cos_i)
    z = radius * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


class Shell:
    """A propagatable shell of satellites.

    ``propagator`` selects the underlying model: ``"kepler_j2"`` uses the
    vectorised circular-orbit propagator with secular J2 drift (fast enough
    for full Starlink-scale shells), ``"sgp4"`` uses one scalar SGP4 instance
    per satellite (the model named in the paper).

    The shell's satellites are its identifiers ``0 … len(shell) - 1``, plane
    by plane; their angles and elements are arrays over them, built without
    a per-satellite object.  A :class:`Satellite` is made only where one is
    read: for each SGP4 instance, and by callers of :meth:`elements_for`.
    """

    def __init__(
        self,
        geometry: ShellGeometry,
        shell_index: int = 0,
        propagator: Literal["kepler_j2", "sgp4"] = "kepler_j2",
    ):
        self.geometry = geometry
        self.shell_index = shell_index
        self._raan_deg, self._anomaly_deg = self._initial_angles()
        self.propagator = propagator
        self._sgp4: list[SGP4Propagator] | None = None
        if propagator == "sgp4":
            self._sgp4 = [
                self._sgp4_for(Satellite(shell_index, identifier))
                for identifier in range(len(self))
            ]
        elif propagator != "kepler_j2":
            raise ValueError(f"unknown propagator kind: {propagator!r}")
        incl = math.radians(geometry.inclination_deg)
        raan_dot, argp_dot, m_dot_extra = j2_secular_rates(
            geometry.semi_major_axis_km, geometry.eccentricity, incl
        )
        # For (near-)circular orbits the argument of latitude advances at the
        # sum of the mean-anomaly and argument-of-perigee secular rates.
        # Every satellite of a plane shares its node: one RAAN row per plane.
        mean_motion = mean_motion_from_semi_major_axis(geometry.semi_major_axis_km)
        self.elements = (
            geometry.semi_major_axis_km,
            np.radians(self._raan_deg[:: geometry.satellites_per_plane]),
            raan_dot,
            np.repeat(np.arange(geometry.planes), geometry.satellites_per_plane),
            np.radians(self._anomaly_deg),
            mean_motion + m_dot_extra + argp_dot,
            math.cos(incl),
            math.sin(incl),
        )

    def __len__(self) -> int:
        return self.geometry.total_satellites

    # -- element construction --------------------------------------------

    def _initial_angles(self) -> tuple[np.ndarray, np.ndarray]:
        geometry = self.geometry
        planes = np.repeat(np.arange(geometry.planes, dtype=float), geometry.satellites_per_plane)
        indices = np.tile(np.arange(geometry.satellites_per_plane, dtype=float), geometry.planes)
        raan = (
            geometry.raan_offset_deg
            + planes * geometry.arc_of_ascending_nodes_deg / geometry.planes
        )
        in_plane_spacing = 360.0 / geometry.satellites_per_plane
        phase_shift = geometry.phase_offset_fraction * in_plane_spacing / geometry.planes
        anomaly = indices * in_plane_spacing + planes * phase_shift
        return raan % 360.0, anomaly % 360.0

    def elements_for(self, satellite: Satellite) -> KeplerianElements:
        """Keplerian elements of one satellite at the shell epoch."""
        flat = satellite.identifier
        return KeplerianElements(
            semi_major_axis_km=self.geometry.semi_major_axis_km,
            eccentricity=self.geometry.eccentricity,
            inclination_deg=self.geometry.inclination_deg,
            raan_deg=float(self._raan_deg[flat]),
            arg_perigee_deg=0.0,
            mean_anomaly_deg=float(self._anomaly_deg[flat]),
        )

    def _sgp4_for(self, satellite: Satellite) -> SGP4Propagator:
        from datetime import datetime

        tle = TwoLineElement.from_elements(
            self.elements_for(satellite),
            epoch=datetime(2022, 1, 1),
            name=satellite.name,
        )
        return SGP4Propagator(tle)

    # -- propagation ------------------------------------------------------

    def positions_eci(self, t_seconds: float) -> np.ndarray:
        """ECI positions [km] of all satellites at ``t_seconds``, shape (N, 3)."""
        if self._sgp4 is not None:
            return np.array([prop.position_eci(t_seconds) for prop in self._sgp4])
        return circular_positions_eci(self.elements, t_seconds)


def stacked_elements(shells: Sequence[Shell]) -> tuple:
    """The elements of several shells as one tuple for :func:`circular_positions_eci`.

    The RAAN columns are concatenated over the shells' planes, every other
    column over their satellites, and each shell's plane index is moved to
    its planes' rows of the stack.
    """
    sizes = [len(shell) for shell in shells]
    planes = [shell.geometry.planes for shell in shells]
    radius, raan, raan_rate, plane_of, *per_satellite = (
        np.concatenate([np.broadcast_to(value, count) for value, count in zip(column, counts)])
        for column, counts in zip(
            zip(*(shell.elements for shell in shells)),
            (sizes, planes, planes, sizes, sizes, sizes, sizes, sizes),
        )
    )
    plane_of = plane_of + np.repeat(np.cumsum(planes) - planes, sizes)
    return (radius, raan, raan_rate, plane_of, *per_satellite)
