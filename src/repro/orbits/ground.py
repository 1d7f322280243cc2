"""Ground stations: fixed points on the Earth surface that uplink to satellites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.orbits.coordinates import ecef_to_eci, geodetic_to_ecef


@dataclass(frozen=True)
class GroundStation:
    """A ground station (or ground-based client/server) at a geodetic location."""

    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 360.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")

    @property
    def position_ecef(self) -> np.ndarray:
        """Earth-fixed position [km]."""
        return geodetic_to_ecef(self.latitude_deg, self.longitude_deg, self.altitude_km)

    def position_eci(self, gmst_rad: float) -> np.ndarray:
        """Inertial position [km] at a given Greenwich sidereal time."""
        return ecef_to_eci(self.position_ecef, gmst_rad)
