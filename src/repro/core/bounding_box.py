"""Geographic bounding box used to limit which satellites are emulated.

Satellites whose sub-satellite point lies outside the bounding box are
suspended to free host resources; they are resumed when they re-enter
(§3.3).  The box does not affect network path calculation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.orbits.coordinates import (
    GEOCENTRIC_LATITUDE_MARGIN_DEG,
    WGS84_EQUATORIAL_RADIUS_KM,
    ecef_to_geocentric_latlon,
    ecef_to_geodetic,
)
from repro.orbits.visibility import _dot


@dataclass(frozen=True)
class BoundingBox:
    """A latitude/longitude box on the Earth's surface.

    Longitudes may wrap around the antimeridian: a box with
    ``lon_min=170, lon_max=-170`` covers the 20-degree band crossing 180°.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not -90.0 <= self.lat_min <= 90.0 or not -90.0 <= self.lat_max <= 90.0:
            raise ValueError("latitudes must be within [-90, 90]")
        if self.lat_min >= self.lat_max:
            raise ValueError("lat_min must be below lat_max")
        for lon in (self.lon_min, self.lon_max):
            if not -180.0 <= lon <= 180.0:
                raise ValueError("longitudes must be within [-180, 180]")

    @property
    def wraps_antimeridian(self) -> bool:
        """Whether the box crosses the 180° meridian."""
        return self.lon_min > self.lon_max

    def contains(self, latitude_deg, longitude_deg):
        """Whether points (scalar or arrays) are inside the box."""
        latitude = np.asarray(latitude_deg, dtype=float)
        longitude = np.asarray(longitude_deg, dtype=float)
        lat_ok = (latitude >= self.lat_min) & (latitude <= self.lat_max)
        if self.wraps_antimeridian:
            lon_ok = (longitude >= self.lon_min) | (longitude <= self.lon_max)
        else:
            lon_ok = (longitude >= self.lon_min) & (longitude <= self.lon_max)
        result = lat_ok & lon_ok
        if np.ndim(result) == 0:
            return bool(result)
        return result

    def contains_ecef(self, position_ecef) -> np.ndarray:
        """Whether ECEF points (km) lie inside the box — the cheap path.

        Produces decisions identical to
        ``contains(*ecef_to_geodetic(position_ecef)[:2])`` without paying
        the iterative geodetic conversion for every point: the longitude
        test is exact either way (both conversions share the same
        ``arctan2``), and the latitude test uses the geocentric angle,
        whose deviation from the geodetic latitude is certified below
        :data:`~repro.orbits.coordinates.GEOCENTRIC_LATITUDE_MARGIN_DEG`
        for points at or above the surface.  Only points within the
        margin band of a latitude edge — or below the surface radius,
        where the bound is void — fall back to the exact conversion,
        element for element bitwise identical to the full one.
        """
        positions = np.asarray(position_ecef, dtype=float)
        scalar = positions.ndim == 1
        positions = np.atleast_2d(positions)
        geocentric_lat, longitude = ecef_to_geocentric_latlon(positions)
        if self.wraps_antimeridian:
            lon_ok = (longitude >= self.lon_min) | (longitude <= self.lon_max)
        else:
            lon_ok = (longitude >= self.lon_min) & (longitude <= self.lon_max)
        margin = GEOCENTRIC_LATITUDE_MARGIN_DEG
        lat_ok = (geocentric_lat >= self.lat_min + margin) & (
            geocentric_lat <= self.lat_max - margin
        )
        certain = lat_ok | (
            (geocentric_lat < self.lat_min - margin)
            | (geocentric_lat > self.lat_max + margin)
        )
        # The margin is only certified at or above the surface: points that
        # could lie below the ellipsoid take the exact conversion instead.
        radius_sq = _dot(positions, positions)
        certain &= radius_sq >= WGS84_EQUATORIAL_RADIUS_KM * WGS84_EQUATORIAL_RADIUS_KM
        uncertain = ~certain
        if np.any(uncertain):
            exact_lat, _, _ = ecef_to_geodetic(positions[uncertain])
            lat_ok[uncertain] = (exact_lat >= self.lat_min) & (
                exact_lat <= self.lat_max
            )
        result = lat_ok & lon_ok
        if scalar:
            return bool(result[0])
        return result
