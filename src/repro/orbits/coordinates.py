"""Coordinate frames and transformations.

Two frames are used:

* **ECI** (Earth-centred inertial, km): satellite propagation output.
* **ECEF** (Earth-centred Earth-fixed, km): ground stations and
  sub-satellite points.

The transformation between the two is a rotation about the z-axis by the
Greenwich mean sidereal time.  Geodetic conversions use the WGS-84 ellipsoid.
All functions accept and return NumPy arrays and broadcast over leading
dimensions so whole constellations can be transformed at once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.orbits import constants

_WGS84_A = 6378.137
_WGS84_F = 1.0 / 298.257223563
_WGS84_E2 = _WGS84_F * (2.0 - _WGS84_F)

#: WGS-84 equatorial (semi-major) radius [km] — the largest radius of the
#: ellipsoid, so any point at least this far from the centre is at or
#: above the surface everywhere on Earth.
WGS84_EQUATORIAL_RADIUS_KM = _WGS84_A

#: Certified upper bound on |geodetic − geocentric| latitude [deg] for any
#: point at or above the WGS-84 surface.  With ``tan ψ = k·tan φ`` and
#: ``k = 1 − e²·N/(N + h) ∈ [1 − e², 1]`` for altitude ``h ≥ 0``, the
#: deviation is maximal at the surface (``k = 1 − e²``), where it reaches
#: ``arcsin(e² / (2 − e²)) ≈ 0.1924°``; higher altitudes pull ``k`` towards
#: 1 and shrink it.  The constant includes ~30 % slack on top.
GEOCENTRIC_LATITUDE_MARGIN_DEG = 0.25


def _rotation_z(theta: float) -> np.ndarray:
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [cos_t, sin_t, 0.0],
            [-sin_t, cos_t, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _rotate(positions: np.ndarray, theta: float) -> np.ndarray:
    """Rotate positions (km) about the z-axis into a frame turned by ``theta``.

    A row gets the same bits whatever batch it comes in: a product of
    fewer than two rows would take BLAS's matrix-vector kernel, which
    rounds differently from the matrix-matrix one, so a 1-D vector or a
    one-row array is rotated as one of two rows.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape[:-1] in ((), (1,)):
        rows = positions.reshape(1, 3)
        return _rotate(np.concatenate([rows, rows]), theta)[:1].reshape(positions.shape)
    return positions @ _rotation_z(theta).T


def eci_to_ecef(position_eci: np.ndarray, gmst: float) -> np.ndarray:
    """Rotate ECI positions (km) into the Earth-fixed frame at the given GMST.

    A row has the same bits alone, as a 1-D vector or in any batch.
    """
    return _rotate(position_eci, gmst)


def ecef_to_eci(position_ecef: np.ndarray, gmst: float) -> np.ndarray:
    """Rotate Earth-fixed positions (km) into the inertial frame at the given GMST.

    A row has the same bits alone, as a 1-D vector or in any batch.
    """
    return _rotate(position_ecef, -gmst)


def geodetic_to_ecef(
    latitude_deg: float, longitude_deg: float, altitude_km: float = 0.0
) -> np.ndarray:
    """WGS-84 geodetic coordinates to an ECEF position vector (km)."""
    lat = np.radians(np.asarray(latitude_deg, dtype=float))
    lon = np.radians(np.asarray(longitude_deg, dtype=float))
    alt = np.asarray(altitude_km, dtype=float)
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * np.sin(lat) ** 2)
    x = (n + alt) * np.cos(lat) * np.cos(lon)
    y = (n + alt) * np.cos(lat) * np.sin(lon)
    z = (n * (1.0 - _WGS84_E2) + alt) * np.sin(lat)
    return np.stack([x, y, z], axis=-1)


def ecef_to_geodetic(position_ecef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ECEF position (km) to WGS-84 geodetic (lat deg, lon deg, alt km).

    Uses Bowring's iterative method (a handful of iterations is sufficient
    for millimetre-level accuracy at LEO altitudes).
    """
    position_ecef = np.asarray(position_ecef, dtype=float)
    x, y, z = position_ecef[..., 0], position_ecef[..., 1], position_ecef[..., 2]
    lon = np.arctan2(y, x)
    p = np.sqrt(x * x + y * y)
    lat = np.arctan2(z, p * (1.0 - _WGS84_E2))
    for _ in range(5):
        n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * np.sin(lat) ** 2)
        alt = p / np.cos(lat) - n
        lat = np.arctan2(z, p * (1.0 - _WGS84_E2 * n / (n + alt)))
    n = _WGS84_A / np.sqrt(1.0 - _WGS84_E2 * np.sin(lat) ** 2)
    alt = p / np.cos(lat) - n
    return np.degrees(lat), np.degrees(lon), alt


def geodetic_latitude_distance_km(position_ecef: np.ndarray, latitude_deg: float) -> np.ndarray:
    """A lower bound [km] on each ECEF point's distance to a geodetic latitude.

    The points of geodetic latitude φ lie on the ellipsoid's normals at φ,
    which in a meridian plane form the line ``z·cos φ − p·sin φ +
    e²·N(φ)·sin φ·cos φ = 0`` (``p`` the distance from the polar axis,
    ``N`` the prime vertical radius of curvature).  Its coefficients of
    ``(p, z)`` are a unit normal, so the left side's magnitude is the
    distance to that line, and no point of the surface of revolution lies
    closer to a point than the line in the point's own meridian plane.
    """
    position_ecef = np.asarray(position_ecef, dtype=float)
    x, y, z = position_ecef[..., 0], position_ecef[..., 1], position_ecef[..., 2]
    latitude = math.radians(latitude_deg)
    sin_lat, cos_lat = math.sin(latitude), math.cos(latitude)
    normal_n = _WGS84_A / math.sqrt(1.0 - _WGS84_E2 * sin_lat * sin_lat)
    offset = _WGS84_E2 * normal_n * sin_lat * cos_lat
    return np.abs(z * cos_lat - np.sqrt(x * x + y * y) * sin_lat + offset)


def ecef_to_geocentric_latlon(position_ecef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ECEF position (km) to geocentric latitude and longitude (degrees).

    The cheap companion of :func:`ecef_to_geodetic`: no ellipsoid
    iteration, just two ``arctan2``.  The longitude is *bitwise identical*
    to the geodetic longitude (same formula); the geocentric latitude
    deviates from the geodetic one by at most
    :data:`GEOCENTRIC_LATITUDE_MARGIN_DEG` for points at or above the
    surface, which lets callers (the bounding-box test) classify points
    provably far from a latitude threshold without the full conversion.
    """
    position_ecef = np.asarray(position_ecef, dtype=float)
    x, y, z = position_ecef[..., 0], position_ecef[..., 1], position_ecef[..., 2]
    lon = np.arctan2(y, x)
    lat = np.arctan2(z, np.sqrt(x * x + y * y))
    return np.degrees(lat), np.degrees(lon)


def great_circle_distance_km(
    lat1_deg: float, lon1_deg: float, lat2_deg: float, lon2_deg: float
) -> float:
    """Great-circle distance between two points on the mean-radius sphere."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat1_deg, lon1_deg, lat2_deg, lon2_deg))
    d_lat = lat2 - lat1
    d_lon = lon2 - lon1
    a = (
        math.sin(d_lat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(d_lon / 2.0) ** 2
    )
    return 2.0 * constants.EARTH_RADIUS_MEAN_KM * math.asin(min(1.0, math.sqrt(a)))
