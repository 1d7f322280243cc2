"""Ground-station uplink selection.

A ground station can communicate with every satellite currently above its
configured minimum elevation angle (§3.1).  Celestial configures network
links to all of them; applications (such as the §4 tracking service) then
decide which satellite server to use.

:func:`visible_satellites` is the per-pair reference: one ground point, one
shell.  The constellation calculation does not call it on its hot path — it
calls :func:`visible_satellites_batch` once per snapshot, which answers for
every ground station and every shell at once with one flat ``(station,
satellite, slant range)`` table (the rows of the snapshot's uplink edges),
bit for bit the values the per-pair form returns.
"""

from __future__ import annotations

import numpy as np

from repro.orbits import constants
from repro.orbits.visibility import (
    elevation_angle_deg,
    elevation_angle_matrix_deg,
    slant_range_km,
)


def visible_satellites(
    ground_position: np.ndarray,
    satellite_positions: np.ndarray,
    min_elevation_deg: float = constants.DEFAULT_MIN_ELEVATION_DEG,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and slant ranges [km] of satellites visible from a ground point.

    Both positions must be in the same frame at the same instant; the
    satellite positions array has shape (N, 3).
    """
    satellite_positions = np.asarray(satellite_positions, dtype=float)
    elevations = elevation_angle_deg(ground_position, satellite_positions)
    visible = np.nonzero(elevations >= min_elevation_deg)[0]
    distances = slant_range_km(ground_position, satellite_positions[visible])
    return visible, np.atleast_1d(distances)


def visible_satellites_batch(
    ground_positions: np.ndarray,
    satellite_positions: np.ndarray,
    min_elevations_deg: np.ndarray | float = constants.DEFAULT_MIN_ELEVATION_DEG,
    elevations_deg: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visible (station, satellite) pairs of all ground stations as one flat table.

    ``ground_positions`` has shape (G, 3) and ``min_elevations_deg`` is a
    scalar, a (G,) array of per-station or a (G, N) array of per-pair
    thresholds.  Returns three parallel arrays ``(stations, satellites,
    ranges_km)`` with one entry per visible pair, ordered by station and
    then by satellite index: the rows of station ``g`` are — bitwise — the
    ``(visible indices, slant ranges km)`` that :func:`visible_satellites`
    returns for that station, and the slant ranges of all stations come from
    a single :func:`~repro.orbits.visibility.slant_range_km` call.

    Every G×N pair is tested against its threshold in one batched
    operation on the (G, N) elevation matrix
    (:func:`~repro.orbits.visibility.elevation_angle_matrix_deg`), which a
    caller that already holds it passes as ``elevations_deg``.
    """
    ground_positions = np.asarray(ground_positions, dtype=float).reshape(-1, 3)
    satellite_positions = np.asarray(satellite_positions, dtype=float)
    thresholds = np.asarray(min_elevations_deg, dtype=float)
    thresholds = np.broadcast_to(
        thresholds[:, None] if thresholds.ndim == 1 else thresholds,
        (ground_positions.shape[0], satellite_positions.shape[0]),
    )
    if elevations_deg is None:
        elevations_deg = elevation_angle_matrix_deg(ground_positions, satellite_positions)
    stations, satellites = np.nonzero(elevations_deg >= thresholds)
    ranges_km = slant_range_km(ground_positions[stations], satellite_positions[satellites])
    return stations, satellites, ranges_km
