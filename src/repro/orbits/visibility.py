"""Visibility computations: elevation angles and inter-satellite line of sight.

Celestial's constellation calculation uses two visibility rules (§3.1):

* an ISL is only usable while the line of sight between the two satellites
  does not dip into the atmosphere (refraction would break the laser link);
* a ground station can only communicate with satellites above a configurable
  minimum elevation angle over the horizon.
"""

from __future__ import annotations

import numpy as np


def _row_norm(vectors: np.ndarray) -> np.ndarray:
    """`sqrt(sum(x², axis=-1))` — same reduction as ``np.linalg.norm`` (and
    therefore bitwise identical) without its gufunc dispatch overhead,
    which is measurable at the per-epoch call rates of the hot path."""
    return np.sqrt(np.add.reduce(vectors * vectors, axis=-1))


def slant_range_km(position_a: np.ndarray, position_b: np.ndarray) -> np.ndarray:
    """Euclidean distance [km] between two positions (broadcasts over rows)."""
    difference = np.asarray(position_b, dtype=float) - np.asarray(position_a, dtype=float)
    return _row_norm(difference)


def elevation_angle_deg(
    ground_position: np.ndarray, satellite_position: np.ndarray
) -> np.ndarray:
    """Elevation [deg] of a satellite above the local horizon of a ground point.

    Both positions must be expressed in the same frame at the same instant.
    """
    ground = np.asarray(ground_position, dtype=float)
    satellite = np.asarray(satellite_position, dtype=float)
    to_satellite = satellite - ground
    ground_norm = _row_norm(ground)
    range_norm = _row_norm(to_satellite)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_elevation = np.sum(to_satellite * ground, axis=-1) / (range_norm * ground_norm)
    sin_elevation = np.clip(sin_elevation, -1.0, 1.0)
    return np.degrees(np.arcsin(sin_elevation))


def elevation_angle_matrix_deg(
    ground_positions: np.ndarray, satellite_positions: np.ndarray
) -> np.ndarray:
    """Elevation matrix [deg] of shape ``(G, N)`` for G ground points and N satellites.

    One batched matrix operation over the stacked GST×satellite position
    array, replacing G separate :func:`elevation_angle_deg` calls on the
    constellation-snapshot hot path.  Row ``g`` is bitwise identical to
    ``elevation_angle_deg(ground_positions[g], satellite_positions)``: the
    broadcasting performs exactly the same elementwise operations in the same
    order, which the differential-update equivalence suite relies on.
    """
    ground = np.asarray(ground_positions, dtype=float).reshape(-1, 1, 3)
    satellites = np.asarray(satellite_positions, dtype=float)
    return elevation_angle_deg(ground, satellites)


def isl_closest_approach_km(
    position_a: np.ndarray, position_b: np.ndarray
) -> np.ndarray:
    """Closest approach [km] of the segment between two satellites to Earth's centre.

    An ISL is blocked while this falls below ``EARTH_RADIUS_KM`` plus the
    shell's atmosphere-grazing altitude.  The differential update path
    caches it between epochs: the function is 1-Lipschitz in each endpoint
    position, so between two epochs the value can move by at most the
    largest endpoint displacement — a certified margin that lets steady
    links skip the recomputation entirely.
    """
    a = np.asarray(position_a, dtype=float)
    b = np.asarray(position_b, dtype=float)
    ab = b - a
    ab_sq = np.sum(ab * ab, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(-np.sum(a * ab, axis=-1) / np.where(ab_sq == 0, 1.0, ab_sq), 0.0, 1.0)
    closest = a + ab * t[..., None] if np.ndim(t) else a + ab * t
    return _row_norm(closest)
