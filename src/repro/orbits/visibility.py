"""Visibility computations: elevation angles and inter-satellite line of sight.

Celestial's constellation calculation uses two visibility rules (§3.1):

* an ISL is only usable while the line of sight between the two satellites
  does not dip into the atmosphere (refraction would break the laser link);
* a ground station can only communicate with satellites above a configurable
  minimum elevation angle over the horizon.
"""

from __future__ import annotations

import numpy as np


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over a length-3 last axis, in column form.

    Bitwise equal to ``np.add.reduce(u * v, axis=-1)``: a reduction of
    fewer than eight elements is a sequential sum started from ``+0.0``,
    which ``(p0 + p1) + p2`` repeats except for the sign of a zero sum —
    the trailing ``+ 0.0`` turns ``-0.0`` into ``+0.0`` as the reduction
    does.  Three products and three sums over column views skip the ufunc
    reduce machinery, which dominates at the epoch's row counts.
    """
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]) + 0.0


def _row_norm(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over a length-3 last axis: ``sqrt(_dot(x, x))``.

    The same bits as ``np.linalg.norm(vectors, axis=-1)``, which is
    ``sqrt(add.reduce(x * x, axis=-1))`` for real input.
    """
    return np.sqrt(_dot(vectors, vectors))


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
        sin_elevation = _dot(to_satellite, ground) / (range_norm * ground_norm)
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
    ab_sq = _dot(ab, ab)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(-_dot(a, ab) / np.where(ab_sq == 0, 1.0, ab_sq), 0.0, 1.0)
    closest = a + ab * t[..., None] if np.ndim(t) else a + ab * t
    return _row_norm(closest)
