"""Keplerian elements and two-body (plus secular J2) orbit propagation.

This is the fast, vectorisable propagator used for constellation-scale
updates.  The scalar :class:`SGP4Propagator` (see :mod:`repro.orbits.sgp4`)
provides the SGP4-class model the paper mentions; for circular LEO
constellation shells the dominant perturbation is the secular J2 drift of the
ascending node, argument of perigee and mean anomaly, which this propagator
includes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.orbits import constants


def mean_motion_from_semi_major_axis(semi_major_axis_km: float) -> float:
    """Mean motion [rad/s] for a given semi-major axis [km]."""
    if semi_major_axis_km <= 0:
        raise ValueError("semi-major axis must be positive")
    return math.sqrt(constants.EARTH_MU_KM3_S2 / semi_major_axis_km**3)


def solve_kepler(mean_anomaly_rad, eccentricity, tolerance: float = 1e-12):
    """Solve Kepler's equation ``M = E - e sin E`` for the eccentric anomaly.

    Works on scalars or NumPy arrays via Newton-Raphson iteration.
    """
    mean_anomaly = np.asarray(mean_anomaly_rad, dtype=float)
    ecc = np.asarray(eccentricity, dtype=float)
    if np.any(ecc < 0) or np.any(ecc >= 1):
        raise ValueError("eccentricity must be in [0, 1) for elliptical orbits")
    # Wrap the mean anomaly into [-pi, pi] for robust Newton convergence and
    # restore the full-revolution offset afterwards (E and M share it).
    wrapped = (mean_anomaly + math.pi) % (2.0 * math.pi) - math.pi
    revolutions = mean_anomaly - wrapped
    eccentric = np.where(
        ecc < 0.8, wrapped, np.copysign(math.pi, np.where(wrapped == 0.0, 1.0, wrapped))
    )
    for _ in range(60):
        delta = (eccentric - ecc * np.sin(eccentric) - wrapped) / (
            1.0 - ecc * np.cos(eccentric)
        )
        eccentric = eccentric - delta
        if np.all(np.abs(delta) < tolerance):
            break
    eccentric = eccentric + revolutions
    if np.isscalar(mean_anomaly_rad) and np.isscalar(eccentricity):
        return float(eccentric)
    return eccentric


def j2_secular_rates(
    semi_major_axis_km: float, eccentricity: float, inclination_rad: float
) -> tuple[float, float, float]:
    """Secular J2 rates (raan_dot, argp_dot, m_dot correction) in rad/s."""
    n = mean_motion_from_semi_major_axis(semi_major_axis_km)
    p = semi_major_axis_km * (1.0 - eccentricity**2)
    factor = 1.5 * constants.EARTH_J2 * (constants.EARTH_RADIUS_KM / p) ** 2 * n
    cos_i = math.cos(inclination_rad)
    raan_dot = -factor * cos_i
    argp_dot = factor * (2.0 - 2.5 * math.sin(inclination_rad) ** 2)
    m_dot = factor * math.sqrt(1.0 - eccentricity**2) * (1.0 - 1.5 * math.sin(inclination_rad) ** 2)
    return raan_dot, argp_dot, m_dot


@dataclass(frozen=True)
class KeplerianElements:
    """Classical orbital elements at the reference epoch (angles in degrees)."""

    semi_major_axis_km: float
    eccentricity: float
    inclination_deg: float
    raan_deg: float
    arg_perigee_deg: float
    mean_anomaly_deg: float

    def __post_init__(self):
        if self.semi_major_axis_km <= constants.EARTH_RADIUS_KM:
            raise ValueError(
                "semi-major axis must exceed the Earth radius "
                f"({self.semi_major_axis_km} km given)"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError("eccentricity must be in [0, 1)")

    @property
    def mean_motion_rad_s(self) -> float:
        """Two-body mean motion [rad/s]."""
        return mean_motion_from_semi_major_axis(self.semi_major_axis_km)

    @property
    def period_s(self) -> float:
        """Orbital period [s]."""
        return 2.0 * math.pi / self.mean_motion_rad_s

    @property
    def altitude_km(self) -> float:
        """Altitude of a circular orbit above the equatorial radius [km]."""
        return self.semi_major_axis_km - constants.EARTH_RADIUS_KM


def perifocal_to_eci_matrix(
    inclination_rad: float, raan_rad: float, arg_perigee_rad: float
) -> np.ndarray:
    """Rotation matrix from the perifocal frame to ECI."""
    cos_o, sin_o = math.cos(raan_rad), math.sin(raan_rad)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    cos_w, sin_w = math.cos(arg_perigee_rad), math.sin(arg_perigee_rad)
    return np.array(
        [
            [
                cos_o * cos_w - sin_o * sin_w * cos_i,
                -cos_o * sin_w - sin_o * cos_w * cos_i,
                sin_o * sin_i,
            ],
            [
                sin_o * cos_w + cos_o * sin_w * cos_i,
                -sin_o * sin_w + cos_o * cos_w * cos_i,
                -cos_o * sin_i,
            ],
            [sin_w * sin_i, cos_w * sin_i, cos_i],
        ]
    )


class KeplerPropagator:
    """Propagates Keplerian elements, optionally with secular J2 drift."""

    def __init__(self, elements: KeplerianElements, include_j2: bool = True):
        self.elements = elements
        incl = math.radians(elements.inclination_deg)
        if include_j2:
            self._raan_dot, self._argp_dot, self._m_dot_extra = j2_secular_rates(
                elements.semi_major_axis_km, elements.eccentricity, incl
            )
        else:
            self._raan_dot = self._argp_dot = self._m_dot_extra = 0.0

    def elements_at(self, t_seconds: float) -> KeplerianElements:
        """Osculating (secularly-updated) elements at an offset from epoch."""
        el = self.elements
        n = el.mean_motion_rad_s + self._m_dot_extra
        mean_anomaly = math.radians(el.mean_anomaly_deg) + n * t_seconds
        raan = math.radians(el.raan_deg) + self._raan_dot * t_seconds
        argp = math.radians(el.arg_perigee_deg) + self._argp_dot * t_seconds
        return KeplerianElements(
            semi_major_axis_km=el.semi_major_axis_km,
            eccentricity=el.eccentricity,
            inclination_deg=el.inclination_deg,
            raan_deg=math.degrees(raan) % 360.0,
            arg_perigee_deg=math.degrees(argp) % 360.0,
            mean_anomaly_deg=math.degrees(mean_anomaly) % 360.0,
        )

    def position_velocity_eci(self, t_seconds: float) -> tuple[np.ndarray, np.ndarray]:
        """ECI position [km] and velocity [km/s] at an offset from epoch."""
        el = self.elements_at(t_seconds)
        a, ecc = el.semi_major_axis_km, el.eccentricity
        mean_anomaly = math.radians(el.mean_anomaly_deg)
        eccentric = solve_kepler(mean_anomaly, ecc)
        cos_e, sin_e = math.cos(eccentric), math.sin(eccentric)
        radius = a * (1.0 - ecc * cos_e)
        true_anomaly = math.atan2(
            math.sqrt(1.0 - ecc * ecc) * sin_e, cos_e - ecc
        )
        position_pf = radius * np.array(
            [math.cos(true_anomaly), math.sin(true_anomaly), 0.0]
        )
        p = a * (1.0 - ecc * ecc)
        coeff = math.sqrt(constants.EARTH_MU_KM3_S2 / p)
        velocity_pf = coeff * np.array(
            [-math.sin(true_anomaly), ecc + math.cos(true_anomaly), 0.0]
        )
        rotation = perifocal_to_eci_matrix(
            math.radians(el.inclination_deg),
            math.radians(el.raan_deg),
            math.radians(el.arg_perigee_deg),
        )
        return rotation @ position_pf, rotation @ velocity_pf

    def position_eci(self, t_seconds: float) -> np.ndarray:
        """ECI position [km] at an offset from epoch."""
        position, _ = self.position_velocity_eci(t_seconds)
        return position
