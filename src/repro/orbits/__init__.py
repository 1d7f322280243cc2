"""Orbital mechanics substrate: time, coordinates, Kepler, TLE, SGP4, shells.

Celestial's Constellation Calculation component is based on the SILLEO-SCNS
simulator extended with SGP4 (§3.1).  This package provides the equivalent
building blocks from scratch: astronomical time utilities, coordinate
transformations, two-body/Kepler propagation, TLE handling, an SGP4-class
simplified-perturbations propagator, Walker constellation shells and ground
stations, and visibility computations (elevation angles, the closest
approach of an ISL to the Earth's centre).
"""

from repro.orbits import constants
from repro.orbits.time_utils import Epoch, gmst_rad, julian_date
from repro.orbits.coordinates import (
    GEOCENTRIC_LATITUDE_MARGIN_DEG,
    ecef_to_eci,
    ecef_to_geocentric_latlon,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
)
from repro.orbits.kepler import (
    KeplerianElements,
    KeplerPropagator,
    mean_motion_from_semi_major_axis,
    solve_kepler,
)
from repro.orbits.tle import TwoLineElement
from repro.orbits.sgp4 import SGP4Error, SGP4Propagator
from repro.orbits.shells import Satellite, Shell, ShellGeometry
from repro.orbits.ground import GroundStation
from repro.orbits.visibility import (
    elevation_angle_deg,
    slant_range_km,
)

__all__ = [
    "Epoch",
    "GroundStation",
    "KeplerPropagator",
    "KeplerianElements",
    "SGP4Error",
    "SGP4Propagator",
    "Satellite",
    "Shell",
    "ShellGeometry",
    "TwoLineElement",
    "constants",
    "ecef_to_eci",
    "GEOCENTRIC_LATITUDE_MARGIN_DEG",
    "ecef_to_geocentric_latlon",
    "ecef_to_geodetic",
    "eci_to_ecef",
    "elevation_angle_deg",
    "geodetic_to_ecef",
    "gmst_rad",
    "julian_date",
    "mean_motion_from_semi_major_axis",
    "slant_range_km",
    "solve_kepler",
]
