"""Unit tests for astronomical time utilities and coordinate transforms."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits import (
    GEOCENTRIC_LATITUDE_MARGIN_DEG,
    Epoch,
    ecef_to_eci,
    ecef_to_geocentric_latlon,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    gmst_rad,
    julian_date,
)
from repro.orbits.coordinates import great_circle_distance_km


def test_julian_date_j2000():
    assert julian_date(datetime(2000, 1, 1, 12, 0, 0)) == pytest.approx(2451545.0)


def test_julian_date_known_value():
    # 1999-01-01 00:00 UT is JD 2451179.5 (standard almanac value).
    assert julian_date(datetime(1999, 1, 1, 0, 0, 0)) == pytest.approx(2451179.5)


def test_julian_date_timezone_aware():
    aware = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
    assert julian_date(aware) == pytest.approx(2451545.0)


def test_gmst_at_j2000_reference():
    # GMST at J2000.0 is approximately 280.46 degrees.
    gmst = math.degrees(gmst_rad(2451545.0))
    assert gmst == pytest.approx(280.46061837, abs=1e-6)


def test_gmst_advances_faster_than_solar_day():
    jd = 2459580.5
    one_day_later = gmst_rad(jd + 1.0) - gmst_rad(jd)
    # Earth rotates ~360.9856 degrees per solar day; modulo 2pi the difference
    # is ~0.9856 degrees.
    assert math.degrees(one_day_later) % 360.0 == pytest.approx(0.9856, abs=1e-3)


def test_epoch_offsets_and_gmst():
    epoch = Epoch(datetime(2022, 1, 1))
    assert epoch.julian_date_at(86400.0) == pytest.approx(epoch.julian_date + 1.0)
    assert 0.0 <= epoch.gmst_at(0.0) < 2 * math.pi


def test_geodetic_to_ecef_equator_prime_meridian():
    position = geodetic_to_ecef(0.0, 0.0, 0.0)
    assert position[0] == pytest.approx(6378.137, abs=1e-6)
    assert position[1] == pytest.approx(0.0, abs=1e-9)
    assert position[2] == pytest.approx(0.0, abs=1e-9)


def test_geodetic_to_ecef_north_pole():
    position = geodetic_to_ecef(90.0, 0.0, 0.0)
    # Polar radius of the WGS-84 ellipsoid is ~6356.752 km.
    assert position[2] == pytest.approx(6356.7523, abs=1e-3)
    assert abs(position[0]) < 1e-6


def test_eci_ecef_roundtrip():
    position = np.array([7000.0, -1234.5, 3000.0])
    gmst = 1.234
    roundtrip = ecef_to_eci(eci_to_ecef(position, gmst), gmst)
    np.testing.assert_allclose(roundtrip, position, atol=1e-9)


def test_eci_to_ecef_rotation_preserves_norm_and_z():
    position = np.array([7000.0, 100.0, 2000.0])
    rotated = eci_to_ecef(position, 0.7)
    assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(position))
    assert rotated[2] == pytest.approx(position[2])


def test_eci_to_ecef_rows_do_not_depend_on_the_batch():
    # One call over all shells must equal one call per shell, down to a
    # shell of one satellite.
    positions = np.random.default_rng(3).normal(size=(200, 3)) * 7000.0
    rotated = eci_to_ecef(positions, 1.3)
    for start, stop in ((0, 1), (7, 8), (8, 10), (10, 97), (97, 200)):
        assert eci_to_ecef(positions[start:stop], 1.3).tobytes() == rotated[start:stop].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    latitude=st.floats(min_value=-85.0, max_value=85.0),
    longitude=st.floats(min_value=-179.9, max_value=179.9),
    altitude=st.floats(min_value=0.0, max_value=2000.0),
)
def test_property_geodetic_roundtrip(latitude, longitude, altitude):
    ecef = geodetic_to_ecef(latitude, longitude, altitude)
    lat2, lon2, alt2 = ecef_to_geodetic(ecef)
    assert lat2 == pytest.approx(latitude, abs=1e-6)
    assert lon2 == pytest.approx(longitude, abs=1e-6)
    assert alt2 == pytest.approx(altitude, abs=1e-3)


def test_subsatellite_point_over_equator():
    # A satellite on the x-axis in ECI with GMST=0 is directly over (0, 0).
    position = np.array([7000.0, 0.0, 0.0])
    lat, lon, _ = ecef_to_geodetic(eci_to_ecef(position, 0.0))
    assert lat == pytest.approx(0.0, abs=1e-9)
    assert lon == pytest.approx(0.0, abs=1e-9)


def test_subsatellite_point_accounts_for_earth_rotation():
    position = np.array([7000.0, 0.0, 0.0])
    quarter_turn = math.pi / 2.0
    _, lon, _ = ecef_to_geodetic(eci_to_ecef(position, quarter_turn))
    assert lon == pytest.approx(-90.0, abs=1e-6)


def test_geocentric_latitude_margin_is_certified():
    """Longitude is bitwise the geodetic one; the geocentric latitude stays
    within the documented margin of the geodetic latitude for points at or
    above the WGS-84 surface."""
    rng = np.random.default_rng(0)
    points = rng.normal(size=(50000, 3))
    points /= np.sqrt((points * points).sum(axis=1, keepdims=True))
    points *= rng.uniform(6378.137, 8400.0, (points.shape[0], 1))
    geocentric_lat, lon = ecef_to_geocentric_latlon(points)
    geodetic_lat, geodetic_lon, _ = ecef_to_geodetic(points)
    assert np.array_equal(lon, geodetic_lon)
    deviation = np.abs(geodetic_lat - geocentric_lat)
    assert deviation.max() < GEOCENTRIC_LATITUDE_MARGIN_DEG
    # The margin is tight-ish: the true surface maximum is ≈ 0.1924°.
    assert deviation.max() > 0.15


def test_great_circle_distance_quarter_meridian():
    # Equator to pole along a meridian is roughly 10,008 km on the mean sphere.
    distance = great_circle_distance_km(0.0, 0.0, 90.0, 0.0)
    assert distance == pytest.approx(10007.5, rel=1e-3)


def test_great_circle_distance_symmetry_and_zero():
    assert great_circle_distance_km(10.0, 20.0, 10.0, 20.0) == 0.0
    forward = great_circle_distance_km(6.5, -3.4, 4.05, 9.7)
    backward = great_circle_distance_km(4.05, 9.7, 6.5, -3.4)
    assert forward == pytest.approx(backward)
