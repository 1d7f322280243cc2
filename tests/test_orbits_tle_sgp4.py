"""Unit tests for TLE handling and the SGP4 propagator."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.orbits import (
    KeplerPropagator,
    KeplerianElements,
    SGP4Error,
    SGP4Propagator,
    TwoLineElement,
    constants,
)
from repro.orbits.tle import TLEError, _checksum


def _circular(altitude_km, inclination_deg, raan_deg=0.0, mean_anomaly_deg=0.0):
    return KeplerianElements(
        constants.EARTH_RADIUS_KM + altitude_km, 0.0, inclination_deg, raan_deg, 0.0,
        mean_anomaly_deg,
    )


def _starlink_like_elements(mean_anomaly=10.0, raan=120.0):
    return _circular(550.0, 53.0, raan_deg=raan, mean_anomaly_deg=mean_anomaly)


def _starlink_like_tle(bstar=0.0):
    return TwoLineElement.from_elements(
        _starlink_like_elements(),
        epoch=datetime(2022, 1, 1),
        name="TESTSAT",
        bstar=bstar,
    )


#: A published TLE (the ISS, 2008-09-20) with valid checksums.
ISS_LINES = (
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537",
)


class TestTLE:
    def test_parse_published_tle(self):
        tle = TwoLineElement.parse(*ISS_LINES, name=" ISS (ZARYA) ")
        assert tle.name == "ISS (ZARYA)"
        assert tle.epoch == datetime(2008, 9, 20) + timedelta(days=0.51782528)
        assert tle.inclination_deg == 51.6416
        assert tle.raan_deg == 247.4627
        assert tle.eccentricity == pytest.approx(0.0006703)
        assert tle.arg_perigee_deg == 130.536
        assert tle.mean_anomaly_deg == 325.0288
        assert tle.mean_motion_rev_day == 15.72125391
        assert tle.bstar == pytest.approx(-1.1606e-5)
        assert 6700.0 < np.linalg.norm(SGP4Propagator(tle).position_eci(600.0)) < 6800.0

    def test_checksum_rejects_corruption(self):
        line1, line2 = ISS_LINES
        corrupted = line1[:20] + "9" + line1[21:]
        with pytest.raises(TLEError):
            TwoLineElement.parse(corrupted, line2)

    def test_wrong_line_number_rejected(self):
        line1, line2 = ISS_LINES
        with pytest.raises(TLEError):
            TwoLineElement.parse(line2, line1)

    def test_short_line_rejected(self):
        with pytest.raises(TLEError):
            TwoLineElement.parse("1 00878U", "2 00878")

    def test_checksum_rule_counts_minus_as_one(self):
        assert _checksum("-" * 68) == 68 % 10
        assert _checksum("0" * 68) == 0
        assert _checksum("1" + "0" * 67) == 1

    def test_from_elements_keeps_the_mean_elements(self):
        tle = _starlink_like_tle(bstar=1.5e-4)
        assert tle.inclination_deg == 53.0
        assert tle.raan_deg == 120.0
        assert tle.mean_anomaly_deg == 10.0
        assert tle.bstar == 1.5e-4
        assert tle.epoch == datetime(2022, 1, 1)
        assert tle.mean_motion_rev_day == pytest.approx(15.05, abs=0.05)

    def test_period_property(self):
        tle = _starlink_like_tle()
        assert tle.period_s == pytest.approx(_starlink_like_elements().period_s, rel=1e-6)


class TestSGP4:
    def test_position_radius_near_circular_altitude(self):
        propagator = SGP4Propagator(_starlink_like_tle())
        for t in np.linspace(0.0, 6000.0, 25):
            radius = np.linalg.norm(propagator.position_eci(float(t)))
            assert 6900.0 < radius < 6960.0

    def test_velocity_magnitude(self):
        propagator = SGP4Propagator(_starlink_like_tle())
        _, velocity = propagator.position_velocity_eci(300.0)
        speed = np.linalg.norm(velocity)
        assert speed == pytest.approx(7.59, abs=0.1)

    def test_orbit_roughly_periodic(self):
        tle = _starlink_like_tle()
        propagator = SGP4Propagator(tle)
        start = propagator.position_eci(0.0)
        after_period = propagator.position_eci(tle.period_s)
        # J2 causes the orbit not to close exactly, but the satellite should be
        # within a small fraction of the orbit circumference of its start.
        assert np.linalg.norm(after_period - start) < 300.0

    def test_agreement_with_kepler_over_short_horizon(self):
        tle = _starlink_like_tle()
        sgp4 = SGP4Propagator(tle)
        kepler = KeplerPropagator(_starlink_like_elements(), include_j2=True)
        for t in (0.0, 300.0, 900.0, 1800.0):
            difference = np.linalg.norm(sgp4.position_eci(t) - kepler.position_eci(t))
            # Same mean elements, slightly different periodic terms: the two
            # models should stay within a few tens of kilometres.
            assert difference < 60.0

    def test_inclination_respected(self):
        propagator = SGP4Propagator(_starlink_like_tle())
        samples = np.array(
            [propagator.position_eci(t) for t in np.linspace(0, 6000.0, 300)]
        )
        max_z_fraction = np.max(np.abs(samples[:, 2])) / np.mean(
            np.linalg.norm(samples, axis=1)
        )
        assert math.degrees(math.asin(max_z_fraction)) == pytest.approx(53.0, abs=0.5)

    def test_raan_regression_moves_node_westward(self):
        tle = _starlink_like_tle()
        propagator = SGP4Propagator(tle)
        day = constants.SECONDS_PER_DAY
        # Sample the ascending node by looking at where the satellite crosses
        # the equatorial plane going north, at t=0 and one day later.
        def ascending_node_longitude(start):
            previous = propagator.position_eci(start)
            for t in np.arange(start + 10.0, start + 7000.0, 10.0):
                current = propagator.position_eci(float(t))
                if previous[2] < 0.0 <= current[2]:
                    return math.atan2(current[1], current[0])
                previous = current
            raise AssertionError("no ascending node found")

        node_start = ascending_node_longitude(0.0)
        node_later = ascending_node_longitude(day)
        drift = (node_later - node_start + math.pi) % (2 * math.pi) - math.pi
        assert math.degrees(drift) == pytest.approx(-5.0, abs=1.5)

    def test_drag_decays_orbit(self):
        with_drag = SGP4Propagator(_starlink_like_tle(bstar=5e-4))
        without_drag = SGP4Propagator(_starlink_like_tle(bstar=0.0))
        week = 7 * constants.SECONDS_PER_DAY
        radius_with = np.linalg.norm(with_drag.position_eci(week))
        radius_without = np.linalg.norm(without_drag.position_eci(week))
        assert radius_with < radius_without

    def test_deep_space_orbit_rejected(self):
        geostationary = _circular(35786.0, 0.1)
        tle = TwoLineElement.from_elements(geostationary, epoch=datetime(2022, 1, 1))
        with pytest.raises(SGP4Error):
            SGP4Propagator(tle)

    def test_decayed_orbit_raises(self):
        low = _circular(120.0, 53.0)
        tle = TwoLineElement.from_elements(low, epoch=datetime(2022, 1, 1), bstar=1e-2)
        propagator = SGP4Propagator(tle)
        with pytest.raises(SGP4Error):
            propagator.position_eci(30 * constants.SECONDS_PER_DAY)
