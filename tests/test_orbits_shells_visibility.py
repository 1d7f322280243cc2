"""Unit tests for constellation shells, ground stations and visibility rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits import (
    GroundStation,
    KeplerPropagator,
    Satellite,
    Shell,
    ShellGeometry,
    constants,
    elevation_angle_deg,
    geodetic_to_ecef,
    slant_range_km,
)
from repro.orbits.visibility import isl_closest_approach_km
from repro.topology import visible_satellites_batch

#: The closest approach below which an ISL is blocked (the default shell's limit).
_GRAZING_LIMIT_KM = constants.EARTH_RADIUS_KM + constants.ATMOSPHERE_GRAZING_ALTITUDE_KM


def _small_shell(**overrides):
    parameters = dict(
        planes=6,
        satellites_per_plane=11,
        altitude_km=780.0,
        inclination_deg=86.4,
        arc_of_ascending_nodes_deg=180.0,
    )
    parameters.update(overrides)
    return ShellGeometry(**parameters)


class TestShellGeometry:
    def test_total_satellites(self):
        assert _small_shell().total_satellites == 66

    def test_validation(self):
        with pytest.raises(ValueError):
            _small_shell(planes=0)
        with pytest.raises(ValueError):
            _small_shell(altitude_km=-5.0)
        with pytest.raises(ValueError):
            _small_shell(arc_of_ascending_nodes_deg=0.0)

    def test_star_vs_delta(self):
        assert _small_shell().is_polar_star
        assert not _small_shell(arc_of_ascending_nodes_deg=360.0).is_polar_star

    def test_period_of_550km_shell(self):
        geometry = ShellGeometry(72, 22, 550.0, 53.0)
        assert geometry.period_s / 60.0 == pytest.approx(95.6, abs=0.5)


class TestShell:
    def test_satellite_identities(self):
        shell = Shell(_small_shell(), shell_index=1)
        assert len(shell) == 66
        first = Satellite(shell_index=1, identifier=0)
        assert first.name == "0.1.celestial"
        # Identifiers run plane by plane: 0 is slot 0 of plane 0, 65 slot 10 of plane 5.
        elements = shell.elements_for(first)
        assert (elements.raan_deg, elements.mean_anomaly_deg) == (0.0, 0.0)
        spacing = 360.0 / 11
        last = shell.elements_for(Satellite(shell_index=1, identifier=65))
        assert last.raan_deg == pytest.approx(5 * 180.0 / 6)
        assert last.mean_anomaly_deg == pytest.approx(10 * spacing + 5 * 0.5 * spacing / 6)

    def test_positions_shape_and_altitude(self):
        shell = Shell(_small_shell())
        positions = shell.positions_eci(0.0)
        assert positions.shape == (66, 3)
        radii = np.linalg.norm(positions, axis=1)
        np.testing.assert_allclose(radii, constants.EARTH_RADIUS_KM + 780.0, rtol=1e-6)

    def test_satellites_in_same_plane_evenly_spaced(self):
        shell = Shell(_small_shell())
        positions = shell.positions_eci(0.0)
        plane0 = positions[:11]
        # Angle between consecutive satellites should be 360/11 degrees.
        for i in range(10):
            a, b = plane0[i], plane0[i + 1]
            cos_angle = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            angle = math.degrees(math.acos(np.clip(cos_angle, -1, 1)))
            assert angle == pytest.approx(360.0 / 11.0, abs=0.01)

    def test_star_shell_spreads_nodes_over_half_circle(self):
        shell = Shell(_small_shell())
        raan = shell._raan_deg
        assert raan.max() < 180.0
        delta_shell = Shell(_small_shell(arc_of_ascending_nodes_deg=360.0))
        assert delta_shell._raan_deg.max() > 270.0

    def test_positions_change_over_time(self):
        shell = Shell(_small_shell())
        p0 = shell.positions_eci(0.0)
        p1 = shell.positions_eci(60.0)
        movement = np.linalg.norm(p1 - p0, axis=1)
        # ~7.4 km/s orbital velocity -> about 440 km per minute.
        assert np.all(movement > 300.0)
        assert np.all(movement < 600.0)

    def test_kepler_and_vectorised_propagation_agree(self):
        shell = Shell(_small_shell())
        satellite = Satellite(shell_index=0, identifier=17)
        scalar = KeplerPropagator(shell.elements_for(satellite))
        for t in (0.0, 120.0, 1200.0):
            vector_position = shell.positions_eci(t)[satellite.identifier]
            scalar_position = scalar.position_eci(t)
            assert np.linalg.norm(vector_position - scalar_position) < 1.0

    def test_sgp4_shell_close_to_kepler_shell(self):
        geometry = ShellGeometry(3, 4, 550.0, 53.0)
        kepler_shell = Shell(geometry, propagator="kepler_j2")
        sgp4_shell = Shell(geometry, propagator="sgp4")
        difference = np.linalg.norm(
            kepler_shell.positions_eci(600.0) - sgp4_shell.positions_eci(600.0), axis=1
        )
        assert np.all(difference < 60.0)

    def test_unknown_propagator_rejected(self):
        with pytest.raises(ValueError):
            Shell(_small_shell(), propagator="nonsense")

    def test_velocity_exceeds_27000_kmh(self):
        # Paper §1: LEO satellites move at speeds in excess of 27,000 km/h;
        # this holds for the dense 550 km Starlink shell.
        shell = Shell(ShellGeometry(72, 22, 550.0, 53.0))
        step_km = np.linalg.norm(shell.positions_eci(1.0) - shell.positions_eci(0.0), axis=1)
        assert np.all(step_km * 3600.0 > 27000.0)


class TestGroundStation:
    def test_position_on_equator(self):
        station = GroundStation("null-island", 0.0, 0.0)
        position = station.position_ecef
        assert position[0] == pytest.approx(6378.137, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            GroundStation("bad", 95.0, 0.0)
        with pytest.raises(ValueError):
            GroundStation("bad", 0.0, -200.0)

    def test_eci_position_rotates_with_gmst(self):
        station = GroundStation("greenwich", 51.477, 0.0)
        eci_0 = station.position_eci(0.0)
        eci_quarter = station.position_eci(math.pi / 2.0)
        assert np.linalg.norm(eci_0) == pytest.approx(np.linalg.norm(eci_quarter))
        assert not np.allclose(eci_0, eci_quarter)


class TestVisibility:
    def test_satellite_at_zenith_has_90_deg_elevation(self):
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellite = ground * (1.0 + 550.0 / np.linalg.norm(ground))
        assert elevation_angle_deg(ground, satellite) == pytest.approx(90.0, abs=1e-6)

    def test_satellite_below_horizon_negative_elevation(self):
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellite = geodetic_to_ecef(0.0, 180.0, 550.0)
        assert elevation_angle_deg(ground, satellite) < 0.0

    def test_min_elevation_threshold(self):
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        overhead = ground * 1.1
        low = geodetic_to_ecef(0.0, 60.0, 550.0)
        _, visible, _ = visible_satellites_batch(ground, np.stack([overhead, low]), 40.0)
        assert visible.tolist() == [0]

    def test_elevation_vectorised(self):
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellites = np.stack([ground * 1.1, geodetic_to_ecef(0.0, 90.0, 550.0)])
        angles = elevation_angle_deg(ground, satellites)
        assert angles.shape == (2,)
        assert angles[0] > angles[1]

    def test_isl_between_adjacent_satellites_clear(self):
        a = np.array([6928.0, 0.0, 0.0])
        b = np.array([6928.0 * math.cos(0.3), 6928.0 * math.sin(0.3), 0.0])
        assert isl_closest_approach_km(a, b) >= _GRAZING_LIMIT_KM

    def test_isl_between_antipodal_satellites_blocked(self):
        a = np.array([6928.0, 0.0, 0.0])
        b = np.array([-6928.0, 0.0, 0.0])
        assert isl_closest_approach_km(a, b) < _GRAZING_LIMIT_KM

    def test_max_isl_length_consistent_with_line_of_sight(self):
        # The longest ISL between two 550 km satellites is the chord tangent
        # to the grazing sphere: slightly shorter clears it, slightly longer
        # does not.
        radius = constants.EARTH_RADIUS_KM + 550.0
        length = 2.0 * math.sqrt(radius**2 - _GRAZING_LIMIT_KM**2)
        assert 4500.0 < length < 5600.0
        for scale, clear in ((0.99, True), (1.01, False)):
            half_angle = math.asin((length * scale) / (2.0 * radius))
            a = np.array([radius * math.cos(half_angle), radius * math.sin(half_angle), 0.0])
            b = np.array([radius * math.cos(half_angle), -radius * math.sin(half_angle), 0.0])
            assert (isl_closest_approach_km(a, b) >= _GRAZING_LIMIT_KM) == clear

    def test_slant_range(self):
        a = np.array([7000.0, 0.0, 0.0])
        b = np.array([7000.0, 3000.0, 4000.0])
        assert slant_range_km(a, b) == pytest.approx(5000.0)

    @settings(max_examples=50, deadline=None)
    @given(
        latitude=st.floats(min_value=-80.0, max_value=80.0),
        longitude=st.floats(min_value=-180.0, max_value=180.0),
    )
    def test_property_elevation_bounded(self, latitude, longitude):
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        satellite = geodetic_to_ecef(latitude, longitude, 550.0)
        angle = elevation_angle_deg(ground, satellite)
        assert -90.0 <= angle <= 90.0
