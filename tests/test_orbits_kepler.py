"""Unit and property tests for Keplerian elements and the Kepler propagator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits import (
    KeplerPropagator,
    KeplerianElements,
    constants,
    mean_motion_from_semi_major_axis,
    solve_kepler,
)
from repro.orbits.kepler import j2_secular_rates


def _circular(altitude_km, inclination_deg, raan_deg=0.0, mean_anomaly_deg=0.0):
    return KeplerianElements(
        constants.EARTH_RADIUS_KM + altitude_km, 0.0, inclination_deg, raan_deg, 0.0,
        mean_anomaly_deg,
    )


def test_mean_motion_of_550km_orbit():
    a = constants.EARTH_RADIUS_KM + 550.0
    period = 2 * math.pi / mean_motion_from_semi_major_axis(a)
    # A 550 km circular orbit has a period of roughly 95.5 minutes.
    assert period / 60.0 == pytest.approx(95.6, abs=0.5)


def test_mean_motion_semi_major_axis_roundtrip():
    a = 7000.0
    n = mean_motion_from_semi_major_axis(a)
    # Kepler's third law recovers the axis: a^3 n^2 = mu.
    assert (constants.EARTH_MU_KM3_S2 / n**2) ** (1.0 / 3.0) == pytest.approx(a)


def test_mean_motion_invalid_input():
    with pytest.raises(ValueError):
        mean_motion_from_semi_major_axis(-1.0)


def test_solve_kepler_circular_is_identity():
    assert solve_kepler(1.234, 0.0) == pytest.approx(1.234)


def test_solve_kepler_satisfies_equation():
    eccentric = solve_kepler(2.0, 0.3)
    assert eccentric - 0.3 * math.sin(eccentric) == pytest.approx(2.0, abs=1e-10)


def test_solve_kepler_rejects_hyperbolic():
    with pytest.raises(ValueError):
        solve_kepler(1.0, 1.2)


@settings(max_examples=100, deadline=None)
@given(
    mean_anomaly=st.floats(min_value=-10.0, max_value=10.0),
    eccentricity=st.floats(min_value=0.0, max_value=0.95),
)
def test_property_kepler_equation_residual(mean_anomaly, eccentricity):
    eccentric = solve_kepler(mean_anomaly, eccentricity)
    residual = eccentric - eccentricity * math.sin(eccentric) - mean_anomaly
    assert abs(residual) < 1e-9


def test_elements_validation():
    with pytest.raises(ValueError):
        KeplerianElements(6000.0, 0.0, 53.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        KeplerianElements(7000.0, 1.5, 53.0, 0.0, 0.0, 0.0)


def test_circular_constructor_and_altitude():
    elements = _circular(550.0, 53.0)
    assert elements.altitude_km == pytest.approx(550.0)
    assert elements.eccentricity == 0.0
    assert elements.period_s == pytest.approx(5736, rel=0.01)


def test_circular_orbit_radius_is_constant():
    elements = _circular(550.0, 53.0)
    propagator = KeplerPropagator(elements, include_j2=False)
    for t in np.linspace(0.0, elements.period_s, 13):
        radius = np.linalg.norm(propagator.position_eci(float(t)))
        assert radius == pytest.approx(elements.semi_major_axis_km, rel=1e-9)


def test_two_body_orbit_closes_after_one_period():
    elements = _circular(550.0, 53.0, raan_deg=30.0, mean_anomaly_deg=42.0)
    propagator = KeplerPropagator(elements, include_j2=False)
    start = propagator.position_eci(0.0)
    end = propagator.position_eci(elements.period_s)
    np.testing.assert_allclose(start, end, atol=1e-3)


def test_velocity_magnitude_circular():
    elements = _circular(550.0, 53.0)
    propagator = KeplerPropagator(elements, include_j2=False)
    _, velocity = propagator.position_velocity_eci(100.0)
    expected = math.sqrt(constants.EARTH_MU_KM3_S2 / elements.semi_major_axis_km)
    assert np.linalg.norm(velocity) == pytest.approx(expected, rel=1e-9)
    # LEO speed is in excess of 27,000 km/h (paper §1).
    assert np.linalg.norm(velocity) * 3600.0 > 27000.0


def test_inclination_bounds_z_extent():
    elements = _circular(550.0, 53.0)
    propagator = KeplerPropagator(elements, include_j2=False)
    samples = np.array(
        [propagator.position_eci(t) for t in np.linspace(0, elements.period_s, 200)]
    )
    max_latitude_extent = np.max(np.abs(samples[:, 2])) / elements.semi_major_axis_km
    assert math.degrees(math.asin(max_latitude_extent)) == pytest.approx(53.0, abs=0.2)


def test_j2_raan_regression_for_prograde_orbit():
    raan_dot, argp_dot, m_dot = j2_secular_rates(6928.0, 0.0, math.radians(53.0))
    # Prograde orbits regress (RAAN decreases).
    assert raan_dot < 0.0
    # Roughly -5 degrees/day for a 550 km, 53 degree orbit.
    assert math.degrees(raan_dot) * constants.SECONDS_PER_DAY == pytest.approx(-5.0, abs=0.8)
    assert argp_dot != 0.0
    assert m_dot > 0.0


def test_polar_orbit_has_no_raan_drift():
    raan_dot, _, _ = j2_secular_rates(7158.0, 0.0, math.radians(90.0))
    assert raan_dot == pytest.approx(0.0, abs=1e-12)


def test_j2_propagator_shifts_node_over_time():
    elements = _circular(550.0, 53.0)
    with_j2 = KeplerPropagator(elements, include_j2=True)
    without_j2 = KeplerPropagator(elements, include_j2=False)
    day = constants.SECONDS_PER_DAY
    raan_with = with_j2.elements_at(day).raan_deg
    raan_without = without_j2.elements_at(day).raan_deg
    # About five degrees of nodal regression per day.
    difference = (raan_with - raan_without + 180.0) % 360.0 - 180.0
    assert difference == pytest.approx(-5.0, abs=0.8)


@settings(max_examples=30, deadline=None)
@given(
    altitude=st.floats(min_value=300.0, max_value=2000.0),
    inclination=st.floats(min_value=0.0, max_value=180.0),
    t=st.floats(min_value=0.0, max_value=20000.0),
)
def test_property_positions_stay_on_sphere(altitude, inclination, t):
    elements = _circular(altitude, inclination)
    propagator = KeplerPropagator(elements, include_j2=True)
    radius = np.linalg.norm(propagator.position_eci(t))
    assert radius == pytest.approx(elements.semi_major_axis_km, rel=1e-6)
