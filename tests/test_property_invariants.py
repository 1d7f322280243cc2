"""Cross-cutting property-based tests on core invariants.

These complement the per-module unit tests with randomized checks of the
invariants the whole system relies on: address/DNS consistency, shell
geometry, constellation network symmetry, latency statistics and
configuration round-tripping.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CelestialDNS,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.core.addressing import machine_ip
from repro.orbits import GroundStation, Shell, ShellGeometry, constants
from repro.topology import NodeIndex
from repro.topology.isl import grid_plus_isl_pairs


class TestAddressingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        shell_sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_distinct_machines_get_distinct_addresses(self, shell_sizes, data):
        def machine():
            shell = data.draw(st.integers(min_value=0, max_value=len(shell_sizes) - 1))
            return shell, data.draw(st.integers(min_value=0, max_value=shell_sizes[shell] - 1))

        index = NodeIndex(shell_sizes, [])
        first, second = machine(), machine()
        same = machine_ip(index.satellite(*first)) == machine_ip(index.satellite(*second))
        assert same == (first == second)

    @settings(max_examples=30, deadline=None)
    @given(
        shell_size=st.integers(min_value=1, max_value=500),
        identifier=st.integers(min_value=0, max_value=499),
    )
    def test_dns_resolution_matches_addressing(self, shell_size, identifier):
        identifier = identifier % shell_size
        index = NodeIndex([shell_size], ["gst-a"])
        resolved = CelestialDNS(index).resolve(f"{identifier}.0.celestial")
        assert resolved == machine_ip(index.satellite(0, identifier)) == machine_ip(identifier)


class TestShellGeometryProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        planes=st.integers(min_value=1, max_value=24),
        per_plane=st.integers(min_value=1, max_value=40),
        altitude=st.floats(min_value=300.0, max_value=2000.0),
        inclination=st.floats(min_value=10.0, max_value=98.0),
        time=st.floats(min_value=0.0, max_value=7200.0),
    )
    def test_all_satellites_on_shell_sphere(self, planes, per_plane, altitude, inclination, time):
        shell = Shell(ShellGeometry(planes, per_plane, altitude, inclination))
        positions = shell.positions_eci(time)
        radii = np.linalg.norm(positions, axis=1)
        expected = constants.EARTH_RADIUS_KM + altitude
        assert np.allclose(radii, expected, rtol=1e-6)
        assert positions.shape == (planes * per_plane, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        # With only two planes a wrapped delta shell would de-duplicate its
        # inter-plane links, so the closed-form count below needs >= 3 planes.
        planes=st.integers(min_value=3, max_value=16),
        per_plane=st.integers(min_value=3, max_value=30),
        arc=st.sampled_from([180.0, 360.0]),
    )
    def test_isl_pairs_valid_and_symmetric_free(self, planes, per_plane, arc):
        geometry = ShellGeometry(planes, per_plane, 550.0, 53.0, arc)
        pairs = grid_plus_isl_pairs(geometry)
        total = geometry.total_satellites
        low, high = pairs.T
        assert np.all((0 <= low) & (low < high) & (high < total))
        assert len(np.unique(pairs, axis=0)) == len(pairs)
        expected = 2 * total - (per_plane if arc <= 180.0 else 0)
        assert len(pairs) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        altitude=st.floats(min_value=400.0, max_value=1500.0),
        inclination=st.floats(min_value=30.0, max_value=90.0),
    )
    def test_period_increases_with_altitude(self, altitude, inclination):
        low = ShellGeometry(4, 8, altitude, inclination)
        high = ShellGeometry(4, 8, altitude + 200.0, inclination)
        assert high.period_s > low.period_s
        # LEO periods are between roughly 90 minutes and 2 hours.
        assert 5000.0 < low.period_s < 8000.0


class TestConstellationProperties:
    def _calculation(self, min_elevation):
        config = Configuration(
            shells=(
                ShellConfig(
                    name="shell",
                    geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                    network=NetworkParams(min_elevation_deg=min_elevation),
                    compute=ComputeParams(vcpu_count=1, memory_mib=512),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("a", 21.3, -157.9)),
                GroundStationConfig(station=GroundStation("b", -33.9, 151.2)),
            ),
            update_interval_s=5.0,
        )
        return ConstellationCalculation(config)

    @settings(max_examples=10, deadline=None)
    @given(time=st.floats(min_value=0.0, max_value=3600.0))
    def test_delays_are_symmetric_and_triangle_bounded(self, time):
        calculation = self._calculation(8.2)
        state = calculation.state_at(time)
        a = calculation.ground_station("a")
        b = calculation.ground_station("b")
        delay_ab = state.delay_ms(a, b)
        delay_ba = state.delay_ms(b, a)
        if math.isfinite(delay_ab):
            assert delay_ab == pytest.approx(delay_ba, rel=1e-9)
            # End-to-end delay cannot be shorter than the straight-line
            # propagation delay between the two ground stations.
            straight_km = float(
                np.linalg.norm(
                    state.ground_positions_ecef["a"] - state.ground_positions_ecef["b"]
                )
            )
            assert delay_ab >= straight_km / constants.SPEED_OF_LIGHT_KM_S * 1000.0 - 1e-6

    @settings(max_examples=6, deadline=None)
    @given(time=st.floats(min_value=0.0, max_value=1800.0))
    def test_stricter_elevation_never_adds_uplinks(self, time):
        lenient = self._calculation(8.2).state_at(time)
        strict = self._calculation(40.0).state_at(time)
        for name in ("a", "b"):
            lenient_sats = {(u.shell, u.satellite) for u in lenient.uplinks_of(name)}
            strict_sats = {(u.shell, u.satellite) for u in strict.uplinks_of(name)}
            assert strict_sats <= lenient_sats


class TestLatencyStatisticsProperties:
    """Float-accumulation hazards in the figure aggregations (metrics.py).

    ``np.mean``/``np.percentile``/``np.median`` interpolation can round a
    hair outside the interval spanned by the samples; all statistics must
    stay clamped to the sample extremes.
    """

    @staticmethod
    def _series(latencies, times=None):
        from repro.analysis.metrics import LatencySeries

        series = LatencySeries("prop")
        for position, latency in enumerate(latencies):
            time_s = times[position] if times is not None else float(position)
            series.add(time_s, latency)
        return series

    @settings(max_examples=120, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_and_mean_within_sample_extremes(self, latencies, q):
        series = self._series(latencies)
        low, high = min(latencies), max(latencies)
        assert low <= series.mean() <= high
        assert low <= series.percentile(q) <= high
        assert low <= series.median() <= high

    @settings(max_examples=80, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        window=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_rolling_median_within_global_extremes(self, latencies, window):
        series = self._series(latencies)
        centres, medians = series.rolling_median(window_s=window)
        assert len(centres) == len(medians)
        assert medians.size > 0
        low, high = min(latencies), max(latencies)
        assert np.all(medians >= low)
        assert np.all(medians <= high)

    @settings(max_examples=60, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
    )
    def test_cdf_fractions_monotone_and_bounded(self, latencies):
        series = self._series(latencies)
        fractions = np.array([series.fraction_below(value) for value in sorted(latencies)])
        assert np.all(np.diff(fractions) >= 0)
        assert np.all((fractions > 0) & (fractions <= 1.0))
        assert fractions[-1] == 1.0


class TestConfigurationProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        planes=st.integers(min_value=1, max_value=40),
        per_plane=st.integers(min_value=1, max_value=40),
        altitude=st.floats(min_value=300.0, max_value=1500.0),
        inclination=st.floats(min_value=20.0, max_value=98.0),
        update_interval=st.floats(min_value=0.5, max_value=30.0),
        duration=st.floats(min_value=30.0, max_value=3600.0),
    )
    def test_dict_roundtrip_preserves_structure(
        self, planes, per_plane, altitude, inclination, update_interval, duration
    ):
        config = Configuration(
            shells=(
                ShellConfig(
                    name="shell",
                    geometry=ShellGeometry(planes, per_plane, altitude, inclination),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("gst", 10.0, 20.0)),
            ),
            update_interval_s=update_interval,
            duration_s=duration,
        )
        rebuilt = Configuration.from_dict(config.to_dict())
        assert rebuilt.total_satellites == planes * per_plane
        assert rebuilt.shells[0].geometry == config.shells[0].geometry
        assert rebuilt.update_interval_s == update_interval
        assert rebuilt.duration_s == config.duration_s
