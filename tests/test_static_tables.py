"""The calculation's static tables, built by whole arrays, against their loops.

``ConstellationCalculation(config)`` builds its static structures — the
+GRID ISL candidates (``topology.isl.grid_plus_isl_pairs``), the stacked
circular-orbit elements (``orbits.shells.stacked_elements``) and the
ground-station position stack — with whole-array NumPy and no object per
satellite.  Each is pinned here byte for byte against the loop it replaced:
the per-satellite +GRID set, elements computed satellite by satellite in
Python floats, and each station's own ``position_ecef``.  The standing rule
last: building phase-I Starlink makes no ``Satellite`` and converts every
station in one ``geodetic_to_ecef`` call.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ConstellationCalculation
from repro.core.config import (
    ComputeParams,
    Configuration,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.orbits import GroundStation, Satellite, Shell, ShellGeometry, coordinates
from repro.orbits.kepler import j2_secular_rates, mean_motion_from_semi_major_axis
from repro.orbits.shells import stacked_elements
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology.isl import grid_plus_isl_pairs

_NUMPY = f"NumPy {np.__version__}"


def _same_bits(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), f"{what}: the bits differ on {_NUMPY}"


def _grid_plus_pairs_loop(geometry: ShellGeometry) -> list[tuple[int, int]]:
    """The +GRID pairs satellite by satellite: a set of ``(low, high)``
    tuples, sorted."""
    planes = geometry.planes
    per_plane = geometry.satellites_per_plane
    pairs: set[tuple[int, int]] = set()

    def flat(plane: int, index: int) -> int:
        return plane * per_plane + index

    for plane in range(planes):
        for index in range(per_plane):
            this = flat(plane, index)
            if per_plane > 1:
                successor = flat(plane, (index + 1) % per_plane)
                if successor != this:
                    pairs.add((min(this, successor), max(this, successor)))
            if planes > 1:
                next_plane = plane + 1
                if next_plane >= planes:
                    if geometry.is_polar_star:
                        continue
                    next_plane = 0
                neighbor = flat(next_plane, index)
                pairs.add((min(this, neighbor), max(this, neighbor)))
    return sorted(pairs)


def _per_satellite_elements(shells) -> tuple:
    """:func:`stacked_elements` of ``shells`` built satellite by satellite in
    Python floats from each shell's geometry."""
    columns: list[list] = [[] for _ in range(8)]
    radius, raan, raan_rate, plane_of, latitude, latitude_rate, cos_i, sin_i = columns
    plane_rows = 0
    for shell in shells:
        geometry = shell.geometry
        inclination = math.radians(geometry.inclination_deg)
        node_rate, perigee_rate, extra_rate = j2_secular_rates(
            geometry.semi_major_axis_km, geometry.eccentricity, inclination
        )
        rate = mean_motion_from_semi_major_axis(geometry.semi_major_axis_km)
        spacing = 360.0 / geometry.satellites_per_plane
        shift = geometry.phase_offset_fraction * spacing / geometry.planes
        for identifier in range(len(shell)):
            plane, slot = divmod(identifier, geometry.satellites_per_plane)
            if slot == 0:
                node = plane * geometry.arc_of_ascending_nodes_deg / geometry.planes
                raan.append(math.radians((geometry.raan_offset_deg + node) % 360.0))
                raan_rate.append(node_rate)
            radius.append(geometry.semi_major_axis_km)
            plane_of.append(plane_rows + plane)
            latitude.append(math.radians((slot * spacing + plane * shift) % 360.0))
            latitude_rate.append(rate + extra_rate + perigee_rate)
            cos_i.append(math.cos(inclination))
            sin_i.append(math.sin(inclination))
        plane_rows += geometry.planes
    return tuple(
        np.array(column, dtype=np.int64 if column is plane_of else float) for column in columns
    )


_GEOMETRY = st.builds(
    ShellGeometry,
    planes=st.integers(min_value=1, max_value=12),
    satellites_per_plane=st.integers(min_value=1, max_value=12),
    altitude_km=st.just(550.0),
    inclination_deg=st.floats(min_value=0.0, max_value=180.0),
    arc_of_ascending_nodes_deg=st.sampled_from([90.0, 180.0, 270.0, 360.0]),
    phase_offset_fraction=st.floats(min_value=0.0, max_value=1.0),
    raan_offset_deg=st.floats(min_value=-400.0, max_value=400.0),
)


class TestGridPlusPairs:
    @settings(max_examples=150, deadline=None)
    @given(geometry=_GEOMETRY)
    @example(geometry=ShellGeometry(1, 1, 550.0, 53.0))
    @example(geometry=ShellGeometry(1, 2, 550.0, 53.0))
    @example(geometry=ShellGeometry(1, 9, 550.0, 53.0, 180.0))
    @example(geometry=ShellGeometry(2, 1, 550.0, 53.0))
    @example(geometry=ShellGeometry(2, 1, 550.0, 53.0, 180.0))
    @example(geometry=ShellGeometry(2, 2, 550.0, 53.0))
    @example(geometry=ShellGeometry(2, 7, 550.0, 53.0))
    @example(geometry=ShellGeometry(2, 7, 550.0, 86.4, 180.0))
    @example(geometry=ShellGeometry(6, 11, 780.0, 86.4, 180.0))
    def test_the_array_pairs_are_the_loops_pairs(self, geometry):
        expected = np.array(_grid_plus_pairs_loop(geometry), dtype=np.int64).reshape(-1, 2)
        _same_bits(grid_plus_isl_pairs(geometry), expected, f"+GRID pairs of {geometry}")

    def test_every_catalogue_shell(self):
        config = west_africa_configuration(shells="all")
        for shell in config.shells + dart_configuration("central", 4, 8).shells:
            expected = np.array(_grid_plus_pairs_loop(shell.geometry), dtype=np.int64)
            _same_bits(grid_plus_isl_pairs(shell.geometry), expected, shell.name)


class TestStackedElements:
    @settings(max_examples=60, deadline=None)
    @given(geometries=st.lists(_GEOMETRY, min_size=1, max_size=4))
    def test_the_stack_is_the_per_satellite_elements(self, geometries):
        shells = [Shell(geometry, shell_index=i) for i, geometry in enumerate(geometries)]
        for column, (actual, expected) in enumerate(
            zip(stacked_elements(shells), _per_satellite_elements(shells))
        ):
            _same_bits(actual, expected, f"element column {column} of {geometries}")

    def test_phase_one_starlink(self):
        calculation = ConstellationCalculation(west_africa_configuration(shells="all"))
        for column, (actual, expected) in enumerate(
            zip(calculation._elements, _per_satellite_elements(calculation.shells))
        ):
            _same_bits(actual, expected, f"element column {column}")


class TestGroundStationStack:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(dart_configuration("central", buoy_count=40, sink_count=80), id="dart"),
            pytest.param(west_africa_configuration(shells="all"), id="west-africa"),
            pytest.param(
                dataclasses.replace(west_africa_configuration(shells="lowest"), ground_stations=()),
                id="none",
            ),
        ],
    )
    def test_the_stack_is_each_stations_own_position(self, config):
        calculation = ConstellationCalculation(config)
        stack = calculation._gst_position_stack
        expected = (
            np.stack([gst.station.position_ecef for gst in config.ground_stations])
            if config.ground_stations
            else np.empty((0, 3))
        )
        _same_bits(stack, expected, "ground-station stack")
        assert not stack.flags.writeable
        state = calculation.state_at(0.0)
        assert list(state.ground_positions_ecef) == config.ground_station_names
        for index, gst in enumerate(config.ground_stations):
            row = state.ground_positions_ecef[gst.name]
            _same_bits(row, gst.station.position_ecef, gst.name)
            assert np.shares_memory(row, stack[index]) and not row.flags.writeable


@pytest.fixture
def construction_calls(monkeypatch):
    """Counts of ``Satellite`` objects made and ``geodetic_to_ecef`` calls,
    wherever a ``repro`` module holds the function."""
    calls = {"Satellite": 0, "geodetic_to_ecef": 0}

    def counted(name, function):
        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counting

    monkeypatch.setattr(Satellite, "__init__", counted("Satellite", Satellite.__init__))
    convert = coordinates.geodetic_to_ecef
    wrapper = counted("geodetic_to_ecef", convert)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "geodetic_to_ecef", None) is convert:
            monkeypatch.setattr(module, "geodetic_to_ecef", wrapper)
    return calls


class TestSetUpHasNoPerSatellitePython:
    def test_phase_one_starlink_makes_no_satellite_and_converts_stations_once(
        self, construction_calls
    ):
        config = west_africa_configuration(shells="all", use_bounding_box=True)
        assert config.total_satellites == 4409 and len(config.ground_stations) == 5
        calculation = ConstellationCalculation(config)
        assert construction_calls == {"Satellite": 0, "geodetic_to_ecef": 1}
        assert sum(1 for _ in calculation.machines()) == 4409 + 5
        assert construction_calls["Satellite"] == 0

    def test_dart_converts_its_121_stations_once(self, construction_calls):
        ConstellationCalculation(dart_configuration("central", buoy_count=40, sink_count=80))
        assert construction_calls == {"Satellite": 0, "geodetic_to_ecef": 1}

    def test_the_counts_see_an_sgp4_shell_and_a_station(self, construction_calls):
        # The counters count: an SGP4 shell makes a Satellite per instance,
        # and a station's own position is one conversion.
        config = Configuration(
            shells=(
                ShellConfig(
                    name="sgp4",
                    geometry=ShellGeometry(3, 4, 550.0, 53.0),
                    network=NetworkParams(),
                    compute=ComputeParams(),
                    propagator="sgp4",
                ),
            ),
            ground_stations=(GroundStationConfig(station=GroundStation("a", 1.0, 2.0)),),
        )
        ConstellationCalculation(config)
        assert construction_calls == {"Satellite": 12, "geodetic_to_ecef": 1}
        config.ground_stations[0].station.position_ecef
        assert construction_calls["geodetic_to_ecef"] == 2
