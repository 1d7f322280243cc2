"""Identity of the flat epoch pass with the per-shell formulas it replaced.

A :class:`ConstellationCalculation` computes an epoch in one pass over the
global node order: one propagation of every shell's stacked elements (SGP4
shells fill their rows), one frame rotation, one bounding-box test, one
line-of-sight check of every ISL candidate and one elevation test of every
ground-station/satellite pair.  The oracle here is the per-shell
computation, shell by shell and station by station, spelled apart from the
kernels it checks: each satellite's own node trigonometry, norms and dot
products as ``np.add.reduce`` over the last axis, and
``BoundingBox.contains`` on the full geodetic conversion; only the frame
rotation (``eci_to_ecef``, pinned in ``test_small_vectors.py``) and SGP4
are shared.  Positions, activity masks, the ISLs each line-of-sight mask
keeps, their distances, delays and bandwidths, the uplink table and every
graph array must equal it byte for byte, on cold and incremental states
alike, as must the activity changes each diff reports.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from repro.core import (
    BoundingBox,
    Configuration,
    ConstellationCalculation,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.orbits import GroundStation, ShellGeometry, constants
from repro.orbits.coordinates import ecef_to_geodetic, eci_to_ecef
from repro.scenarios import west_africa_configuration
from repro.topology import LinkType
from repro.topology.graph import _CODE_BY_LINK_TYPE
from repro.topology.isl import grid_plus_isl_pairs
from repro.topology.linkparams import link_delay_counts


@lru_cache(maxsize=None)
def _isl_candidates(geometry):
    return np.array(grid_plus_isl_pairs(geometry), dtype=np.int64).reshape(-1, 2)


def _norm(vectors):
    return np.sqrt(np.add.reduce(vectors * vectors, axis=-1))


def _positions_eci(orbit, time_s):
    """A shell's positions with the node's cosine and sine taken per satellite."""
    if orbit.propagator == "sgp4":
        return orbit.positions_eci(time_s)
    radius, _, raan_rate, _, latitude, latitude_rate, cos_i, sin_i = orbit.elements
    raan = np.radians(orbit._raan_deg) + raan_rate * time_s
    latitude = latitude + latitude_rate * time_s
    cos_u, sin_u = np.cos(latitude), np.sin(latitude)
    cos_o, sin_o = np.cos(raan), np.sin(raan)
    x = radius * (cos_u * cos_o - sin_u * sin_o * cos_i)
    y = radius * (cos_u * sin_o + sin_u * cos_o * cos_i)
    z = radius * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


def _closest_approach_km(a, b):
    ab = b - a
    ab_sq = np.add.reduce(ab * ab, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(
            -np.add.reduce(a * ab, axis=-1) / np.where(ab_sq == 0, 1.0, ab_sq), 0.0, 1.0
        )
    return _norm(a + ab * t[:, None])


def _elevation_deg(ground, satellites):
    to_satellite = satellites - ground
    ground_norm, range_norm = _norm(ground), _norm(to_satellite)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_elevation = np.add.reduce(to_satellite * ground, axis=-1) / (range_norm * ground_norm)
    return np.degrees(np.arcsin(np.clip(sin_elevation, -1.0, 1.0)))


def _oracle(calculation, time_s):
    """Per-shell ``(positions, active, graph columns)`` of one epoch."""
    config, index = calculation.config, calculation.node_index
    gmst = config.epoch.gmst_at(time_s)
    positions, active = {}, {}
    isl_columns, uplink_columns = [], []
    for shell, (shell_config, orbit) in enumerate(zip(config.shells, calculation.shells)):
        ecef = eci_to_ecef(_positions_eci(orbit, time_s), gmst)
        positions[shell] = ecef
        box = config.bounding_box
        active[shell] = (
            np.ones(len(orbit), dtype=bool)
            if box is None
            else np.asarray(box.contains(*ecef_to_geodetic(ecef)[:2]), dtype=bool)
        )
        pairs = _isl_candidates(shell_config.geometry)
        network = shell_config.network
        limit = constants.EARTH_RADIUS_KM + network.atmosphere_grazing_altitude_km
        a, b = ecef[pairs[:, 0]], ecef[pairs[:, 1]]
        clear = _closest_approach_km(a, b) >= limit
        distances = _norm(b - a)[clear]
        offset = index.satellites_of_shell(shell).start
        isl_columns.append(
            (
                pairs[clear, 0] + offset,
                pairs[clear, 1] + offset,
                distances,
                np.full(distances.size, network.isl_bandwidth_kbps, dtype=float),
            )
        )
    for station, gst in enumerate(config.ground_stations):
        ground = gst.station.position_ecef
        for shell, shell_config in enumerate(config.shells):
            network = shell_config.network
            threshold = (
                gst.min_elevation_deg
                if gst.min_elevation_deg is not None
                else network.min_elevation_deg
            )
            visible = np.nonzero(_elevation_deg(ground, positions[shell]) >= threshold)[0]
            distances = _norm(positions[shell][visible] - ground)
            bandwidth = (
                gst.uplink_bandwidth_kbps
                if gst.uplink_bandwidth_kbps is not None
                else network.uplink_bandwidth_kbps
            )
            uplink_columns.append(
                (
                    np.full(visible.size, index.ground_station(gst.name), dtype=np.int64),
                    visible + index.satellites_of_shell(shell).start,
                    distances,
                    np.full(visible.size, bandwidth, dtype=float),
                )
            )
    columns = [np.concatenate(column) for column in zip(*isl_columns, *uplink_columns)]
    isls = sum(column[0].size for column in isl_columns)
    uplinks = sum(column[0].size for column in uplink_columns)
    node_a, node_b, distances, bandwidths = columns
    types = np.concatenate(
        [
            np.full(isls, _CODE_BY_LINK_TYPE[LinkType.ISL], dtype=np.int8),
            np.full(uplinks, _CODE_BY_LINK_TYPE[LinkType.UPLINK], dtype=np.int8),
        ]
    )
    # The graph's canonical link order: lower node first, ascending pairs.
    low, high = np.minimum(node_a, node_b), np.maximum(node_a, node_b)
    order = np.lexsort((high, low))
    graph = tuple(
        column[order]
        for column in (low, high, distances, link_delay_counts(distances), bandwidths, types)
    )
    return positions, active, graph


def _same_bits(actual, expected):
    actual = np.asarray(actual)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_matches_oracle(calculation, state):
    positions, active, expected = _oracle(calculation, state.time_s)
    assert sorted(state.satellite_positions_ecef) == sorted(positions)
    for shell in positions:
        _same_bits(state.satellite_positions_ecef[shell], positions[shell])
        _same_bits(state.active_satellites[shell], active[shell])
    graph = state.graph
    actual = (
        graph.node_a,
        graph.node_b,
        graph.distances_km,
        graph.delay_counts,
        graph.bandwidths_kbps,
        graph.link_type_codes,
    )
    for column, oracle_column in zip(actual, expected):
        _same_bits(column, oracle_column)
    return active


def _walk(calculation, times, cold_every):
    """Advance over ``times`` with ``diff_since``, checking each epoch against the oracle."""
    state = calculation.state_at(times[0])
    was = _assert_matches_oracle(calculation, state)
    for step, time_s in enumerate(times[1:], start=1):
        state, diff = calculation.diff_since(state, time_s)
        now = _assert_matches_oracle(calculation, state)
        for shell in now:
            _same_bits(diff.flipped[shell], np.flatnonzero(now[shell] ^ was[shell]))
        if step % cold_every == 0:
            _assert_matches_oracle(calculation, calculation.state_at(time_s))
        was = now
    return state


# Forward steps, one step backwards, then a 10-minute gap.
_TIMES = (
    [15.0 * k for k in range(150)]
    + [2230.0, 2245.0]
    + [2845.0 + 15.0 * k for k in range(60)]
)


def test_all_shell_starlink_with_the_box_over_two_hundred_epochs():
    config = west_africa_configuration(shells="all")
    assert config.bounding_box is not None and len(config.shells) == 5
    calculation = ConstellationCalculation(config)
    assert len(_TIMES) >= 200
    state = _walk(calculation, _TIMES, cold_every=25)
    assert 0 < state.active_count() < sum(config.shell_sizes)


def _mixed_configuration(ground_stations=True):
    shells = (
        ShellConfig(
            name="sgp4-star",
            geometry=ShellGeometry(6, 11, 780.0, 86.4, 180.0),
            network=NetworkParams(isl_bandwidth_kbps=5e6, min_elevation_deg=10.0),
            propagator="sgp4",
        ),
        ShellConfig(
            name="low",
            geometry=ShellGeometry(10, 20, 550.0, 53.0),
            network=NetworkParams(
                isl_bandwidth_kbps=2e6,
                uplink_bandwidth_kbps=4e6,
                min_elevation_deg=30.0,
                atmosphere_grazing_altitude_km=300.0,
            ),
        ),
        ShellConfig(  # one satellite: no ISL candidate
            name="lonely",
            geometry=ShellGeometry(1, 1, 1200.0, 40.0),
            network=NetworkParams(min_elevation_deg=5.0),
        ),
        ShellConfig(
            name="high",
            geometry=ShellGeometry(8, 12, 1100.0, 70.0),
            network=NetworkParams(min_elevation_deg=40.0, atmosphere_grazing_altitude_km=20.0),
        ),
    )
    stations = (
        GroundStationConfig(GroundStation("accra", 5.6, -0.2)),
        GroundStationConfig(GroundStation("quito", -0.2, -78.5), min_elevation_deg=2.0),
        GroundStationConfig(GroundStation("tromso", 69.6, 18.9), uplink_bandwidth_kbps=1e5),
        GroundStationConfig(GroundStation("fiji", -17.7, 178.1)),
    )
    return Configuration(
        shells=shells,
        ground_stations=stations if ground_stations else (),
        bounding_box=BoundingBox(-40.0, 60.0, 150.0, -60.0),  # across the antimeridian
    )


@pytest.mark.parametrize("ground_stations", [True, False], ids=["stations", "no-stations"])
def test_mixed_shells_thresholds_and_overrides(ground_stations):
    config = _mixed_configuration(ground_stations)
    calculation = ConstellationCalculation(config)
    assert [shell.propagator for shell in calculation.shells][:2] == ["sgp4", "kepler_j2"]
    times = [20.0 * k for k in range(40)] + [770.0, 790.0, 1390.0, 1410.0]
    state = _walk(calculation, times, cold_every=10)
    counts = np.bincount(state.graph.link_type_codes, minlength=3)
    assert counts[_CODE_BY_LINK_TYPE[LinkType.ISL]] > 0
    assert (counts[_CODE_BY_LINK_TYPE[LinkType.UPLINK]] > 0) == ground_stations


def test_a_shell_without_a_box_is_all_active():
    config = dataclasses.replace(_mixed_configuration(), bounding_box=None)
    calculation = ConstellationCalculation(config)
    state = _walk(calculation, [0.0, 30.0, 60.0], cold_every=1)
    assert state.active_count() == sum(config.shell_sizes)
