"""Unit tests for the resource validator and the constellation calculation."""

import numpy as np
import pytest

from repro.core import (
    BoundingBox,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    GroundStationConfig,
    HostConfig,
    MachineId,
    NetworkParams,
    ShellConfig,
    estimate_resources,
    validate_configuration,
)
from repro.orbits import GroundStation, ShellGeometry
from repro.topology import LinkType, visible_satellites
from repro.topology.graph import _CODE_BY_LINK_TYPE
from repro.topology.linkparams import link_delay_ms


def _iridium_config(**overrides):
    parameters = dict(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(
                    isl_bandwidth_kbps=100_000.0,
                    uplink_bandwidth_kbps=88.0,
                    min_elevation_deg=8.2,
                ),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9),
                                compute=ComputeParams(vcpu_count=8, memory_mib=8192),
                                uplink_bandwidth_kbps=100_000.0),
            GroundStationConfig(station=GroundStation("buoy-0", 10.0, -160.0)),
            GroundStationConfig(station=GroundStation("buoy-1", -5.0, 170.0)),
        ),
        hosts=HostConfig(count=4, cpu_cores=32, memory_mib=32 * 1024),
        update_interval_s=5.0,
        duration_s=900.0,
    )
    parameters.update(overrides)
    return Configuration(**parameters)


class TestValidator:
    def test_no_bounding_box_counts_all_satellites(self):
        estimate = estimate_resources(_iridium_config())
        assert estimate.satellites_in_box == 66
        # 66 satellites with 1 vCPU, the 8-core central station and two buoys
        # with the default 2-core allocation.
        assert estimate.required_cores == 66 * 1 + 8 + 2 + 2
        assert estimate.ground_station_count == 3

    def test_bounding_box_reduces_estimate(self):
        config = _iridium_config(bounding_box=BoundingBox(-20.0, 20.0, -180.0, -140.0))
        estimate = estimate_resources(config)
        assert 0 < estimate.satellites_in_box < 66

    def test_memory_warning(self):
        config = _iridium_config(hosts=HostConfig(count=1, cpu_cores=4, memory_mib=1024))
        estimate = estimate_resources(config)
        assert not estimate.memory_sufficient
        assert any("memory" in warning for warning in estimate.warnings)

    def test_cpu_overprovisioning_warning(self):
        config = _iridium_config(hosts=HostConfig(count=1, cpu_cores=16, memory_mib=256 * 1024))
        estimate = estimate_resources(config)
        assert not estimate.cores_sufficient
        assert estimate.overprovisioning_factor > 1.0
        assert any("over-provisioning" in warning for warning in estimate.warnings)

    def test_validate_configuration_flags_unreachable_ground_station(self):
        config = _iridium_config(
            shells=(
                ShellConfig(
                    name="equatorial",
                    geometry=ShellGeometry(4, 10, 550.0, 10.0),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("svalbard", 78.0, 15.0)),
            ),
        )
        warnings = validate_configuration(config)
        assert any("beyond the coverage" in warning for warning in warnings)

    def test_validate_configuration_flags_long_update_interval(self):
        warnings = validate_configuration(_iridium_config(update_interval_s=30.0))
        assert any("update interval" in warning for warning in warnings)

    def test_validate_configuration_clean(self):
        warnings = validate_configuration(_iridium_config())
        assert warnings == []


class TestConstellationCalculation:
    def test_machine_identities(self):
        calc = ConstellationCalculation(_iridium_config())
        satellite = calc.satellite(0, 10)
        assert satellite.name == "10.0.celestial"
        assert satellite.is_satellite
        ground = calc.ground_station("hawaii")
        assert ground.is_ground_station
        assert ground.shell == MachineId.GROUND_SHELL
        machines = list(calc.machines())
        assert len(machines) == 66 + 3
        with pytest.raises(IndexError):
            calc.satellite(0, 99)
        with pytest.raises(IndexError):
            calc.satellite(5, 0)
        with pytest.raises(ValueError):
            calc.ground_station("unknown")

    def test_state_graph_composition(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        codes = state.graph.link_type_codes
        isl_links = int(np.count_nonzero(codes == _CODE_BY_LINK_TYPE[LinkType.ISL]))
        uplink_links = int(np.count_nonzero(codes == _CODE_BY_LINK_TYPE[LinkType.UPLINK]))
        # Walker-star +GRID: 2N - per_plane = 121 ISLs at most (minus any
        # atmosphere-blocked seam links near the poles).
        assert 100 <= isl_links <= 121
        assert uplink_links >= 3
        assert state.graph.total_links() == isl_links + uplink_links

    def test_delays_and_reachability(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        hawaii = calc.ground_station("hawaii")
        buoy = calc.ground_station("buoy-0")
        delay = state.delay_ms(hawaii, buoy)
        assert 5.0 < delay < 200.0
        assert state.rtt_ms(hawaii, buoy) == pytest.approx(2 * delay)
        assert state.reachable(hawaii, buoy)
        assert state.delay_ms(hawaii, hawaii) == 0.0

    def test_delay_between_ground_station_and_satellite(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        hawaii = calc.ground_station("hawaii")
        uplink = state.uplinks_of("hawaii")[0]
        satellite = calc.satellite(uplink.shell, uplink.satellite)
        delay = state.delay_ms(hawaii, satellite)
        assert delay == pytest.approx(uplink.delay_ms, rel=1e-6)
        # Querying in the satellite->ground direction uses the symmetric path.
        assert state.delay_ms(satellite, hawaii) == pytest.approx(delay)

    def test_uplinks_sorted_by_distance(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        uplinks = state.uplinks_of("hawaii")
        distances = [u.distance_km for u in uplinks]
        assert distances == sorted(distances)

    def test_bandwidth_bottleneck_is_sensor_uplink(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        hawaii = calc.ground_station("hawaii")
        buoy = calc.ground_station("buoy-0")
        # The buoy uplink is 88 kb/s which is the bottleneck of the path.
        assert state.bandwidth_kbps(buoy, hawaii) == pytest.approx(88.0)

    def test_bounding_box_activity(self):
        config = _iridium_config(bounding_box=BoundingBox(-20.0, 20.0, -180.0, -140.0))
        calc = ConstellationCalculation(config)
        state = calc.state_at(0.0)
        assert 0 < state.active_count() < 66
        hawaii = calc.ground_station("hawaii")
        assert state.is_active(hawaii)
        inactive = [
            calc.satellite(0, index)
            for index in np.nonzero(~state.active_satellites[0])[0][:1]
        ]
        assert not state.is_active(inactive[0])

    def test_no_bounding_box_all_active(self):
        calc = ConstellationCalculation(_iridium_config())
        assert calc.state_at(0.0).active_count() == 66

    def test_state_changes_over_time(self):
        calc = ConstellationCalculation(_iridium_config())
        hawaii = calc.ground_station("hawaii")
        buoy = calc.ground_station("buoy-1")
        delays = {t: calc.state_at(t).delay_ms(hawaii, buoy) for t in (0.0, 60.0, 120.0)}
        assert len(set(round(d, 3) for d in delays.values())) > 1

    def test_satellite_position_geodetic(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        lat, lon = state.satellite_position_geodetic(0, 0)
        assert -90.0 <= lat <= 90.0
        assert -180.0 <= lon <= 180.0

    def test_satellite_to_satellite_query_with_ground_station_sources(self):
        # With the default (ground-station) path sources, satellite-to-satellite
        # queries fall back to a lazily computed single-source Dijkstra run.
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        a = calc.satellite(0, 0)
        b = calc.satellite(0, 1)
        delay = state.delay_ms(a, b)
        assert np.isfinite(delay)
        assert delay > 0.0
        assert state.delay_ms(a, b) == pytest.approx(state.delay_ms(b, a))

    def test_sat_to_sat_solves_one_row(self):
        calc = ConstellationCalculation(_iridium_config())
        state = calc.state_at(0.0)
        a = calc.satellite(0, 0)
        b = calc.satellite(0, 30)
        assert np.isfinite(state.delay_ms(a, b))
        assert state.path(a, b).hop_count >= 1
        assert calc.path_engine.stats.rows_solved == 1


def _twin_shell_config(ground_stations):
    """Two shells of identical geometry: satellite ``k`` of either shell is
    at the same position, so a station that sees both gets exact distance
    ties between them.  The second shell's own minimum elevation keeps it
    out of sight of every station that does not override it."""
    geometry = ShellGeometry(6, 11, 780.0, 90.0, 180.0)
    compute = ComputeParams(vcpu_count=1, memory_mib=1024)
    return Configuration(
        shells=(
            ShellConfig(
                name="low-mask",
                geometry=geometry,
                network=NetworkParams(uplink_bandwidth_kbps=1000.0, min_elevation_deg=30.0),
                compute=compute,
            ),
            ShellConfig(
                name="high-mask",
                geometry=geometry,
                network=NetworkParams(uplink_bandwidth_kbps=2000.0, min_elevation_deg=89.9),
                compute=compute,
            ),
        ),
        ground_stations=ground_stations,
        update_interval_s=15.0,
        duration_s=900.0,
    )


def _per_pair_uplinks(calc, state):
    """Tests-only reference: every (station, shell) pair through the per-pair
    ``visible_satellites``, in station → shell → satellite order, as
    ``(gst node, satellite node, shell, satellite, distance, delay,
    bandwidth)`` rows per station."""
    rows = {}
    for gst in calc.config.ground_stations:
        rows[gst.name] = []
        for shell, shell_config in enumerate(calc.config.shells):
            threshold = (
                gst.min_elevation_deg
                if gst.min_elevation_deg is not None
                else shell_config.network.min_elevation_deg
            )
            bandwidth = (
                gst.uplink_bandwidth_kbps
                if gst.uplink_bandwidth_kbps is not None
                else shell_config.network.uplink_bandwidth_kbps
            )
            visible, distances = visible_satellites(
                gst.station.position_ecef, state.satellite_positions_ecef[shell], threshold
            )
            for satellite, distance in zip(visible.tolist(), distances.tolist()):
                rows[gst.name].append(
                    (
                        calc.node_index.ground_station(gst.name),
                        calc.node_index.satellite(shell, satellite),
                        shell,
                        satellite,
                        distance,
                        float(link_delay_ms(distance)),
                        bandwidth,
                    )
                )
    return rows


def _assert_uplinks_match_reference(calc, state):
    reference = _per_pair_uplinks(calc, state)
    graph = state.graph
    uplink = graph.link_type_codes == _CODE_BY_LINK_TYPE[LinkType.UPLINK]
    # ISLs first, then the uplinks by station, shell and satellite.
    assert np.all(np.diff(uplink.astype(int)) >= 0)
    edges = [row for rows in reference.values() for row in rows]
    assert graph.node_a[uplink].tolist() == [row[0] for row in edges]
    assert graph.node_b[uplink].tolist() == [row[1] for row in edges]
    assert graph.distances_km[uplink].tolist() == [row[4] for row in edges]
    assert graph.delays_ms[uplink].tolist() == [row[5] for row in edges]
    assert graph.bandwidths_kbps[uplink].tolist() == [row[6] for row in edges]
    for name, rows in reference.items():
        # sorted() is stable: equally distant satellites keep edge order.
        nearest_first = sorted(rows, key=lambda row: row[4])
        assert [
            (u.shell, u.satellite, u.distance_km, u.delay_ms) for u in state.uplinks_of(name)
        ] == [row[2:6] for row in nearest_first]
    return {name: len(rows) for name, rows in reference.items()}


class TestUplinkTable:
    def test_edge_order_and_uplinks_of_on_both_paths(self):
        """Three stations over two shells — one sees both shells (exact
        ties between the twins), one sees nothing, one comes to see a
        single satellite: station → shell → satellite edge order and the
        nearest-first views, cold and through twelve differential epochs."""
        config = _twin_shell_config(
            (
                GroundStationConfig(
                    station=GroundStation("both", 21.3, -157.9),
                    uplink_bandwidth_kbps=500.0,
                    min_elevation_deg=8.2,
                ),
                GroundStationConfig(
                    station=GroundStation("blind", 10.0, -160.0), min_elevation_deg=89.99
                ),
                GroundStationConfig(station=GroundStation("single", -5.0, 170.0)),
            )
        )
        calc = ConstellationCalculation(config)
        reference = ConstellationCalculation(config)
        state = calc.state_at(0.0)
        counts = [_assert_uplinks_match_reference(calc, state)]
        for step in range(1, 13):
            state, _ = calc.diff_since(state, step * config.update_interval_s)
            counts.append(_assert_uplinks_match_reference(calc, state))
            cold = reference.state_at(state.time_s)
            for name in config.ground_station_names:
                assert state.uplinks_of(name) == cold.uplinks_of(name)
        assert counts[0] == {"both": 4, "blind": 0, "single": 0}
        assert counts[-1] == {"both": 2, "blind": 0, "single": 1}
        both = state.uplinks_of("both")
        assert [u.shell for u in both] == [0, 1]
        assert both[0].satellite == both[1].satellite
        assert both[0].distance_km == both[1].distance_km
        assert state.uplinks_of("blind") == []
        assert state.uplinks_of("no-such-station") == []

    @pytest.mark.parametrize(
        "ground_stations",
        [
            pytest.param((), id="no-ground-stations"),
            pytest.param(
                (
                    GroundStationConfig(
                        station=GroundStation("blind-a", 10.0, -160.0), min_elevation_deg=89.99
                    ),
                    GroundStationConfig(
                        station=GroundStation("blind-b", -5.0, 170.0), min_elevation_deg=89.99
                    ),
                ),
                id="no-visible-pair",
            ),
        ],
    )
    def test_no_uplinks_builds_an_isl_only_graph_on_both_paths(self, ground_stations):
        config = _twin_shell_config(ground_stations)
        calc = ConstellationCalculation(config)
        cold = calc.state_at(0.0)
        incremental, diff = calc.diff_since(cold, 15.0)
        for state in (cold, incremental):
            codes = state.graph.link_type_codes
            assert codes.size > 200
            assert np.all(codes == _CODE_BY_LINK_TYPE[LinkType.ISL])
            assert all(state.uplinks_of(name) == [] for name in config.ground_station_names)
        assert diff.topology.is_structural_noop
        reference = calc.state_at(15.0).graph
        assert incremental.graph.node_a.tobytes() == reference.node_a.tobytes()
        assert incremental.graph.delays_ms.tobytes() == reference.delays_ms.tobytes()
