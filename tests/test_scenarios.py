"""Unit tests for the paper's scenario configurations."""

import numpy as np
import pytest

from repro.core import Celestial, ConstellationCalculation, validate_configuration
from repro.scenarios import (
    CLIENT_LOCATIONS,
    MIXED_GROUND_STATIONS,
    PACIFIC_TSUNAMI_WARNING_CENTER,
    OperatorDegradation,
    TELESAT_GROUND_STATIONS,
    build,
    dart_configuration,
    degraded_operator_configuration,
    generate_buoys,
    generate_sinks,
    iridium_shell,
    kuiper_shells,
    mixed_operator_configuration,
    oneweb_shell,
    starlink_first_shell,
    starlink_phase1_shells,
    telesat_configuration,
    telesat_shells,
    victim_shell_index,
    west_africa_configuration,
    west_africa_bounding_box,
)



def _station(config, name):
    """The ground-station configuration called ``name``."""
    return next(gst for gst in config.ground_stations if gst.name == name)

class TestStarlink:
    def test_phase1_totals(self):
        shells = starlink_phase1_shells()
        assert len(shells) == 5
        totals = [shell.geometry.total_satellites for shell in shells]
        assert totals == [1584, 1600, 400, 375, 450]
        assert sum(build("starlink-phase1").shell_sizes) == 4409

    def test_first_shell_geometry(self):
        shell = starlink_first_shell()
        assert shell.geometry.planes == 72
        assert shell.geometry.satellites_per_plane == 22
        assert shell.geometry.altitude_km == 550.0
        assert shell.geometry.inclination_deg == 53.0

    def test_limit_parameter(self):
        assert len(starlink_phase1_shells(limit=2)) == 2

    def test_altitudes_match_paper(self):
        altitudes = [shell.geometry.altitude_km for shell in starlink_phase1_shells()]
        assert altitudes == [550.0, 1110.0, 1130.0, 1275.0, 1325.0]


class TestIridium:
    def test_geometry_matches_paper(self):
        shell = iridium_shell()
        assert shell.geometry.total_satellites == 66
        assert shell.geometry.planes == 6
        assert shell.geometry.altitude_km == 780.0
        assert shell.geometry.arc_of_ascending_nodes_deg == 180.0
        assert shell.geometry.is_polar_star

    def test_sensor_bandwidth(self):
        shell = iridium_shell()
        assert shell.network.uplink_bandwidth_kbps == 88.0
        assert shell.network.isl_bandwidth_kbps == 100_000.0


class TestKuiper:
    def test_shell_totals(self):
        shells = kuiper_shells()
        assert len(shells) == 3
        totals = [shell.geometry.total_satellites for shell in shells]
        assert totals == [1156, 1296, 784]
        assert sum(build("kuiper").shell_sizes) == 3236

    def test_first_shell_geometry(self):
        shell = kuiper_shells(limit=1)[0]
        assert shell.geometry.planes == 34
        assert shell.geometry.satellites_per_plane == 34
        assert shell.geometry.altitude_km == 630.0
        assert shell.geometry.arc_of_ascending_nodes_deg == 360.0
        assert not shell.geometry.is_polar_star

    def test_min_elevation_stricter_than_starlink(self):
        assert kuiper_shells()[0].network.min_elevation_deg == 35.0
        assert starlink_first_shell().network.min_elevation_deg == 25.0

    def test_limit_parameter(self):
        assert len(kuiper_shells(limit=2)) == 2


class TestOneWeb:
    def test_geometry_is_near_polar_walker_star(self):
        shell = oneweb_shell()
        assert shell.geometry.total_satellites == 648
        assert sum(build("oneweb").shell_sizes) == 648
        assert shell.geometry.planes == 18
        assert shell.geometry.altitude_km == 1200.0
        assert shell.geometry.arc_of_ascending_nodes_deg == 180.0
        assert shell.geometry.is_polar_star

    def test_seam_removes_inter_plane_links(self):
        # A Walker-star +GRID drops the inter-plane links across the seam:
        # 2*N - satellites_per_plane links instead of the seamless 2*N.
        from repro.topology.isl import grid_plus_isl_pairs

        geometry = oneweb_shell().geometry
        pairs = grid_plus_isl_pairs(geometry)
        assert len(pairs) == 2 * 648 - 36


class TestMixedOperator:
    def test_composition(self):
        config = mixed_operator_configuration(duration_s=60.0)
        names = [shell.name for shell in config.shells]
        assert names == ["starlink-0", "kuiper-0", "oneweb"]
        assert config.total_satellites == 1584 + 1156 + 648
        assert set(config.ground_station_names) == set(MIXED_GROUND_STATIONS)

    def test_full_kuiper_option(self):
        config = mixed_operator_configuration(duration_s=60.0, kuiper_shell_limit=None)
        assert config.total_satellites == 1584 + 3236 + 648

    def test_multi_shell_uplink_selection(self):
        # The polar station only sees the near-polar OneWeb shell; the
        # equatorial station must reach all three operators' shells.
        config = mixed_operator_configuration(duration_s=60.0)
        state = ConstellationCalculation(config).state_at(0.0)
        polar_shells = {u.shell for u in state.uplinks_of("longyearbyen")}
        equatorial_shells = {u.shell for u in state.uplinks_of("quito")}
        assert polar_shells == {2}
        assert equatorial_shells == {0, 1, 2}

    def test_validates(self):
        config = mixed_operator_configuration(duration_s=60.0)
        assert isinstance(validate_configuration(config), list)


class TestWestAfrica:
    def test_configuration_composition(self):
        config = west_africa_configuration(duration_s=60.0)
        assert config.duration_s == 60.0
        assert config.update_interval_s == 2.0
        names = set(config.ground_station_names)
        assert {"accra", "abuja", "yaounde", "johannesburg-cloud", "johannesburg-tracking"} == names
        assert config.hosts.count == 3
        assert config.hosts.total_cores == 96

    def test_client_resources_match_paper(self):
        config = west_africa_configuration()
        accra = _station(config, "accra")
        assert accra.compute.vcpu_count == 4
        assert accra.compute.memory_mib == 4096
        bridge = _station(config, "johannesburg-cloud")
        assert bridge.compute.vcpu_count == 2
        assert bridge.compute.memory_mib == 512

    def test_bounding_box_contains_clients_but_not_johannesburg(self):
        box = west_africa_bounding_box()
        for station in CLIENT_LOCATIONS.values():
            assert box.contains(station.latitude_deg, station.longitude_deg)
        assert not box.contains(-26.2, 28.0)

    def test_shell_selection(self):
        assert len(west_africa_configuration(shells="all").shells) == 5
        assert len(west_africa_configuration(shells="two-lowest").shells) == 2
        assert len(west_africa_configuration(shells="lowest").shells) == 1

    def test_no_bounding_box_option(self):
        config = west_africa_configuration(use_bounding_box=False)
        assert config.bounding_box is None

    def test_validates_cleanly(self):
        warnings = validate_configuration(west_africa_configuration(shells="lowest"))
        # Over-provisioning of CPU cores is expected (the paper relies on it).
        assert all("memory" not in warning for warning in warnings)


class TestPacific:
    def test_buoys_and_sinks_deterministic(self):
        assert [b.name for b in generate_buoys(5)] == [f"buoy-{i}" for i in range(5)]
        first = [(b.latitude_deg, b.longitude_deg) for b in generate_buoys(10)]
        second = [(b.latitude_deg, b.longitude_deg) for b in generate_buoys(10)]
        assert first == second

    def test_buoys_in_pacific(self):
        for buoy in generate_buoys(50):
            assert -40.0 <= buoy.latitude_deg <= 50.0
            assert buoy.longitude_deg >= 150.0 or buoy.longitude_deg <= -120.0

    def test_sinks_near_buoys(self):
        buoys = generate_buoys(20)
        sinks = generate_sinks(buoys, 40)
        assert len(sinks) == 40
        for sink in sinks:
            assert -60.0 <= sink.latitude_deg <= 60.0

    def test_dart_configuration_counts(self):
        config = dart_configuration(buoy_count=100, sink_count=200)
        assert config.total_satellites == 66
        assert len(config.ground_stations) == 301
        assert config.update_interval_s == 5.0
        assert config.hosts.count == 4
        central = _station(config, PACIFIC_TSUNAMI_WARNING_CENTER.name)
        assert central.compute.vcpu_count == 8
        assert central.compute.memory_mib == 8192

    def test_dart_configuration_satellite_resources(self):
        config = dart_configuration(deployment="satellite", buoy_count=10, sink_count=10)
        assert config.shells[0].compute.vcpu_count == 1
        assert config.shells[0].compute.memory_mib == 1024
        buoy = _station(config, "buoy-0")
        assert buoy.uplink_bandwidth_kbps == 88.0

    def test_invalid_deployment(self):
        with pytest.raises(ValueError):
            dart_configuration(deployment="fog")


class TestTelesat:
    def test_hybrid_composition(self):
        polar, inclined = telesat_shells()
        assert polar.geometry.total_satellites == 78
        assert inclined.geometry.total_satellites == 220
        assert sum(build("telesat-lightspeed").shell_sizes) == 298
        # The defining property: one operator mixing both Walker patterns.
        assert polar.geometry.is_polar_star
        assert not inclined.geometry.is_polar_star
        assert polar.geometry.inclination_deg == pytest.approx(98.98)
        assert inclined.geometry.inclination_deg == pytest.approx(50.88)
        assert polar.geometry.altitude_km < inclined.geometry.altitude_km

    def test_configuration(self):
        config = telesat_configuration(duration_s=60.0)
        assert [shell.name for shell in config.shells] == [
            "telesat-polar",
            "telesat-inclined",
        ]
        assert config.total_satellites == 298
        assert set(config.ground_station_names) == set(TELESAT_GROUND_STATIONS)
        assert isinstance(validate_configuration(config), list)

    def test_coverage_split_between_shells(self):
        # Alert (82.5 N) lies beyond the inclined shell's ~76 N footprint
        # edge, so its uplinks can only come from the polar star shell; the
        # equatorial and mid-latitude stations must be served.
        config = telesat_configuration(duration_s=60.0)
        state = ConstellationCalculation(config).state_at(0.0)
        alert_shells = {u.shell for u in state.uplinks_of("alert")}
        assert alert_shells == {0}
        assert state.uplinks_of("singapore")
        assert state.uplinks_of("ottawa")


def _small_degraded_testbed():
    """A scaled-down two-operator testbed for the degradation machinery."""
    from repro.core import (
        ComputeParams,
        Configuration,
        GroundStationConfig,
        HostConfig,
        NetworkParams,
        ShellConfig,
    )
    from repro.orbits import GroundStation, ShellGeometry

    compute = ComputeParams(vcpu_count=1, memory_mib=256)
    config = Configuration(
        shells=(
            ShellConfig(
                name="healthy",
                geometry=ShellGeometry(6, 11, 780.0, 86.4, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=compute,
            ),
            ShellConfig(
                name="oneweb",
                geometry=ShellGeometry(6, 6, 1200.0, 87.9, 180.0),
                network=NetworkParams(min_elevation_deg=15.0),
                compute=compute,
            ),
        ),
        ground_stations=(
            GroundStationConfig(
                station=GroundStation("hawaii", 21.3, -157.9), compute=compute
            ),
        ),
        hosts=HostConfig(count=2, cpu_cores=32, memory_mib=64 * 1024),
        update_interval_s=30.0,
        duration_s=300.0,
    )
    return Celestial(config)


class TestDegradedOperator:
    def test_configuration_names_victim(self):
        config, victim = degraded_operator_configuration(duration_s=60.0)
        assert config.shells[victim].name == "oneweb"
        assert config.total_satellites == 1584 + 1156 + 648
        with pytest.raises(ValueError):
            victim_shell_index(config, "nonexistent")

    def test_progressive_isl_loss_via_fault_injection(self):
        testbed = _small_degraded_testbed()
        victim = victim_shell_index(testbed.config)
        degradation = OperatorDegradation(
            testbed, victim, isls_per_step=5, interval_s=30.0, target_fraction=0.4
        )
        testbed.start()
        testbed.sim.process(degradation.process())
        testbed.run(until=240.0)
        # The cascade ran and every severed pair is an intra-victim ISL.
        assert degradation.steps
        assert len(degradation.severed) >= 5
        span = testbed.state.node_index.satellites_of_shell(victim)
        for node_a, node_b in degradation.severed:
            assert node_a in span and node_b in span
        # Severed ISLs are applied through the fault-injection API: the
        # network carries a total-loss override in both directions and the
        # injector logged the events.
        loss_events = [
            event
            for event in testbed.fault_injector.events
            if event.kind == "packet-loss"
        ]
        assert len(loss_events) == 2 * len(degradation.severed)
        # Monotone progress up to the target fraction.
        totals = [step.total_severed for step in degradation.steps]
        assert totals == sorted(totals)
        assert degradation.done or degradation.steps[-1].remaining_intact == 0
        # Every injected loss targets the victim shell, so the healthy
        # operator's shell is untouched.
        for event in loss_events:
            source, _, destination = event.machine.partition("->")
            for name in (source, destination):
                _identifier, shell, _ = name.split(".", 2)
                assert int(shell) == victim

    def test_rejects_invalid_parameters(self):
        testbed = _small_degraded_testbed()
        with pytest.raises(ValueError):
            OperatorDegradation(testbed, 1, target_fraction=0.0)
        with pytest.raises(ValueError):
            OperatorDegradation(testbed, 1, isls_per_step=0)
