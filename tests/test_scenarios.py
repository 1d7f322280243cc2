"""Unit tests for the paper's scenario configurations."""

import hashlib
import inspect
import json

import numpy as np
import pytest

from repro.core import (
    Celestial,
    ConfigurationError,
    ConstellationCalculation,
    validate_configuration,
)
from repro.scenarios import (
    CLIENT_LOCATIONS,
    PACIFIC_TSUNAMI_WARNING_CENTER,
    OperatorDegradation,
    build,
    dart_configuration,
    generate_buoys,
    generate_sinks,
    get,
    iridium_shell,
    mixed_operator_configuration,
    operator_shells,
    telesat_configuration,
    victim_shell_index,
    west_africa_configuration,
    west_africa_bounding_box,
)
from repro.scenarios.operators import SENSOR_COMPUTE


def _station(config, name):
    """The ground-station configuration called ``name``."""
    return next(gst for gst in config.ground_stations if gst.name == name)


#: ``str(inspect.signature(factory))`` of every registered scenario, recorded
#: before the per-operator modules became one catalogue.
SIGNATURES = {
    "starlink-phase1": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, "
        "shell_limit: 'Optional[int]' = None, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "kuiper": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, "
        "shell_limit: 'Optional[int]' = None, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "oneweb": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "telesat-lightspeed": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "iridium": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 5.0, "
        "inclination_deg: 'float' = 90.0, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "mixed-operator": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, "
        "kuiper_shell_limit: 'Optional[int]' = 1, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "degraded-operator": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, "
        "kuiper_shell_limit: 'Optional[int]' = 1, seed: 'int' = 0) -> 'Configuration'"
    ),
    "west-africa-meetup": (
        "(duration_s: 'float' = 600.0, update_interval_s: 'float' = 2.0, "
        "shells: \"Literal['all', 'lowest', 'two-lowest']\" = 'two-lowest', "
        "use_bounding_box: 'bool' = True, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
    "pacific-dart": (
        "(deployment: \"Literal['central', 'satellite']\" = 'central', buoy_count: 'int' = 100, "
        "sink_count: 'int' = 200, duration_s: 'float' = 900.0, "
        "update_interval_s: 'float' = 5.0, seed: 'int' = 0, "
        "epoch: 'Optional[Epoch]' = None) -> 'Configuration'"
    ),
}

#: ``(scenario, params as JSON)`` → sha256 of the sorted-key JSON of
#: ``to_dict()``, recorded before the per-operator modules became one catalogue.
CONFIGURATION_DIGESTS = {
    ("starlink-phase1", "{}"): "53cfd5be33a3c0a4bba03aebc1058eefac61ddd32e1be35329d7ad7787a1313e",
    ("kuiper", "{}"): "ab162b04a535135e8a5c77379865e6fb280ec63dfac61f93f05d8e505d0ec375",
    ("oneweb", "{}"): "d4f40353d70aa74a16c983d262ae3e7c3c4ed1bddaee3f07ac658cfd7c0252f0",
    ("telesat-lightspeed", "{}"):
        "67fe47181bc71aa9b34466673ea5dc60bd998fd213cdfd76a3457d5a908cddf8",
    ("iridium", "{}"): "d9c6e90df12d579f20281d0292ec97a10ec2662ea6c66fc61df36d575bcc6faa",
    ("mixed-operator", "{}"): "2412f33491dc8eb0eb40f37e974674e43e78ea79876872646a5b6160fc377621",
    ("degraded-operator", "{}"): "2412f33491dc8eb0eb40f37e974674e43e78ea79876872646a5b6160fc377621",
    ("west-africa-meetup", "{}"):
        "73472327e5c91187ce9afad3037a3122c3e2e567fe3caf7675e992799db38571",
    ("pacific-dart", "{}"): "1f9e8375c314923eb0c84d7931fa23b6daba0fe10382e2c1b3b5da280f20f1e3",
    ("starlink-phase1", '{"shell_limit": 2}'):
        "e91b336ff3f8ab5ab33752cc56c45ed79a27fca2c7939dabd6e576a79ff3538b",
    ("starlink-phase1", '{"seed": 3, "shell_limit": 1}'):
        "195f45372d1d0370970ad4f5a4e17c8a3e7fd107f89e0636d1a156c8c97ee3f7",
    ("kuiper", '{"shell_limit": 1}'):
        "1f023be1ad3c1709e21bf979fa6c9b49d0c38732aacb8addf581c5c53ffa2b55",
    ("iridium", '{"inclination_deg": 86.4}'):
        "b0092b1886ea9d4bc903cbd351b1453de3437fe9442b734acc58d6beb37297bb",
    ("mixed-operator", '{"kuiper_shell_limit": null}'):
        "5c3e6697054621afba43dc845603ad21b06d7fceedcf29f9ffb2417976700781",
    ("degraded-operator", '{"kuiper_shell_limit": 2}'):
        "92a648351ed101195ccd98dfe333dbfe756a408358eea9a550395c0cc8baca9a",
    ("west-africa-meetup", '{"shells": "all"}'):
        "40e29c4d6d16c95169338ad7bbd03d04030a7c817537eeae8f1069a5c92cf3e4",
    ("west-africa-meetup", '{"shells": "lowest", "use_bounding_box": false}'):
        "c77153bbc6f54388debffca395275e9e9759ac25dd7e73d9bef442ef5f03f575",
    ("pacific-dart", '{"buoy_count": 10, "deployment": "satellite", "sink_count": 20}'):
        "001c3483fc8931946e3b03eb79164a695af662b891a04ae9f798cd037e0ad521",
}


@pytest.mark.parametrize(("name", "params"), CONFIGURATION_DIGESTS)
def test_registered_configurations_are_the_recorded_ones(name, params):
    config = json.dumps(build(name, **json.loads(params)).to_dict(), sort_keys=True)
    assert hashlib.sha256(config.encode()).hexdigest() == CONFIGURATION_DIGESTS[name, params]
    assert str(inspect.signature(get(name))) == SIGNATURES[name]


#: The operator catalogue as the filings and the paper give it, one row per
#: operator: per shell the satellites, planes, satellites per plane, altitude
#: [km], inclination [deg] and arc of ascending nodes [deg], then the ISL and
#: uplink bandwidths [kb/s] and the minimum elevation [deg] all shells share.
FILINGS = {
    "starlink": (
        [1584, 1600, 400, 375, 450],  # phase I, Fig. 1: 4,409 satellites
        [72, 32, 8, 5, 6],
        [22, 50, 50, 75, 75],
        [550.0, 1110.0, 1130.0, 1275.0, 1325.0],
        [53.0, 53.8, 74.0, 81.0, 70.0],
        [360.0] * 5,
        10_000_000.0, 10_000_000.0, 25.0,
    ),
    "kuiper": (
        [1156, 1296, 784],  # 3,236 satellites
        [34, 36, 28],
        [34, 36, 28],
        [630.0, 610.0, 590.0],
        [51.9, 42.0, 33.0],
        [360.0] * 3,
        10_000_000.0, 10_000_000.0, 35.0,  # stricter than Starlink's 25°
    ),
    "oneweb": ([648], [18], [36], [1200.0], [87.9], [180.0], 2_500_000.0, 2_500_000.0, 15.0),
    "telesat": (
        [78, 220],  # a polar star plus a lower-latitude, higher delta shell
        [6, 20],
        [13, 11],
        [1015.0, 1325.0],
        [98.98, 50.88],
        [180.0, 360.0],
        10_000_000.0, 5_000_000.0, 10.0,
    ),
    # Iridium Certus 100 sensors uplink at 88 kb/s (§5.1).
    "iridium": ([66], [6], [11], [780.0], [90.0], [180.0], 100_000.0, 88.0, 8.2),
}

#: Satellites of each bare registered constellation.
REGISTERED_TOTALS = {
    "starlink-phase1": 4409, "kuiper": 3236, "oneweb": 648, "telesat-lightspeed": 298,
}


class TestOperatorCatalogue:
    @pytest.mark.parametrize("operator", FILINGS)
    def test_shells_match_the_filings(self, operator):
        totals, planes, per_plane, altitudes, inclinations, arcs, isl, uplink, elevation = (
            FILINGS[operator]
        )
        shells = operator_shells(operator)
        geometries = [shell.geometry for shell in shells]
        assert [geometry.total_satellites for geometry in geometries] == totals
        assert [geometry.planes for geometry in geometries] == planes
        assert [geometry.satellites_per_plane for geometry in geometries] == per_plane
        assert [geometry.altitude_km for geometry in geometries] == altitudes
        assert [geometry.inclination_deg for geometry in geometries] == pytest.approx(inclinations)
        assert [geometry.arc_of_ascending_nodes_deg for geometry in geometries] == arcs
        # A 180° arc is a Walker-star pattern, a 360° one a Walker-delta.
        assert [geometry.is_polar_star for geometry in geometries] == [arc == 180.0 for arc in arcs]
        for shell in shells:
            assert shell.network.isl_bandwidth_kbps == isl
            assert shell.network.uplink_bandwidth_kbps == uplink
            assert shell.network.min_elevation_deg == elevation

    @pytest.mark.parametrize("name", REGISTERED_TOTALS)
    def test_registered_constellation_totals(self, name):
        assert sum(build(name).shell_sizes) == REGISTERED_TOTALS[name]

    def test_iridium_shell_takes_an_inclination(self):
        assert iridium_shell() == operator_shells("iridium", SENSOR_COMPUTE)[0]
        operational = iridium_shell(inclination_deg=86.4)
        assert operational.geometry.inclination_deg == 86.4
        assert operational.geometry.is_polar_star


class TestStarlink:
    def test_phase1_totals(self):
        shells = operator_shells("starlink")
        assert len(shells) == 5
        totals = [shell.geometry.total_satellites for shell in shells]
        assert totals == [1584, 1600, 400, 375, 450]
        assert sum(build("starlink-phase1").shell_sizes) == 4409

    def test_first_shell_geometry(self):
        shell = operator_shells("starlink", limit=1)[0]
        assert shell.geometry.planes == 72
        assert shell.geometry.satellites_per_plane == 22
        assert shell.geometry.altitude_km == 550.0
        assert shell.geometry.inclination_deg == 53.0

    def test_limit_parameter(self):
        assert [shell.name for shell in operator_shells("starlink", limit=2)] == [
            "starlink-0",
            "starlink-1",
        ]

    def test_altitudes_match_paper(self):
        altitudes = [shell.geometry.altitude_km for shell in operator_shells("starlink")]
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
        shells = operator_shells("kuiper")
        assert len(shells) == 3
        totals = [shell.geometry.total_satellites for shell in shells]
        assert totals == [1156, 1296, 784]
        assert sum(build("kuiper").shell_sizes) == 3236

    def test_first_shell_geometry(self):
        shell = operator_shells("kuiper", limit=1)[0]
        assert shell.geometry.planes == 34
        assert shell.geometry.satellites_per_plane == 34
        assert shell.geometry.altitude_km == 630.0
        assert shell.geometry.arc_of_ascending_nodes_deg == 360.0
        assert not shell.geometry.is_polar_star

    def test_min_elevation_stricter_than_starlink(self):
        assert operator_shells("kuiper")[0].network.min_elevation_deg == 35.0
        assert operator_shells("starlink")[0].network.min_elevation_deg == 25.0

    def test_limit_parameter(self):
        assert len(operator_shells("kuiper", limit=2)) == 2


class TestOneWeb:
    def test_seam_removes_inter_plane_links(self):
        # A Walker-star +GRID drops the inter-plane links across the seam:
        # 2*N - satellites_per_plane links instead of the seamless 2*N.
        from repro.topology.isl import grid_plus_isl_pairs

        (shell,) = operator_shells("oneweb")
        pairs = grid_plus_isl_pairs(shell.geometry)
        assert len(pairs) == 2 * 648 - 36


class TestMixedOperator:
    def test_composition(self):
        config = mixed_operator_configuration(duration_s=60.0)
        names = [shell.name for shell in config.shells]
        assert names == ["starlink-0", "kuiper-0", "oneweb"]
        assert config.total_satellites == 1584 + 1156 + 648
        assert set(config.ground_station_names) == {"quito", "berlin", "longyearbyen"}

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
        with pytest.raises(ConfigurationError, match="'three-lowest'"):
            west_africa_configuration(shells="three-lowest")

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
        with pytest.raises(ConfigurationError, match="'fog'"):
            dart_configuration(deployment="fog")


class TestTelesat:
    def test_configuration(self):
        config = telesat_configuration(duration_s=60.0)
        assert [shell.name for shell in config.shells] == [
            "telesat-polar",
            "telesat-inclined",
        ]
        assert config.total_satellites == 298
        assert set(config.ground_station_names) == {"singapore", "ottawa", "alert"}
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
        config = build("degraded-operator", duration_s=60.0)
        assert config.shells[victim_shell_index(config)].name == "oneweb"
        assert config.total_satellites == 1584 + 1156 + 648
        with pytest.raises(ValueError):
            victim_shell_index(config, "nonexistent")

    def test_progressive_isl_loss_via_fault_injection(self):
        with _small_degraded_testbed() as testbed:
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
        with _small_degraded_testbed() as testbed:
            with pytest.raises(ValueError):
                OperatorDegradation(testbed, 1, target_fraction=0.0)
            with pytest.raises(ValueError):
                OperatorDegradation(testbed, 1, isls_per_step=0)
