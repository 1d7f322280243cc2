"""Integration tests for the Celestial testbed façade."""

import pytest

from repro import Celestial
from repro.core import ComputeParams, Configuration, Coordinator, GroundStationConfig, HostConfig, NetworkParams, ShellConfig
from repro.microvm import MachineState
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import dart_configuration, west_africa_configuration


def _small_config(**overrides):
    parameters = dict(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2, isl_bandwidth_kbps=100_000.0,
                                      uplink_bandwidth_kbps=100_000.0),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            GroundStationConfig(station=GroundStation("guam", 13.44, 144.79)),
        ),
        hosts=HostConfig(count=2, cpu_cores=32, memory_mib=32 * 1024),
        update_interval_s=5.0,
        duration_s=30.0,
    )
    parameters.update(overrides)
    return Configuration(**parameters)


class TestTestbedLifecycle:
    def test_start_creates_machines_and_state(self):
        testbed = Celestial(_small_config())
        testbed.start()
        testbed.run(until=1.0)
        assert testbed.database.has_state
        assert testbed.booted_machines() == 66 + 2
        assert testbed.machine_running(testbed.ground_station("hawaii"))
        assert testbed.state.active_count() == 66

    def test_updates_happen_at_interval(self):
        testbed = Celestial(_small_config())
        testbed.run(until=30.0)
        assert testbed.coordinator.stats.count == 7
        assert testbed.database.updated_at_s == 30.0

    def test_resource_traces_populated(self):
        testbed = Celestial(_small_config(), usage_sample_interval_s=5.0)
        testbed.run(until=30.0)
        traces = testbed.resource_traces()
        assert set(traces) == {0, 1}
        for trace in traces.values():
            assert len(trace) >= 6
            assert trace.peak_memory_percent() > 0.0

    def test_samples_coinciding_with_an_update_are_flagged(self, monkeypatch):
        """0.5 and 1.0 s are update instants of a 0.1 s interval although
        ``0.5 % 0.1`` is 0.0999…; 0.25 and 0.75 s are not."""
        flagged = {}
        sample_all_usage = Coordinator.sample_all_usage

        def spy(self, now_s, setup_phase=False, applying_update=False):
            flagged[now_s] = applying_update
            return sample_all_usage(self, now_s, setup_phase, applying_update)

        monkeypatch.setattr(Coordinator, "sample_all_usage", spy)
        testbed = Celestial(_small_config(update_interval_s=0.1), usage_sample_interval_s=0.25)
        testbed.run(until=1.0)
        assert flagged == {0.0: False, 0.25: False, 0.5: True, 0.75: False, 1.0: True}

    def test_machine_access_and_estimate(self):
        testbed = Celestial(_small_config())
        testbed.run(until=1.0)
        satellite = testbed.satellite(0, 5)
        assert testbed.machine(satellite).state is MachineState.RUNNING
        assert testbed.resource_estimate.satellites_in_box == 66
        assert testbed.processing_delay_s(satellite, 0.002) == pytest.approx(0.002)

    def test_ensure_machine_is_idempotent(self):
        testbed = Celestial(_small_config())
        testbed.run(until=1.0)
        satellite = testbed.satellite(0, 5)
        before = testbed.booted_machines()
        testbed.ensure_machine(satellite)
        assert testbed.booted_machines() == before


class TestTestbedDataPlane:
    def test_message_latency_matches_state_delay(self):
        testbed = Celestial(_small_config())
        testbed.start()
        hawaii = testbed.ground_station("hawaii")
        guam = testbed.ground_station("guam")
        sender = testbed.endpoint(hawaii)
        receiver = testbed.endpoint(guam)
        latencies = []
        expected = []

        def send():
            yield testbed.sim.timeout(1.0)
            # The rule installed for the pair comes from the state current at
            # send time, so capture the expected delay at the same moment.
            expected.append(testbed.state.delay_ms(hawaii, guam))
            sender.send(guam, 256, payload="ping")

        def receive():
            message = yield receiver.receive()
            latencies.append(message.latency_ms(testbed.sim.now))

        testbed.sim.process(receive())
        testbed.sim.process(send())
        testbed.run(until=5.0)
        assert latencies[0] == pytest.approx(expected[0], rel=1e-6)

    def test_messages_to_stopped_machine_dropped(self):
        testbed = Celestial(_small_config())
        testbed.start()
        testbed.run(until=1.0)
        hawaii = testbed.ground_station("hawaii")
        satellite = testbed.satellite(0, 3)
        testbed.endpoint(satellite)
        sender = testbed.endpoint(hawaii)
        testbed.fault_injector.terminate(satellite, testbed.sim.now)

        def send():
            sender.send(satellite, 256)
            yield testbed.sim.timeout(0.5)

        testbed.sim.process(send())
        testbed.run(until=3.0)
        stats = testbed.network_statistics()
        assert stats["dropped"] >= 1
        assert stats["delivered"] == 0

    def test_fault_injected_packet_loss(self):
        testbed = Celestial(_small_config())
        testbed.start()
        testbed.run(until=1.0)
        hawaii = testbed.ground_station("hawaii")
        guam = testbed.ground_station("guam")
        testbed.endpoint(guam)
        sender = testbed.endpoint(hawaii)
        testbed.fault_injector.inject_packet_loss(hawaii, guam, 1.0, testbed.sim.now)

        def send():
            for _ in range(5):
                sender.send(guam, 128)
                yield testbed.sim.timeout(0.1)

        testbed.sim.process(send())
        testbed.run(until=3.0)
        assert testbed.network_statistics()["delivered"] == 0
        assert testbed.network_statistics()["dropped"] >= 5


class TestBoundingBoxSuspension:
    def test_out_of_box_satellites_not_created(self):
        config = west_africa_configuration(duration_s=10.0, shells="lowest")
        testbed = Celestial(config)
        testbed.run(until=10.0)
        assert testbed.booted_machines() < 100
        assert testbed.booted_machines() >= testbed.state.active_count()

    def test_satellites_suspended_after_leaving_box(self):
        config = west_africa_configuration(duration_s=120.0, shells="lowest")
        testbed = Celestial(config)
        testbed.run(until=120.0)
        suspended = sum(manager.suspension_count for manager in testbed.managers)
        # Over two minutes several satellites cross the box boundary.
        assert suspended > 0


class TestReproducibility:
    def _network_fingerprint(self, seed):
        config = _small_config(seed=seed)
        testbed = Celestial(config)
        testbed.start()
        hawaii = testbed.ground_station("hawaii")
        guam = testbed.ground_station("guam")
        sender = testbed.endpoint(hawaii)
        receiver = testbed.endpoint(guam)
        samples = []

        def send():
            while True:
                sender.send(guam, 256)
                yield testbed.sim.timeout(1.0)

        def receive():
            while True:
                message = yield receiver.receive()
                samples.append(round(message.latency_ms(testbed.sim.now), 6))

        testbed.sim.process(send())
        testbed.sim.process(receive())
        testbed.run(until=30.0)
        return samples

    def test_same_seed_identical_results(self):
        assert self._network_fingerprint(1) == self._network_fingerprint(1)

    def test_results_nonempty(self):
        assert len(self._network_fingerprint(2)) >= 25


class TestDartConfigurationIntegration:
    def test_small_dart_testbed_runs(self):
        config = dart_configuration(buoy_count=5, sink_count=10, duration_s=20.0)
        testbed = Celestial(config)
        testbed.run(until=20.0)
        assert testbed.booted_machines() == 66 + 16
        buoy = testbed.ground_station("buoy-0")
        center = testbed.ground_station("pacific-tsunami-warning-center")
        assert testbed.state.reachable(buoy, center)
