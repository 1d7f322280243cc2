"""Integration tests for the virtual-stationarity state management extension."""

import pytest

from repro import Celestial
from repro.apps import VirtualStationarityExperiment
from repro.core import ComputeParams, Configuration, GroundStationConfig, HostConfig, NetworkParams, ShellConfig
from repro.orbits import GroundStation, ShellGeometry


def _configuration(duration_s=300.0, seed=0):
    # A dense low shell so the anchor satellite changes every few minutes.
    shell = ShellConfig(
        name="starlink-0",
        geometry=ShellGeometry(72, 22, 550.0, 53.0),
        network=NetworkParams(min_elevation_deg=25.0),
        compute=ComputeParams(vcpu_count=2, memory_mib=512),
    )
    return Configuration(
        shells=(shell,),
        ground_stations=(
            GroundStationConfig(station=GroundStation("accra", 5.6037, -0.1870),
                                compute=ComputeParams(vcpu_count=4, memory_mib=4096)),
            GroundStationConfig(station=GroundStation("abuja", 9.0765, 7.3986),
                                compute=ComputeParams(vcpu_count=4, memory_mib=4096)),
        ),
        hosts=HostConfig(count=2, cpu_cores=32, memory_mib=32 * 1024),
        update_interval_s=5.0,
        duration_s=duration_s,
        seed=seed,
    )


def _run(policy, duration_s=300.0):
    with Celestial(_configuration(duration_s=duration_s)) as testbed:
        experiment = VirtualStationarityExperiment(
            testbed,
            anchor_station="accra",
            client_stations=["accra", "abuja"],
            policy=policy,
            read_interval_s=1.0,
        )
        return experiment.run()


@pytest.fixture(scope="module")
def proactive_results():
    return _run("proactive")


@pytest.fixture(scope="module")
def static_results():
    return _run("static")


class TestVirtualStationarity:
    def test_reads_are_answered(self, proactive_results):
        assert len(proactive_results.read_latency) > 200
        assert proactive_results.hits + proactive_results.misses > 200

    def test_proactive_migration_happens(self, proactive_results):
        # Over five minutes the serving satellite for Accra changes at least
        # once, so state must have been migrated.
        assert proactive_results.migration_count >= 1
        assert proactive_results.migration_downtime_s > 0.0
        assert len(proactive_results.anchor_history) >= 2

    def test_proactive_hit_rate_beats_static(self, proactive_results, static_results):
        assert proactive_results.hit_rate > 0.8
        assert static_results.hit_rate < proactive_results.hit_rate
        assert static_results.misses > proactive_results.misses

    def test_static_pays_redirect_latency(self, proactive_results, static_results):
        # Misses pay an extra round trip to the actual state holder, so the
        # static policy's mean read latency is higher.
        assert static_results.read_latency.mean() > proactive_results.read_latency.mean()

    def test_static_policy_never_migrates(self, static_results):
        assert static_results.migration_count == 0

    def test_invalid_policy_rejected(self):
        with Celestial(_configuration(duration_s=10.0)) as testbed, pytest.raises(ValueError):
            VirtualStationarityExperiment(testbed, anchor_station="accra", policy="teleport")
