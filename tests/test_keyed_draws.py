"""Keyed draws: where a machine runs does not change what it does.

A machine's seed is keyed by the run's key root and the machine's identity,
and a usage sample's noise by the host and the sample's index
(:func:`repro.sim.rng.keyed`).  RAFDA's separation of application logic from
distribution policy then holds down to the boot jitter: neither the host
count, nor the backend, nor the worker count moves a boot time or an
application latency, and a machine's seed does not depend on what was
created, sampled or refused before it.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import DartExperiment
from repro.core import (
    BoundingBox,
    Celestial,
    ComputeParams,
    Configuration,
    GroundStationConfig,
    MachineManager,
)
from repro.core.constellation import MachineId
from repro.hosts import Host, HostError
from repro.microvm import MachineBatch
from repro.orbits import GroundStation
from repro.scenarios import dart_configuration, iridium_shell
from repro.sim.rng import key_root, keyed

#: Every placement of one run: host counts × (backend, workers).
_PLACEMENTS = [
    (hosts, parallelism, workers)
    for hosts in (1, 3, 4)
    for parallelism, workers in (("threads", None), ("processes", 1), ("processes", 2))
]


def _on_hosts(config: Configuration, count: int) -> Configuration:
    return dataclasses.replace(config, hosts=dataclasses.replace(config.hosts, count=count))


def _boots(testbed: Celestial) -> dict:
    """Every machine's seed, boot count and latest boot finish."""
    return {
        name: (view.seed, boots, view.boot_finished_at_s)
        for manager in testbed.managers
        for (name, view), boots in zip(
            manager.host.machines.items(), manager.host.machines.boot_counts
        )
    }


def _iridium_run(hosts, parallelism, workers) -> dict:
    # Satellites enter the box (and get their machine) mid-run, after usage
    # samples; hawaii is rebooted twice, the second time inside the first
    # boot's window.
    config = Configuration(
        shells=(iridium_shell(),),
        ground_stations=(GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),),
        bounding_box=BoundingBox(-35.0, 35.0, -180.0, -100.0),
        update_interval_s=30.0,
        duration_s=240.0,
    )
    testbed = Celestial(_on_hosts(config, hosts), parallelism=parallelism, worker_count=workers)
    try:
        hawaii = testbed.ground_station("hawaii")
        testbed.run(until=12.0)
        testbed.fault_injector.reboot(hawaii, 12.0)
        testbed.run(until=12.2)
        testbed.fault_injector.reboot(hawaii, 12.2)
        testbed.run()
        return _boots(testbed)
    finally:
        testbed.close()


def _dart_run(hosts, parallelism, workers) -> tuple[bytes, dict]:
    # Readings reach the warning center just after each full second; it
    # reboots 0.425 s before three of them, so whether a reading finds it
    # still booting (and is lost) depends on its boot jitter.
    config = dart_configuration("central", buoy_count=4, sink_count=8, update_interval_s=1.0)
    testbed = Celestial(_on_hosts(config, hosts), parallelism=parallelism, worker_count=workers)
    try:
        experiment = DartExperiment(testbed, deployment="central", group_count=2)
        experiment.run(duration_s=0.0)
        center = testbed.ground_station("pacific-tsunami-warning-center")
        for reboot_s in (3.575, 5.575, 7.575):
            testbed.run(until=reboot_s)
            testbed.fault_injector.reboot(center, reboot_s)
        testbed.run(until=10.0)
        latencies = experiment.results.all_latencies().values()
        return latencies.tobytes(), _boots(testbed)
    finally:
        testbed.close()


class TestPlacementInvariance:
    def test_iridium_boot_times_do_not_depend_on_hosts_or_workers(self):
        reference = _iridium_run(*_PLACEMENTS[0])
        assert reference["hawaii"][1] == 3
        assert max(finish for _, _, finish in reference.values()) > 30.0  # created mid-run
        for placement in _PLACEMENTS[1:]:
            assert _iridium_run(*placement) == reference, placement

    def test_dart_latencies_do_not_depend_on_hosts_or_workers(self):
        reference = _dart_run(*_PLACEMENTS[0])
        assert len(reference[0]) > 0
        for placement in _PLACEMENTS[1:]:
            assert _dart_run(*placement) == reference, placement


def _seeds(manager: MachineManager) -> dict[str, int]:
    return {name: view.seed for name, view in manager.host.machines.items()}


def _batch(identifiers, compute=ComputeParams(vcpu_count=1, memory_mib=512)):
    names = [f"{identifier}.0.celestial" for identifier in identifiers]
    zeros = np.zeros(len(names), dtype=int)
    return MachineBatch(names, zeros, np.array(identifiers), zeros, (compute,))


class TestSeedsAreKeyedByIdentity:
    def test_a_seed_is_its_key(self):
        manager = MachineManager(Host(index=2), rng=np.random.default_rng(9))
        manager.create_machines(_batch([4, 7]), 0.0)
        manager.create_machines(
            MachineBatch.single("hawaii", MachineId.GROUND_SHELL, 3, ComputeParams()), 0.0
        )
        root = key_root(np.random.default_rng(9))
        assert _seeds(manager) == {
            "4.0.celestial": keyed(root, 0, 4) >> 1,
            "7.0.celestial": keyed(root, 0, 7) >> 1,
            "hawaii": keyed(root, -1, 3) >> 1,
        }

    def test_order_samples_refusals_and_hosts_move_no_seed(self):
        rng = np.random.default_rng(5)
        first = MachineManager(Host(index=0), rng=rng)
        first.create_machines(_batch([1, 2, 3]), 0.0)
        # Last instead of first, on another host, after usage samples and a
        # refused placement: the same seeds.
        last = MachineManager(Host(index=3, memory_mib=2048), rng=rng)
        last.sample_usage(0.0, setup_phase=True)
        last.sample_usage(5.0, applying_update=True)
        with pytest.raises(HostError):
            last.create_machines(_batch([9, 8, 7, 6, 5]), 0.0)
        for identifier in (3, 2, 1):
            last.create_machines(_batch([identifier]), 0.0)
        assert _seeds(last) == _seeds(first)
        assert len(set(_seeds(first).values())) == 3

    def test_the_key_root_is_read_without_advancing_the_generator(self):
        rng = np.random.default_rng(13)
        root = key_root(rng)
        MachineManager(Host(index=0), rng=rng).create_machines(_batch([0]), 0.0)
        assert rng.random() == np.random.default_rng(13).random()
        assert key_root(rng) == root < 2**63
        assert key_root(np.random.default_rng(14)) != root
