"""Unit tests for the microVM migration scheduler and the GeoJSON constellation map."""

import pytest

from repro.core import (
    BoundingBox,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
    snapshot_to_geojson,
)
from repro.hosts import Host, MigrationScheduler
from repro.microvm import MachineBatch, MachineState
from repro.orbits import GroundStation, ShellGeometry


def _place(host, name, memory=1024, boot_s=0.0):
    compute = ComputeParams(vcpu_count=1, memory_mib=memory)
    host.place(MachineBatch.single(name, 0, len(host.machines), compute), boot_s=boot_s)


def _running(host):
    return sum(machine.state is MachineState.RUNNING for machine in host.machines.values())


def _imbalanced_hosts():
    """Host 0 carries eight booted 1 GiB machines, host 1 carries none."""
    hosts = [Host(index=0, memory_mib=32 * 1024), Host(index=1, memory_mib=32 * 1024)]
    for index in range(8):
        _place(hosts[0], f"sat-{index}")
    return hosts


class TestMigrationScheduler:
    def test_plan_reduces_imbalance(self):
        hosts = _imbalanced_hosts()
        scheduler = MigrationScheduler(hosts, imbalance_threshold_mib=1024.0)
        assert scheduler.imbalance_mib() == 8192.0
        plan = scheduler.plan()
        assert len(plan) >= 3
        assert all(entry.source_host == 0 and entry.target_host == 1 for entry in plan)

    def test_execute_moves_machines_and_records_downtime(self):
        hosts = _imbalanced_hosts()
        scheduler = MigrationScheduler(hosts, imbalance_threshold_mib=1024.0)
        events = scheduler.rebalance(now_s=100.0)
        assert len(events) >= 3
        assert scheduler.imbalance_mib() <= 1024.0 + 1024.0
        for event in events:
            assert event.downtime_s > 0.0
            moved = hosts[1].machine(event.machine_name)
            # Migrated machines end up running again on the target host.
            assert moved.state is MachineState.RUNNING
            assert event.machine_name not in hosts[0].machines
        assert scheduler.events == events

    def test_balanced_hosts_produce_empty_plan(self):
        hosts = [Host(index=0), Host(index=1)]
        for host in hosts:
            _place(host, f"m-{host.index}")
        scheduler = MigrationScheduler(hosts)
        assert scheduler.plan() == []
        assert scheduler.rebalance(0.0) == []

    def test_downtime_scales_with_memory(self):
        hosts = [Host(index=0), Host(index=1)]
        scheduler = MigrationScheduler(hosts, transfer_rate_mbps=1000.0)
        small = scheduler.migration_downtime_s(512)
        large = scheduler.migration_downtime_s(8192)
        assert large > small

    def test_execute_skips_target_without_capacity(self):
        hosts = [Host(index=0, memory_mib=32 * 1024), Host(index=1, memory_mib=512)]
        for index in range(4):
            _place(hosts[0], f"sat-{index}", memory=1024)
        scheduler = MigrationScheduler(hosts, imbalance_threshold_mib=0.0)
        events = scheduler.rebalance(0.0)
        assert events == []
        assert len(hosts[0].machines) == 4

    def test_migration_carries_workload_accounting(self):
        hosts = _imbalanced_hosts()
        for name in list(hosts[0].machines):
            hosts[0].set_busy_fraction(name, 0.75)
        cores_before = sum(host.cpu_cores_in_use() for host in hosts)
        events = MigrationScheduler(hosts, imbalance_threshold_mib=1024.0).rebalance(100.0)
        assert events
        assert sum(host.cpu_cores_in_use() for host in hosts) == cores_before
        for host in hosts:
            assert host.cpu_cores_in_use() == sum(
                0.75 * machine.cpu_quota.vcpu_count * machine.cpu_quota.quota_fraction
                for machine in host.machines.values()
            )
            assert host.reserved_memory_mib() == 1024.0 * len(host.machines)
        # The moved machines report to their new host from now on.
        hosts[1].machines.suspend(events[0].machine_name)
        assert _running(hosts[1]) == len(events) - 1
        assert _running(hosts[0]) == 8 - len(events)

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationScheduler([Host(index=0)])
        hosts = [Host(index=0), Host(index=1)]
        with pytest.raises(ValueError):
            MigrationScheduler(hosts, imbalance_threshold_mib=-1.0)
        with pytest.raises(ValueError):
            MigrationScheduler(hosts, transfer_rate_mbps=0.0)
        with pytest.raises(ValueError):
            MigrationScheduler(hosts).plan(max_moves=0)


class TestGeoJSONMap:
    def _state(self, bounding_box=None):
        config = Configuration(
            shells=(
                ShellConfig(
                    name="iridium",
                    geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                    network=NetworkParams(min_elevation_deg=8.2),
                    compute=ComputeParams(vcpu_count=1, memory_mib=1024),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            ),
            bounding_box=bounding_box,
            update_interval_s=5.0,
        )
        return ConstellationCalculation(config).state_at(0.0)

    def test_bounding_box_shows_suspended_satellites(self):
        box = BoundingBox(-20.0, 20.0, -180.0, -140.0)
        features = snapshot_to_geojson(self._state(bounding_box=box))["features"]
        active = [
            feature["properties"]["active"]
            for feature in features if feature["properties"]["kind"] == "satellite"
        ]
        assert len(active) == 66
        assert any(active) and not all(active)
