"""Unit tests for hosts and resource traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputeParams, MachineId, MachineManager
from repro.hosts import (
    Host,
    HostError,
    ResourceTrace,
    UsageSample,
)
from repro.hosts.host import (
    MACHINE_MANAGER_CPU_PERCENT,
    MACHINE_MANAGER_UPDATE_CPU_PERCENT,
)
from repro.microvm import MachineBatch, MachineState, MachineTable, MicroVMError
from repro.sim.rng import key_root, keyed


def _place(host, name, vcpus=2, memory=512, boot_s=0.0, idle=0.03):
    # Seeds are keyed by identity: each machine of a host gets its own.
    compute = ComputeParams(vcpu_count=vcpus, memory_mib=memory, idle_cpu_fraction=idle)
    host.place(MachineBatch.single(name, 0, len(host.machines), compute), boot_s=boot_s)


class TestResourceTrace:
    def test_record_and_query(self):
        trace = ResourceTrace()
        for t in range(5):
            trace.record(UsageSample(
                time_s=float(t),
                machine_manager_cpu_percent=0.2,
                microvm_cpu_percent=10.0 + t,
                machine_manager_memory_percent=4.0,
                microvm_memory_percent=12.0,
                firecracker_processes=40,
            ))
        assert len(trace) == 5
        assert trace.peak_cpu_percent() == pytest.approx(14.2)
        assert trace.peak_memory_percent() == pytest.approx(16.0)
        assert trace.mean_cpu_percent(after_s=3.0) == pytest.approx(0.2 + 13.5)
        assert trace.cpu_percent().shape == (5,)
        assert trace.firecracker_processes()[0] == 40

    def test_out_of_order_samples_rejected(self):
        trace = ResourceTrace()
        sample = UsageSample(5.0, 0.2, 1.0, 4.0, 10.0, 3)
        trace.record(sample)
        with pytest.raises(ValueError):
            trace.record(UsageSample(4.0, 0.2, 1.0, 4.0, 10.0, 3))

    def test_empty_trace(self):
        trace = ResourceTrace()
        assert trace.peak_cpu_percent() == 0.0
        assert trace.mean_cpu_percent() == 0.0


class TestHost:
    def test_memory_is_hard_constraint(self):
        host = Host(index=0, cpu_cores=4, memory_mib=1024)
        _place(host, "a", memory=512)
        _place(host, "b", memory=512)
        # Placement checks the reserved memory against the limit; a refused
        # machine leaves no row.
        with pytest.raises(HostError):
            _place(host, "c", memory=512)
        assert list(host.machines) == ["a", "b"]

    def test_memory_accounting_follows_boot(self):
        host = Host(index=0, cpu_cores=4, memory_mib=4096)
        _place(host, "a", memory=1024)
        assert host.allocated_memory_mib() == 1024.0
        assert host.microvm_memory_percent() == pytest.approx(25.0)
        host.machines.stop("a")
        assert host.allocated_memory_mib() == 0.0
        assert host.reserved_memory_mib() == 1024.0
        host.machines.reboot("a", 1.0)
        assert host.allocated_memory_mib() == 1024.0

    def test_cpu_overprovisioning_allowed(self):
        host = Host(index=0, cpu_cores=4, memory_mib=32 * 1024)
        for i in range(10):
            _place(host, f"m{i}", vcpus=2, memory=512)
        assert sum(host.machines.vcpus) == 20 > host.cpu_cores

    def test_duplicate_placement_rejected(self):
        host = Host(index=0)
        _place(host, "a")
        with pytest.raises(HostError):
            _place(host, "a")
        assert len(host.machines) == 1

    def test_busy_fraction_affects_cpu_usage(self):
        host = Host(index=0, cpu_cores=32, memory_mib=32 * 1024)
        _place(host, "client", vcpus=4, memory=4096, boot_s=0.0)
        idle_usage = host.cpu_cores_in_use()
        host.set_busy_fraction("client", 1.0)
        assert host.cpu_cores_in_use() == pytest.approx(4.0)
        assert host.cpu_cores_in_use() > idle_usage
        with pytest.raises(ValueError):
            host.set_busy_fraction("client", 1.5)
        with pytest.raises(HostError):
            host.set_busy_fraction("ghost", 0.5)

    def test_usage_sampling(self):
        host = Host(index=0, cpu_cores=32, memory_mib=32 * 1024)
        for i in range(20):
            _place(host, f"sat-{i}", vcpus=2, memory=512, boot_s=0.0)
        setup = host.sample_usage(0.0, setup_phase=True)
        steady = host.sample_usage(60.0)
        assert setup.machine_manager_cpu_percent > steady.machine_manager_cpu_percent
        assert steady.firecracker_processes == 20
        assert steady.microvm_memory_percent == pytest.approx(100.0 * 20 * 512 / (32 * 1024))
        assert len(host.trace) == 2

    def test_remove_machine(self):
        host = Host(index=0)
        _place(host, "a")
        host.machines.take("a")
        assert host.machines == {}
        assert host.reserved_memory_mib() == 0.0
        with pytest.raises(HostError):
            host.machine("a")

    def test_invalid_host_resources(self):
        with pytest.raises(ValueError):
            Host(index=0, cpu_cores=0)

    def test_default_rng_samples_draw_fresh_jitter(self):
        host = Host(index=0)
        first = host.sample_usage(0.0)
        second = host.sample_usage(1.0)
        assert first.machine_manager_cpu_percent != second.machine_manager_cpu_percent

    def test_explicit_rng_sample_is_the_documented_arithmetic(self):
        # The MachineManager path: the j-th noise draw of the k-th sample is
        # keyed by the manager's key root, the host index, k and j; one draw
        # (two while applying an update) per sample.
        manager = MachineManager(Host(index=3), rng=np.random.default_rng(11))
        root = key_root(np.random.default_rng(11))

        def draw(k, j):
            return (keyed(root, 3, k, j) >> 11) * 2.0**-53

        steady = manager.sample_usage(0.0)
        assert steady.machine_manager_cpu_percent == (
            MACHINE_MANAGER_CPU_PERCENT * (0.5 + draw(0, 0))
        )
        applying = manager.sample_usage(1.0, applying_update=True)
        assert applying.machine_manager_cpu_percent == (
            MACHINE_MANAGER_CPU_PERCENT * (0.5 + draw(1, 0))
            + MACHINE_MANAGER_UPDATE_CPU_PERCENT * (0.5 + draw(1, 1))
        )
        # An explicit index names the sample whatever the trace holds.
        again = manager.sample_usage(2.0, applying_update=True, sample_index=1)
        assert again.machine_manager_cpu_percent == applying.machine_manager_cpu_percent


def _sweep(host):
    """Every accounted reading recomputed from scratch, one loop over the rows."""
    machines = host.machines
    cores = memory = 0.0
    booted = 0
    for row, name in enumerate(machines.names):
        state = machines.state(name)
        if state is MachineState.RUNNING:
            cores += machines.vcpus[row] * machines.busy[row] * machines.quota[row]
        if state in (MachineState.RUNNING, MachineState.SUSPENDED):
            memory += float(machines.memory_mib[row])
        booted += state in (MachineState.RUNNING, MachineState.SUSPENDED)
    return {
        "reserved_memory_mib": float(sum(machines.memory_mib)),
        "allocated_memory_mib": memory,
        "cpu_cores_in_use": min(cores, float(host.cpu_cores)),
        "booted_machine_count": booted,
    }


def _readings(host):
    return {name: getattr(host, name)() for name in _sweep(host)}


_LIFECYCLE = ("suspend", "resume", "stop", "reboot")
_OPS = _LIFECYCLE + ("place", "remove", "migrate", "set_busy_fraction", "set_cpu_quota")


class TestAccountingInvariant:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(0, 5),
                st.integers(0, 1),
                st.floats(0.01, 1.0),
            ),
            max_size=60,
        )
    )
    def test_readings_equal_a_fresh_sweep_after_every_step(self, steps):
        # Two small hosts, so the cores-in-use clamp is reached as well.
        hosts = [Host(index=0, cpu_cores=2), Host(index=1, cpu_cores=4)]
        for now_s, (op, index, host_index, value) in enumerate(steps):
            name = f"m{index}"
            owner = next((h for h in hosts if name in h.machines), None)
            if op == "place":
                if owner is None:
                    _place(
                        hosts[host_index], name, vcpus=1 + index % 3,
                        memory=256 * (1 + index), boot_s=float(now_s),
                        idle=0.05 * (1 + index),
                    )
            elif owner is None:
                continue
            elif op == "remove":
                owner.machines.take(name)
            elif op == "migrate":
                owner.transfer(name, hosts[1 - owner.index])
            elif op == "set_busy_fraction":
                owner.set_busy_fraction(name, value)
            elif op == "set_cpu_quota":
                owner.set_cpu_quota(name, value)
            else:
                try:
                    if op == "reboot":
                        owner.machines.reboot(name, float(now_s))
                    else:
                        getattr(owner.machines, op)(name)
                except MicroVMError:
                    pass
            for host in hosts:
                assert _readings(host) == _sweep(host)

    def test_steady_state_samples_walk_no_machine(self, monkeypatch):
        manager = MachineManager(
            Host(index=0, cpu_cores=64, memory_mib=1 << 21), rng=np.random.default_rng(5)
        )
        compute = ComputeParams(vcpu_count=1, memory_mib=512)
        ids = [MachineId(0, i, f"sat-{i}") for i in range(1000)]
        batch = MachineBatch(
            [machine_id.name for machine_id in ids],
            np.zeros(1000, int), np.arange(1000), np.zeros(1000, int), (compute,),
        )
        manager.create_machines(batch, 0.0)
        manager.sample_usage(0.0)

        reads = []
        read_usage = MachineTable._read_usage
        monkeypatch.setattr(
            MachineTable, "_read_usage", lambda table: reads.append(table) or read_usage(table)
        )

        samples = [manager.sample_usage(float(t)) for t in range(1, 11)]
        assert reads == []
        assert len({sample.microvm_cpu_percent for sample in samples}) == 1

        manager.host.machines.suspend(ids[0].name)
        suspended = manager.sample_usage(11.0)
        manager.sample_usage(12.0)
        assert len(reads) == 1
        assert suspended.microvm_cpu_percent < samples[-1].microvm_cpu_percent
        assert suspended.firecracker_processes == 1000

        manager.set_busy_fraction(ids[1], 1.0)
        busy = manager.sample_usage(13.0)
        assert busy.microvm_cpu_percent > suspended.microvm_cpu_percent
        manager.set_cpu_quota(ids[1], 0.5)
        throttled = manager.sample_usage(14.0)
        assert suspended.microvm_cpu_percent < throttled.microvm_cpu_percent
        assert throttled.microvm_cpu_percent < busy.microvm_cpu_percent
        assert _readings(manager.host) == _sweep(manager.host)
