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
from repro.microvm import MachineResources, MicroVM, MicroVMError


def _machine(name, vcpus=2, memory=512):
    return MicroVM(name, MachineResources(vcpu_count=vcpus, memory_mib=memory),
                   rng=np.random.default_rng(0))


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
        host.place(_machine("a", memory=512))
        host.place(_machine("b", memory=512))
        # Machines reserve memory only once booted; placement checks the
        # allocation limit regardless.
        with pytest.raises(HostError):
            host.place(_machine("c", memory=512))

    def test_memory_accounting_follows_boot(self):
        host = Host(index=0, cpu_cores=4, memory_mib=4096)
        machine = _machine("a", memory=1024)
        host.place(machine)
        assert host.allocated_memory_mib() == 0.0
        machine.boot(0.0)
        assert host.allocated_memory_mib() == 1024.0
        assert host.microvm_memory_percent() == pytest.approx(25.0)

    def test_cpu_overprovisioning_allowed(self):
        host = Host(index=0, cpu_cores=4, memory_mib=32 * 1024)
        for i in range(10):
            host.place(_machine(f"m{i}", vcpus=2, memory=512))
        assert host.allocated_vcpus() == 20
        assert host.allocated_vcpus() > host.cpu_cores

    def test_duplicate_placement_rejected(self):
        host = Host(index=0)
        machine = _machine("a")
        host.place(machine)
        with pytest.raises(HostError):
            host.place(machine)

    def test_busy_fraction_affects_cpu_usage(self):
        host = Host(index=0, cpu_cores=32, memory_mib=32 * 1024)
        machine = _machine("client", vcpus=4, memory=4096)
        host.place(machine)
        machine.boot(0.0)
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
        rng = np.random.default_rng(3)
        machines = [_machine(f"sat-{i}", vcpus=2, memory=512) for i in range(20)]
        for machine in machines:
            host.place(machine)
            machine.boot(0.0)
        setup = host.sample_usage(0.0, setup_phase=True, rng=rng)
        steady = host.sample_usage(60.0, rng=rng)
        assert setup.machine_manager_cpu_percent > steady.machine_manager_cpu_percent
        assert steady.firecracker_processes == 20
        assert steady.microvm_memory_percent == pytest.approx(100.0 * 20 * 512 / (32 * 1024))
        assert len(host.trace) == 2

    def test_remove_machine(self):
        host = Host(index=0)
        machine = _machine("a")
        host.place(machine)
        host.remove("a")
        assert host.machines == {}
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
        # The MachineManager path: the jitter is drawn from the manager's own
        # stream, one variate (two while applying an update) per sample.
        manager = MachineManager(Host(index=3), rng=np.random.default_rng(11))
        reference = np.random.default_rng(11)
        steady = manager.sample_usage(0.0)
        assert steady.machine_manager_cpu_percent == (
            MACHINE_MANAGER_CPU_PERCENT * (0.5 + reference.random())
        )
        applying = manager.sample_usage(1.0, applying_update=True)
        assert applying.machine_manager_cpu_percent == (
            MACHINE_MANAGER_CPU_PERCENT * (0.5 + reference.random())
            + MACHINE_MANAGER_UPDATE_CPU_PERCENT * (0.5 + reference.random())
        )


def _sweep(host):
    """Every accounted reading recomputed from scratch, one loop per reading."""
    machines = host.machines
    cores = 0.0
    for name, machine in machines.items():
        cores += machine.cpu_cores_in_use(host._busy_fractions.get(name))
    return {
        "reserved_memory_mib": float(sum(m.resources.memory_mib for m in machines.values())),
        "allocated_vcpus": sum(m.resources.vcpu_count for m in machines.values()),
        "allocated_memory_mib": sum(m.memory_footprint_mib() for m in machines.values()),
        "cpu_cores_in_use": min(cores, float(host.cpu_cores)),
        "booted_machine_count": sum(1 for m in machines.values() if m.is_booted),
        "running_machine_count": sum(1 for m in machines.values() if m.is_running),
    }


def _readings(host):
    return {name: getattr(host, name)() for name in _sweep(host)}


_LIFECYCLE = ("boot", "suspend", "resume", "stop", "reboot", "fail")
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
        pool = [
            MicroVM(
                f"m{i}",
                MachineResources(vcpu_count=1 + i % 3, memory_mib=256 * (1 + i)),
                rng=np.random.default_rng(i),
                active_cpu_fraction=0.05 * (1 + i),
            )
            for i in range(6)
        ]
        for now_s, (op, index, host_index, value) in enumerate(steps):
            machine = pool[index]
            owner = next((h for h in hosts if machine.name in h.machines), None)
            if op == "place":
                if owner is None:
                    hosts[host_index].place(machine)
            elif owner is None:
                continue
            elif op == "remove":
                owner.remove(machine.name)
            elif op == "migrate":
                owner.transfer(machine.name, hosts[1 - owner.index])
            elif op == "set_busy_fraction":
                owner.set_busy_fraction(machine.name, value)
            elif op == "set_cpu_quota":
                owner.set_cpu_quota(machine.name, value)
            else:
                try:
                    getattr(machine, op)(float(now_s))
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
        for machine_id in ids:
            manager.create_machine(machine_id, compute)
        manager.boot_all(0.0)
        manager.sample_usage(0.0)

        calls = {"cpu_cores_in_use": 0, "memory_footprint_mib": 0}
        for name in calls:
            original = getattr(MicroVM, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(MicroVM, name, counted)

        samples = [manager.sample_usage(float(t)) for t in range(1, 11)]
        assert calls == {"cpu_cores_in_use": 0, "memory_footprint_mib": 0}
        assert len({sample.microvm_cpu_percent for sample in samples}) == 1

        manager.machine(ids[0]).suspend(11.0)
        suspended = manager.sample_usage(11.0)
        manager.sample_usage(12.0)
        assert calls == {"cpu_cores_in_use": 1000, "memory_footprint_mib": 1000}
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
