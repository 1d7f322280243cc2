"""Unit tests for the microVM substrate (machines, kernels, rootfs, cgroups)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microvm import (
    CPUQuota,
    KernelImage,
    MachineResources,
    MachineState,
    MicroVM,
    MicroVMError,
    OverlayStore,
    RootFilesystemImage,
)


def _machine(name="sat-0", vcpus=2, memory=512):
    return MicroVM(name, MachineResources(vcpu_count=vcpus, memory_mib=memory),
                   rng=np.random.default_rng(1))


class TestKernelAndRootfs:
    def test_kernel_command_line(self):
        kernel = KernelImage()
        assert "console=ttyS0" in kernel.command_line
        extended = kernel.with_args("quiet")
        assert extended.command_line.endswith("quiet")
        assert "quiet" not in kernel.command_line

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            KernelImage(size_mib=0.0)

    def test_rootfs_validation(self):
        with pytest.raises(ValueError):
            RootFilesystemImage(size_mib=-1.0)

    def test_overlay_store_dedup(self):
        store = OverlayStore()
        base = RootFilesystemImage("rootfs.img", size_mib=350.0)
        for i in range(10):
            store.create_overlay(f"sat-{i}", base, overlay_mib=4.0)
        assert store.machine_count == 10
        assert store.deduplicated_storage_mib() == pytest.approx(350.0 + 40.0)
        assert store.naive_storage_mib() == pytest.approx(10 * 354.0)
        assert store.savings_mib() == pytest.approx(9 * 350.0)

    def test_overlay_grow_and_remove(self):
        store = OverlayStore()
        base = RootFilesystemImage()
        store.create_overlay("sat-0", base, overlay_mib=2.0)
        store.grow_overlay("sat-0", 8.0)
        assert store.deduplicated_storage_mib() == pytest.approx(base.size_mib + 10.0)
        store.remove_overlay("sat-0")
        assert store.machine_count == 0
        with pytest.raises(KeyError):
            store.grow_overlay("sat-0", 1.0)

    def test_overlay_duplicate_machine_rejected(self):
        store = OverlayStore()
        store.create_overlay("sat-0", RootFilesystemImage())
        with pytest.raises(ValueError):
            store.create_overlay("sat-0", RootFilesystemImage())


class TestCPUQuota:
    def test_effective_cores(self):
        quota = CPUQuota(vcpu_count=2, quota_fraction=0.5)
        assert quota.effective_cores == 1.0

    def test_scaled_duration(self):
        quota = CPUQuota(vcpu_count=2, quota_fraction=0.5)
        assert quota.scaled_duration(1.0) == pytest.approx(2.0)
        assert quota.scaled_duration(1.0, parallelism=2) == pytest.approx(1.0)
        # Parallelism beyond the allocated vCPUs does not help.
        assert quota.scaled_duration(1.0, parallelism=8) == pytest.approx(1.0)

    def test_set_quota_runtime(self):
        quota = CPUQuota(vcpu_count=1)
        quota.set_quota(0.25)
        assert quota.scaled_duration(1.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CPUQuota(vcpu_count=0)
        with pytest.raises(ValueError):
            CPUQuota(vcpu_count=1, quota_fraction=0.0)
        quota = CPUQuota(vcpu_count=1)
        with pytest.raises(ValueError):
            quota.set_quota(2.0)
        with pytest.raises(ValueError):
            quota.scaled_duration(-1.0)


class TestMicroVMLifecycle:
    def test_resources_validation(self):
        with pytest.raises(ValueError):
            MachineResources(vcpu_count=0, memory_mib=512)
        with pytest.raises(ValueError):
            MachineResources(vcpu_count=1, memory_mib=0)

    def test_boot_is_subsecond(self):
        machine = _machine()
        finished = machine.boot(10.0)
        assert 10.0 < finished < 11.0
        assert machine.state is MachineState.RUNNING
        assert machine.boot_count == 1

    def test_suspend_resume_cycle(self):
        machine = _machine()
        machine.boot(0.0)
        machine.suspend(5.0)
        assert machine.state is MachineState.SUSPENDED
        assert not machine.is_running
        assert machine.is_booted
        machine.resume(9.0)
        assert machine.is_running

    def test_illegal_transitions(self):
        machine = _machine()
        with pytest.raises(MicroVMError):
            machine.suspend(0.0)
        with pytest.raises(MicroVMError):
            machine.resume(0.0)
        with pytest.raises(MicroVMError):
            machine.stop(0.0)
        machine.boot(0.0)
        with pytest.raises(MicroVMError):
            machine.boot(1.0)

    def test_fault_injection_stop_and_reboot(self):
        machine = _machine()
        machine.boot(0.0)
        machine.stop(100.0)
        assert machine.state is MachineState.STOPPED
        finished = machine.reboot(101.0)
        assert machine.state is MachineState.RUNNING
        assert finished > 101.0
        assert machine.boot_count == 2

    def test_fail_and_reboot(self):
        machine = _machine()
        machine.boot(0.0)
        machine.fail(50.0)
        assert machine.state is MachineState.FAILED
        machine.reboot(51.0)
        assert machine.is_running

    def test_memory_reserved_even_when_suspended(self):
        machine = _machine(memory=1024)
        assert machine.memory_footprint_mib() == 0.0
        machine.boot(0.0)
        assert machine.memory_footprint_mib() == 1024.0
        machine.suspend(1.0)
        assert machine.memory_footprint_mib() == 1024.0
        machine.stop(2.0)
        assert machine.memory_footprint_mib() == 0.0

    def test_cpu_usage_depends_on_state_and_busy_fraction(self):
        machine = _machine(vcpus=4)
        assert machine.cpu_cores_in_use() == 0.0
        machine.boot(0.0)
        idle = machine.cpu_cores_in_use()
        busy = machine.cpu_cores_in_use(busy_fraction=1.0)
        assert 0.0 < idle < busy
        assert busy == pytest.approx(4.0)
        machine.suspend(1.0)
        assert machine.cpu_cores_in_use(busy_fraction=1.0) == 0.0

    def test_state_at_reconstructs_history(self):
        machine = _machine()
        machine.boot(10.0)
        machine.suspend(20.0)
        machine.resume(30.0)
        assert machine.state_at(5.0) is MachineState.CREATED
        assert machine.state_at(15.0) is MachineState.RUNNING
        assert machine.state_at(25.0) is MachineState.SUSPENDED
        assert machine.state_at(35.0) is MachineState.RUNNING


def _linear_walk(machine, time_s):
    """The plain reference: walk the transition log until it overtakes ``time_s``."""
    state = MachineState.CREATED
    for transition in machine.transitions:
        if transition.time_s > time_s:
            break
        state = transition.state
    return state


class TestStateAtMatchesTheLog:
    def test_stop_during_boot_log_is_not_time_sorted(self):
        machine = _machine()
        finished = machine.boot(10.0)
        machine.stop(10.1)  # lands in the log after the boot's future finish time
        times = [transition.time_s for transition in machine.transitions]
        assert times != sorted(times)
        for time_s in (0.0, 10.0, 10.05, 10.1, 10.2, finished, finished + 1.0):
            assert machine.state_at(time_s) is _linear_walk(machine, time_s)
        assert machine.state_at(finished) is MachineState.STOPPED
        assert machine.state_at(10.2) is MachineState.BOOTING

    @settings(max_examples=200, deadline=None)
    @given(
        programme=st.lists(
            st.tuples(
                st.sampled_from(["boot", "suspend", "resume", "stop", "reboot", "fail"]),
                st.floats(min_value=0.0, max_value=2.0),
            ),
            max_size=12,
        ),
        queries=st.lists(st.floats(min_value=-1.0, max_value=30.0), min_size=1, max_size=8),
    )
    def test_property_state_at_equals_linear_walk(self, programme, queries):
        """Any lifecycle programme, any query time — including operations that
        arrive before a boot has finished, which leave the log unsorted."""
        machine = _machine()
        now = 0.0
        for operation, gap in programme:
            now += gap
            try:
                getattr(machine, operation)(now)
            except MicroVMError:
                pass  # an illegal transition leaves machine and log untouched
            times = [transition.time_s for transition in machine.transitions]
            for time_s in queries + times + [now, max(times), max(times) + 1e-9]:
                assert machine.state_at(time_s) is _linear_walk(machine, time_s)
