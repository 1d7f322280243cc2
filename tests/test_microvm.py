"""Unit tests for the microVM substrate: the machine table, its row view, cgroups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ComputeParams
from repro.microvm import (
    CPUQuota,
    MachineBatch,
    MachineState,
    MachineTable,
    MicroVMError,
)
from repro.microvm.machine import boot_time_s


def _table(vcpus=2, memory=512, seed=1, idle=0.05, boot_s=0.0):
    """A table of one machine, ``sat-0``, booted at ``boot_s``."""
    table = MachineTable()
    compute = ComputeParams(vcpu_count=vcpus, memory_mib=memory, idle_cpu_fraction=idle)
    table.append(MachineBatch.single("sat-0", 0, 0, compute), [seed], boot_s)
    return table


class TestCPUQuota:
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
            ComputeParams(vcpu_count=0, memory_mib=512)
        with pytest.raises(ValueError):
            ComputeParams(vcpu_count=1, memory_mib=0)
        table = _table()
        with pytest.raises(ValueError):
            table.set_quota("sat-0", 0.0)
        with pytest.raises(ValueError):
            table.set_busy("sat-0", 1.5)
        assert table["sat-0"].cpu_quota == CPUQuota(2, 1.0)

    def test_boot_is_subsecond(self):
        table = _table(boot_s=10.0)
        machine = table["sat-0"]
        assert 10.0 < machine.boot_finished_at_s < 11.0
        assert machine.state is MachineState.RUNNING
        assert table.boot_counts[0] == 1

    def test_suspend_resume_cycle(self):
        table = _table()
        table.suspend("sat-0")
        machine = table["sat-0"]
        assert machine.state is MachineState.SUSPENDED
        assert table.usage().booted == 1
        table.resume("sat-0")
        assert machine.state is MachineState.RUNNING

    def test_illegal_transitions(self):
        table = _table()
        with pytest.raises(MicroVMError):
            table.resume("sat-0")
        table.stop("sat-0")
        with pytest.raises(MicroVMError):
            table.suspend("sat-0")
        with pytest.raises(MicroVMError):
            table.resume("sat-0")
        with pytest.raises(MicroVMError):
            table.stop("sat-0")
        assert table["sat-0"].state is MachineState.STOPPED

    def test_fault_injection_stop_and_reboot(self):
        table = _table()
        table.stop("sat-0")
        assert table["sat-0"].state is MachineState.STOPPED
        table.reboot("sat-0", 101.0)
        machine = table["sat-0"]
        assert machine.state is MachineState.RUNNING
        assert machine.boot_finished_at_s > 101.0
        assert table.boot_counts[0] == 2

    def test_memory_reserved_even_when_suspended(self):
        table = _table(memory=1024)
        assert table.reserved_memory_mib == 1024
        assert table.usage().memory_mib == 1024.0
        table.suspend("sat-0")
        assert table.usage().memory_mib == 1024.0
        table.stop("sat-0")
        assert table.usage().memory_mib == 0.0
        assert table.reserved_memory_mib == 1024
        table.reboot("sat-0", 5.0)
        assert table.usage().memory_mib == 1024.0

    def test_cpu_usage_depends_on_state_and_busy_fraction(self):
        table = _table(vcpus=4)
        idle = table.usage().cpu_cores
        table.set_busy("sat-0", 1.0)
        busy = table.usage().cpu_cores
        assert 0.0 < idle < busy
        assert busy == pytest.approx(4.0)
        table.suspend("sat-0")
        assert table.usage().cpu_cores == 0.0
        table.resume("sat-0")
        table.stop("sat-0")
        assert table.usage().cpu_cores == 0.0

    def test_the_kth_boot_is_the_kth_draw_of_the_machine_generator(self):
        table = _table(seed=99, boot_s=0.0)
        starts = (0.0, 5.0, 9.0)
        finishes = [table.boot_finished_at_s("sat-0")]
        for now in starts[1:]:
            table.reboot("sat-0", now)
            finishes.append(table.boot_finished_at_s("sat-0"))
        draws = np.random.default_rng(99).random(3)
        assert finishes == [now + boot_time_s(float(draw)) for now, draw in zip(starts, draws)]


class _Log:
    """The reference: every transition logged at its time, a boot's RUNNING at its finish.

    A microVM with a transition log, drawing each boot's duration from its
    own generator as the boot starts; :meth:`walk` reads the log in order
    until an entry lies after the asked time.
    """

    def __init__(self, seed, boot_s=0.0):
        self.rng = np.random.default_rng(seed)
        self.entries = []
        self.boot(boot_s)  # created booted

    def _set(self, state, time_s):
        self.state = state
        self.entries.append((time_s, state))

    def boot(self, time_s):
        self._set(MachineState.BOOTING, time_s)
        self.finished = time_s + boot_time_s(float(self.rng.random()))
        self._set(MachineState.RUNNING, self.finished)

    def suspend(self, time_s):
        if self.state is not MachineState.RUNNING:
            raise MicroVMError("cannot suspend")
        self._set(MachineState.SUSPENDED, time_s)

    def resume(self, time_s):
        if self.state is not MachineState.SUSPENDED:
            raise MicroVMError("cannot resume")
        self._set(MachineState.RUNNING, time_s)

    def stop(self, time_s):
        if self.state is MachineState.STOPPED:
            raise MicroVMError("cannot stop")
        self._set(MachineState.STOPPED, time_s)

    def reboot(self, time_s):
        if self.state is not MachineState.STOPPED:
            self._set(MachineState.STOPPED, time_s)
        self.boot(time_s)

    def walk(self, time_s):
        state = None  # before the creation's boot: never asked
        for entry_s, entry in self.entries:
            if entry_s > time_s:
                break
            state = entry
        return state


def _apply(table, operation, now):
    if operation == "reboot":
        table.reboot("sat-0", now)
    else:
        getattr(table, operation)("sat-0")


class TestStateAtMatchesTheLog:
    """The table's lazy rule reads as the reference log at and after the latest operation."""

    def test_stop_during_boot_log_is_not_time_sorted(self):
        table, log = _table(seed=1, boot_s=10.0), _Log(1, boot_s=10.0)
        table.stop("sat-0")  # in the log, after the boot's future finish time
        log.stop(10.1)
        times = [entry_s for entry_s, _ in log.entries]
        assert times != sorted(times)
        finished = table.boot_finished_at_s("sat-0")
        assert finished == log.finished
        for time_s in (10.1, 10.2, finished, finished + 1.0):
            assert table.state_at("sat-0", time_s) is log.walk(time_s)
        assert table.state_at("sat-0", finished) is MachineState.STOPPED
        assert table.state_at("sat-0", 10.2) is MachineState.BOOTING

    @settings(max_examples=200, deadline=None)
    @given(
        programme=st.lists(
            st.tuples(
                st.sampled_from(["suspend", "resume", "stop", "reboot"]),
                st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.6, 2.0]),
            ),
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
        offsets=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    )
    def test_property_state_at_equals_linear_walk(self, programme, seed, offsets):
        """Any lifecycle programme, any time at or after the latest operation —
        including reboots inside a boot window, which hold the machine BOOTING
        until the earlier boot's finish."""
        table, log = _table(seed=seed), _Log(seed)
        now = 0.0
        for operation, gap in programme:
            now += gap
            try:
                getattr(log, operation)(now)
            except MicroVMError:
                with pytest.raises(MicroVMError):  # refused alike, nothing changed
                    _apply(table, operation, now)
            else:
                _apply(table, operation, now)
            assert table["sat-0"].state is log.state
            assert table.boot_finished_at_s("sat-0") == log.finished
            logged = [entry_s for entry_s, _ in log.entries if entry_s >= now]
            for time_s in [now + offset for offset in offsets] + logged:
                assert table.state_at("sat-0", time_s) is log.walk(time_s)
                assert table.is_running_at("sat-0", time_s) == (
                    log.walk(time_s) is MachineState.RUNNING
                )
