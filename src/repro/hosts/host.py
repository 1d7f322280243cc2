"""A Celestial host: a physical (cloud) server running microVMs.

Hosts support over-provisioning of CPU (microVM vCPUs may exceed physical
cores, §4.1) while memory is a hard constraint because every booted microVM
keeps its full allocation reserved (§4.2).  The host also accounts for the
Machine Manager's own overhead so the usage traces of Figs. 7-8 can be
reproduced.

Accounting invariant: every mutation of an accounted quantity goes through
:class:`Host` (``place``, ``remove``, ``transfer``, ``set_busy_fraction``,
``set_cpu_quota``) or :meth:`MicroVM._set_state`, which notifies the host the
machine is placed on.  Readings are recomputed lazily, by one pass over the
machines, and are bit-identical to a fresh sweep.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.hosts.resources import ResourceTrace, UsageSample
from repro.microvm import MicroVM, OverlayStore


class HostError(RuntimeError):
    """Raised when a host cannot accommodate a machine."""


#: Machine-manager steady-state CPU overhead (paper: ~0.2% of the host).
MACHINE_MANAGER_CPU_PERCENT = 0.2
#: Extra machine-manager CPU cost while applying a constellation update.
MACHINE_MANAGER_UPDATE_CPU_PERCENT = 1.5
#: Machine-manager CPU burst during initial host/network setup.
MACHINE_MANAGER_SETUP_CPU_PERCENT = 25.0
#: Machine-manager memory overhead right after setup (paper: up to 4.5%).
MACHINE_MANAGER_MEMORY_PERCENT_PEAK = 4.5
MACHINE_MANAGER_MEMORY_PERCENT_STEADY = 3.0


class _Usage(NamedTuple):
    """One pass over a host's machines (cores not yet clamped to the host)."""

    cpu_cores: float
    memory_mib: float
    booted: int
    running: int


class Host:
    """One emulation host with bounded memory and over-provisionable CPU."""

    def __init__(
        self,
        index: int,
        cpu_cores: int = 32,
        memory_mib: int = 32 * 1024,
        allow_memory_overcommit: bool = False,
    ):
        if cpu_cores <= 0 or memory_mib <= 0:
            raise ValueError("host resources must be positive")
        self.index = index
        self.cpu_cores = cpu_cores
        self.memory_mib = memory_mib
        self.allow_memory_overcommit = allow_memory_overcommit
        self.machines: dict[str, MicroVM] = {}
        self.overlay_store = OverlayStore()
        self.trace = ResourceTrace()
        self._busy_fractions: dict[str, float] = {}
        # Running totals over the placed machines, maintained by place/remove.
        self._reserved_memory_mib = 0
        self._allocated_vcpus = 0
        # The last pass over the machines; None once anything it depends on
        # has changed.
        self._usage: Optional[_Usage] = None
        self._default_rng = np.random.default_rng(0)

    # -- placement ---------------------------------------------------------

    def reserved_memory_mib(self) -> float:
        """Memory reserved by all placed machines (booted or not)."""
        return float(self._reserved_memory_mib)

    def allocated_memory_mib(self) -> float:
        """Memory held by booted (running or suspended) machines."""
        return self._usage_reading().memory_mib

    def allocated_vcpus(self) -> int:
        """Total vCPUs of all placed machines (may exceed physical cores)."""
        return self._allocated_vcpus

    def can_place(self, machine: MicroVM) -> bool:
        """Whether the machine's memory allocation fits on this host."""
        if self.allow_memory_overcommit:
            return True
        prospective = self.reserved_memory_mib() + machine.resources.memory_mib
        return prospective <= self.memory_mib

    def _require_placeable(self, machine: MicroVM) -> None:
        if machine.name in self.machines:
            raise HostError(f"machine {machine.name!r} is already placed on host {self.index}")
        if not self.can_place(machine):
            raise HostError(
                f"host {self.index} cannot fit machine {machine.name!r}: "
                f"{self.reserved_memory_mib() + machine.resources.memory_mib:.0f} MiB "
                f"needed, {self.memory_mib} MiB available"
            )

    def place(self, machine: MicroVM) -> None:
        """Place a machine on this host (it is not booted yet)."""
        self._require_placeable(machine)
        self.machines[machine.name] = machine
        self._reserved_memory_mib += machine.resources.memory_mib
        self._allocated_vcpus += machine.resources.vcpu_count
        machine.on_state_change = self._drop_usage
        self._usage = None
        self.overlay_store.create_overlay(machine.name, machine.rootfs)

    def remove(self, machine_name: str) -> None:
        """Remove a machine and its overlay from this host."""
        machine = self.machines.pop(machine_name, None)
        if machine is not None:
            self._reserved_memory_mib -= machine.resources.memory_mib
            self._allocated_vcpus -= machine.resources.vcpu_count
            machine.on_state_change = None
            self._usage = None
        self._busy_fractions.pop(machine_name, None)
        self.overlay_store.remove_overlay(machine_name)

    def transfer(self, machine_name: str, target: Host) -> None:
        """Move a placed machine to another host, workload accounting included."""
        machine = self.machine(machine_name)
        target._require_placeable(machine)
        busy_fraction = self._busy_fractions.get(machine_name)
        self.remove(machine_name)
        target.place(machine)
        if busy_fraction is not None:
            target.set_busy_fraction(machine_name, busy_fraction)

    def machine(self, name: str) -> MicroVM:
        """Look up a placed machine by name."""
        if name not in self.machines:
            raise HostError(f"machine {name!r} is not placed on host {self.index}")
        return self.machines[name]

    # -- workload accounting ------------------------------------------------

    def set_busy_fraction(self, machine_name: str, fraction: float) -> None:
        """Report how busy a machine's workload keeps its vCPUs (0..1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("busy fraction must be in [0, 1]")
        self.machine(machine_name)
        self._busy_fractions[machine_name] = fraction
        self._usage = None

    def set_cpu_quota(self, machine_name: str, quota_fraction: float) -> None:
        """Change the CPU quota of a placed machine (fraction in (0, 1])."""
        self.machine(machine_name).cpu_quota.set_quota(quota_fraction)
        self._usage = None

    def _drop_usage(self) -> None:
        self._usage = None

    def _usage_reading(self) -> _Usage:
        """The kept usage reading, recomputed by one pass when it was dropped.

        Sequential sums in ``machines`` order, so the values carry the same
        bits whenever they are computed.
        """
        usage = self._usage
        if usage is None:
            busy_fractions = self._busy_fractions
            cores = 0.0
            memory_mib = 0.0
            booted = 0
            running = 0
            for name, machine in self.machines.items():
                cores += machine.cpu_cores_in_use(busy_fractions.get(name))
                memory_mib += machine.memory_footprint_mib()
                booted += machine.is_booted
                running += machine.is_running
            usage = self._usage = _Usage(cores, memory_mib, booted, running)
        return usage

    def booted_machine_count(self) -> int:
        """Number of machines that have booted (running or suspended)."""
        return self._usage_reading().booted

    def running_machine_count(self) -> int:
        """Number of machines currently running."""
        return self._usage_reading().running

    def cpu_cores_in_use(self) -> float:
        """Host cores currently consumed by all microVMs."""
        return min(self._usage_reading().cpu_cores, float(self.cpu_cores))

    def microvm_cpu_percent(self) -> float:
        """microVM CPU usage as a percentage of the host's cores."""
        return 100.0 * self.cpu_cores_in_use() / self.cpu_cores

    def microvm_memory_percent(self) -> float:
        """microVM memory usage as a percentage of the host's memory."""
        return 100.0 * self.allocated_memory_mib() / self.memory_mib

    @staticmethod
    def sample_rng_draws(setup_phase: bool = False, applying_update: bool = False) -> int:
        """Number of random variates one :meth:`sample_usage` call consumes.

        Kept next to :meth:`sample_usage` because the two must evolve
        together: a replica that mirrors a sampling host without sampling
        itself (the coordinator-side shadow managers of
        ``repro.dist.backend``) advances its RNG stream by exactly this many
        draws to stay in lockstep.
        """
        if setup_phase:
            return 1
        return 2 if applying_update else 1

    def sample_usage(
        self,
        now_s: float,
        setup_phase: bool = False,
        applying_update: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> UsageSample:
        """Record and return one resource-usage sample for this host.

        Boot bursts are not modelled: :meth:`MicroVM.boot` logs BOOTING and
        the RUNNING transition at the boot-finished time in one call, so a
        sample never sees a machine mid-boot.
        """
        rng = rng if rng is not None else self._default_rng
        if setup_phase:
            manager_cpu = MACHINE_MANAGER_SETUP_CPU_PERCENT * (0.8 + 0.4 * rng.random())
            manager_memory = MACHINE_MANAGER_MEMORY_PERCENT_PEAK
        else:
            manager_cpu = MACHINE_MANAGER_CPU_PERCENT * (0.5 + rng.random())
            if applying_update:
                manager_cpu += MACHINE_MANAGER_UPDATE_CPU_PERCENT * (0.5 + rng.random())
            manager_memory = MACHINE_MANAGER_MEMORY_PERCENT_STEADY
        sample = UsageSample(
            time_s=now_s,
            machine_manager_cpu_percent=manager_cpu,
            microvm_cpu_percent=self.microvm_cpu_percent(),
            machine_manager_memory_percent=manager_memory,
            microvm_memory_percent=self.microvm_memory_percent(),
            firecracker_processes=self.booted_machine_count(),
        )
        self.trace.record(sample)
        return sample
