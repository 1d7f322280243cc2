"""A Celestial host: a physical (cloud) server running microVMs.

Hosts support over-provisioning of CPU (microVM vCPUs may exceed physical
cores, §4.1) while memory is a hard constraint because every booted microVM
keeps its full allocation reserved (§4.2).  The host also accounts for the
Machine Manager's own overhead so the usage traces of Figs. 7-8 can be
reproduced.

Accounting invariant: a host's machines are one
:class:`~repro.microvm.MachineTable` (``Host.machines``), and every mutation
of an accounted quantity is a method of that table (row appends and
removals, lifecycle operations, quota and busy-share changes), each of which
drops the table's kept usage reading.  A reading is then recomputed by one
pass over the rows, in creation order, and is bit-identical to a fresh
sweep.  Placement goes through :meth:`Host.place`, which checks before it
appends: a refused batch leaves no row behind.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hosts.resources import ResourceTrace, UsageSample
from repro.microvm import MachineBatch, MachineTable, MachineView
from repro.sim.rng import keyed


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
        self.machines = MachineTable()
        self.trace = ResourceTrace()

    # -- placement ---------------------------------------------------------

    def reserved_memory_mib(self) -> float:
        """Memory reserved by all placed machines (stopped ones too)."""
        return float(self.machines.reserved_memory_mib)

    def allocated_memory_mib(self) -> float:
        """Memory held by booted (running or suspended) machines."""
        return self.machines.usage().memory_mib

    def can_place(self, memory_mib: int) -> bool:
        """Whether a machine of this much memory fits on this host."""
        if self.allow_memory_overcommit:
            return True
        return self.machines.reserved_memory_mib + memory_mib <= self.memory_mib

    def _admit(self, names: list[str], memory_mib: np.ndarray) -> None:
        """Refuse, with a :class:`HostError`, a batch that cannot be placed whole."""
        placed = self.machines
        seen: set[str] = set()
        for name in names:
            if name in placed or name in seen:
                raise HostError(f"machine {name!r} is already placed on host {self.index}")
            seen.add(name)
        if self.allow_memory_overcommit:
            return
        needed = placed.reserved_memory_mib + np.cumsum(memory_mib)
        over = np.flatnonzero(needed > self.memory_mib)
        if over.size:
            first = int(over[0])
            raise HostError(
                f"host {self.index} cannot fit machine {names[first]!r}: "
                f"{needed[first]:.0f} MiB needed, {self.memory_mib} MiB available"
            )

    def place(self, batch: MachineBatch, boot_s: float, root: int = 0) -> None:
        """Place a batch of machines, booted at ``boot_s``.

        The checks come first, so a refused batch leaves no row.  Each
        machine's seed is ``keyed(root, shell, identifier) >> 1``: a function
        of its identity, which neither the host, nor creation order, nor the
        samples and refusals before it can move.
        """
        self._admit(batch.names, batch.column("memory_mib"))
        seeds = (keyed(root, batch.shells, batch.identifiers) >> 1).tolist()
        self.machines.append(batch, seeds, boot_s)

    def transfer(self, machine_name: str, target: Host) -> None:
        """Move a placed machine's row to another host, workload accounting included."""
        memory = self.machine(machine_name).memory_mib
        if machine_name in target.machines:
            raise HostError(f"machine {machine_name!r} is already placed on host {target.index}")
        if not target.can_place(memory):
            raise HostError(f"host {target.index} cannot fit machine {machine_name!r}")
        target.machines.put(self.machines.take(machine_name))

    def machine(self, name: str) -> MachineView:
        """The view of a placed machine, by name."""
        if name not in self.machines:
            raise HostError(f"machine {name!r} is not placed on host {self.index}")
        return self.machines[name]

    # -- workload accounting ------------------------------------------------

    def set_busy_fraction(self, machine_name: str, fraction: float) -> None:
        """Report how busy a machine's workload keeps its vCPUs (0..1)."""
        self.machine(machine_name)
        self.machines.set_busy(machine_name, fraction)

    def set_cpu_quota(self, machine_name: str, quota_fraction: float) -> None:
        """Change the CPU quota of a placed machine (fraction in (0, 1])."""
        self.machine(machine_name)
        self.machines.set_quota(machine_name, quota_fraction)

    def booted_machine_count(self) -> int:
        """Number of machines that have booted (running or suspended)."""
        return self.machines.usage().booted

    def cpu_cores_in_use(self) -> float:
        """Host cores currently consumed by all microVMs."""
        return min(self.machines.usage().cpu_cores, float(self.cpu_cores))

    def microvm_cpu_percent(self) -> float:
        """microVM CPU usage as a percentage of the host's cores."""
        return 100.0 * self.cpu_cores_in_use() / self.cpu_cores

    def microvm_memory_percent(self) -> float:
        """microVM memory usage as a percentage of the host's memory."""
        return 100.0 * self.allocated_memory_mib() / self.memory_mib

    def sample_usage(
        self,
        now_s: float,
        setup_phase: bool = False,
        applying_update: bool = False,
        root: int = 0,
        sample_index: Optional[int] = None,
    ) -> UsageSample:
        """Record and return one resource-usage sample for this host.

        The ``j``-th noise draw of the host's ``k``-th sample is the top 53
        bits of ``keyed(root, index, k, j)``; ``k`` is ``sample_index``, by
        default the samples the trace holds.  Boot bursts are not modelled: a
        booting machine's stored state is already running
        (:mod:`repro.microvm.machine`), so a sample never sees one mid-boot.
        """
        k = len(self.trace) if sample_index is None else sample_index

        def noise(j: int) -> float:
            return (keyed(root, self.index, k, j) >> 11) * 2.0**-53

        if setup_phase:
            manager_cpu = MACHINE_MANAGER_SETUP_CPU_PERCENT * (0.8 + 0.4 * noise(0))
            manager_memory = MACHINE_MANAGER_MEMORY_PERCENT_PEAK
        else:
            manager_cpu = MACHINE_MANAGER_CPU_PERCENT * (0.5 + noise(0))
            if applying_update:
                manager_cpu += MACHINE_MANAGER_UPDATE_CPU_PERCENT * (0.5 + noise(1))
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
