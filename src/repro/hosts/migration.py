"""microVM migration between hosts (FirePlace-style rebalancing, §6.1).

The paper notes that network or resource bottlenecks on individual hosts
could be mitigated by dynamically migrating satellite-server microVMs across
hosts, using a more advanced scheduler such as FirePlace.  This module
implements such a rebalancing scheduler on top of the host substrate: it
plans moves that even out reserved memory across hosts and executes them,
accounting for the transfer downtime of each migrated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hosts.host import Host
from repro.microvm import MachineState


@dataclass(frozen=True)
class MigrationPlanEntry:
    """One planned microVM move."""

    machine_name: str
    source_host: int
    target_host: int
    memory_mib: int


@dataclass(frozen=True)
class MigrationEvent:
    """One executed microVM move."""

    time_s: float
    machine_name: str
    source_host: int
    target_host: int
    downtime_s: float


@dataclass
class MigrationScheduler:
    """Plans and executes memory-balancing microVM migrations across hosts.

    ``imbalance_threshold_mib`` is the reserved-memory spread between the
    fullest and emptiest host above which rebalancing kicks in;
    ``transfer_rate_mbps`` models the host-to-host copy bandwidth used to
    compute per-migration downtime (suspend, copy memory, resume).
    """

    hosts: list[Host]
    imbalance_threshold_mib: float = 4096.0
    transfer_rate_mbps: float = 10_000.0
    migration_overhead_s: float = 0.2
    events: list[MigrationEvent] = field(default_factory=list)

    def __post_init__(self):
        if len(self.hosts) < 2:
            raise ValueError("migration requires at least two hosts")
        if self.imbalance_threshold_mib < 0:
            raise ValueError("imbalance threshold must be non-negative")
        if self.transfer_rate_mbps <= 0:
            raise ValueError("transfer rate must be positive")

    # -- metrics ------------------------------------------------------------

    def imbalance_mib(self) -> float:
        """Current reserved-memory spread between fullest and emptiest host."""
        reserved = [host.reserved_memory_mib() for host in self.hosts]
        return max(reserved) - min(reserved)

    def migration_downtime_s(self, memory_mib: float) -> float:
        """Downtime of migrating one machine with the given memory size."""
        transfer_s = memory_mib * 8.0 / self.transfer_rate_mbps
        return self.migration_overhead_s + transfer_s

    # -- planning -------------------------------------------------------------

    def plan(self, max_moves: int = 16) -> list[MigrationPlanEntry]:
        """Greedy plan of moves that reduces the reserved-memory imbalance."""
        if max_moves <= 0:
            raise ValueError("max_moves must be positive")
        reserved = {host.index: host.reserved_memory_mib() for host in self.hosts}
        machines = {
            host.index: sorted(
                host.machines.values(), key=lambda m: m.resources.memory_mib, reverse=True
            )
            for host in self.hosts
        }
        plan: list[MigrationPlanEntry] = []
        for _ in range(max_moves):
            fullest = max(reserved, key=reserved.get)
            emptiest = min(reserved, key=reserved.get)
            spread = reserved[fullest] - reserved[emptiest]
            if spread <= self.imbalance_threshold_mib:
                break
            candidate = None
            for machine in machines[fullest]:
                if machine.resources.memory_mib < spread:
                    candidate = machine
                    break
            if candidate is None:
                break
            machines[fullest].remove(candidate)
            machines[emptiest].append(candidate)
            reserved[fullest] -= candidate.resources.memory_mib
            reserved[emptiest] += candidate.resources.memory_mib
            plan.append(
                MigrationPlanEntry(
                    machine_name=candidate.name,
                    source_host=fullest,
                    target_host=emptiest,
                    memory_mib=candidate.resources.memory_mib,
                )
            )
        return plan

    # -- execution ----------------------------------------------------------------

    def execute(self, now_s: float, plan: list[MigrationPlanEntry] | None = None) -> list[MigrationEvent]:
        """Execute a plan (or a freshly computed one) and return the events.

        Running machines are suspended for the duration of the transfer and
        resumed on the target host; machines in other states are moved
        without a suspend/resume bracket.
        """
        host_by_index = {host.index: host for host in self.hosts}
        executed: list[MigrationEvent] = []
        for entry in plan if plan is not None else self.plan():
            source = host_by_index[entry.source_host]
            target = host_by_index[entry.target_host]
            machine = source.machine(entry.machine_name)
            if not target.can_place(machine):
                continue
            downtime = self.migration_downtime_s(machine.resources.memory_mib)
            was_running = machine.state is MachineState.RUNNING
            if was_running:
                machine.suspend(now_s)
            source.transfer(entry.machine_name, target)
            if was_running:
                machine.resume(now_s + downtime)
            event = MigrationEvent(
                time_s=now_s,
                machine_name=entry.machine_name,
                source_host=entry.source_host,
                target_host=entry.target_host,
                downtime_s=downtime if was_running else 0.0,
            )
            executed.append(event)
            self.events.append(event)
        return executed

    def rebalance(self, now_s: float) -> list[MigrationEvent]:
        """Plan and execute in one call; returns the executed migrations."""
        return self.execute(now_s, self.plan())
