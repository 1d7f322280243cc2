"""The high-level Celestial testbed façade.

``Celestial`` wires all components of Fig. 2 together: the coordinator with
its Constellation Calculation and database, the hosts with their Machine
Managers and microVMs, the virtual network with its per-pair rules, DNS, the
HTTP info API and fault injection — all driven by a deterministic
discrete-event simulation so experiments are repeatable (§4.2).

Hosts are placement plus accounting (least reserved memory, Figs. 7-8
usage); the virtual network connects machines directly, so how many hosts a
configuration names cannot change what an application measures.
"""

from __future__ import annotations

import math
from typing import Literal, Optional

from repro.core.config import Configuration
from repro.core.constellation import ConstellationCalculation, ConstellationState, MachineId
from repro.core.coordinator import Coordinator
from repro.core.database import ConstellationDatabase
from repro.core.dns import CelestialDNS
from repro.core.fault_injection import FaultInjector
from repro.core.info_api import InfoAPI
from repro.core.machine_manager import MachineManager
from repro.core.validator import estimate_resources
from repro.hosts import Host, ResourceTrace
from repro.net.endpoint import NetworkEndpoint
from repro.net.network import VirtualNetwork
from repro.sim import RandomStreams, Simulation


class Celestial:
    """A complete virtual LEO edge testbed for one configuration."""

    def __init__(
        self,
        config: Configuration,
        usage_sample_interval_s: float = 5.0,
        allow_memory_overcommit: bool = True,
        parallelism: Literal["threads", "processes"] = "threads",
        worker_count: Optional[int] = None,
        transport=None,
    ):
        self.config = config
        self.sim = Simulation()
        self.streams = RandomStreams(config.seed)
        self.calculation = ConstellationCalculation(config)
        self.database = ConstellationDatabase()
        self.dns = CelestialDNS(config.shell_sizes, config.ground_station_names)
        self.hosts = [
            Host(
                index=index,
                cpu_cores=config.hosts.cpu_cores,
                memory_mib=config.hosts.memory_mib,
                allow_memory_overcommit=allow_memory_overcommit,
            )
            for index in range(config.hosts.count)
        ]
        self.managers = [
            MachineManager(host, rng=self.streams.stream(f"manager-{host.index}"))
            for host in self.hosts
        ]
        self.network = VirtualNetwork(
            self.sim,
            rule_provider=self._pair_rule,
            running_check=self._machine_running,
            rng=self.streams.stream("network"),
        )
        self.coordinator = Coordinator(
            config,
            self.calculation,
            self.database,
            self.managers,
            self.network,
            parallelism=parallelism,
            worker_count=worker_count,
            transport=transport,
        )
        # With the process backend the coordinator hands out mirrored
        # managers (in-process shadows + worker forwarding); use those for
        # every manager-level interaction so lifecycle operations reach the
        # authoritative worker-side copies.
        self.managers = self.coordinator.managers
        self.fault_injector = FaultInjector(
            manager_resolver=self.coordinator.manager_for, network=self.network
        )
        self.info_api = InfoAPI(self.database, self.calculation, self.dns)
        self.usage_sample_interval_s = usage_sample_interval_s
        self.resource_estimate = estimate_resources(config)
        self._started = False

    # -- wiring callbacks -----------------------------------------------------

    def _pair_rule(self, source: MachineId, destination: MachineId):
        return self.database.pair_rule(source, destination)

    def _machine_running(self, machine: MachineId) -> bool:
        return self.coordinator.is_running_at(machine, self.sim.now)

    # -- machine identities ------------------------------------------------------

    def satellite(self, shell: int, identifier: int) -> MachineId:
        """MachineId of a satellite server."""
        return self.calculation.satellite(shell, identifier)

    def ground_station(self, name: str) -> MachineId:
        """MachineId of a ground-station server."""
        return self.calculation.ground_station(name)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Create ground stations, run the first update and start the run loop."""
        if self._started:
            return
        self._started = True
        self.coordinator.create_ground_stations(self.sim.now)
        self.coordinator.sample_all_usage(self.sim.now, setup_phase=True)
        self.sim.process(self.coordinator.run_updates(self.sim))
        self.sim.process(self._usage_sampling_process())

    def _usage_sampling_process(self):
        interval = self.usage_sample_interval_s
        while True:
            yield self.sim.timeout(interval)
            # remainder, not %: 5.0 % 0.1 is 0.0999…, not 0.
            applying_update = (
                abs(math.remainder(self.sim.now, self.config.update_interval_s)) < 1e-9
            )
            self.coordinator.sample_all_usage(
                self.sim.now, applying_update=applying_update
            )

    def run(self, until: Optional[float] = None) -> None:
        """Run the emulation until ``until`` (default: the configured duration)."""
        if not self._started:
            self.start()
        self.sim.run(until if until is not None else self.config.duration_s)

    def close(self) -> None:
        """Release the coordinator's fan-out backend (idempotent).

        Required with ``parallelism="processes"`` to join the worker pool
        deterministically (also invoked at interpreter exit); the default
        in-process backend holds nothing to release.
        """
        self.coordinator.close()

    # -- application-facing API ------------------------------------------------------

    def endpoint(self, machine: MachineId) -> NetworkEndpoint:
        """Network endpoint of a machine for application processes."""
        return NetworkEndpoint(self.sim, self.network, machine)

    def ensure_machine(self, machine: MachineId) -> None:
        """Create and boot a machine immediately (outside bounding-box logic)."""
        self.coordinator.create_machine(machine, self.sim.now)

    def machine(self, machine: MachineId):
        """The microVM backing a machine."""
        return self.coordinator.manager_for(machine).machine(machine)

    def machine_running(self, machine: MachineId) -> bool:
        """Whether a machine is currently running."""
        return self._machine_running(machine)

    def set_busy(self, machine: MachineId, fraction: float) -> None:
        """Report how busy a machine's workload keeps its vCPUs (for Figs. 7-8)."""
        self.coordinator.manager_for(machine).set_busy_fraction(machine, fraction)

    def processing_delay_s(
        self, machine: MachineId, nominal_seconds: float, parallelism: int = 1
    ) -> float:
        """Wall-clock duration of a compute task on a machine under its CPU quota."""
        if not self.coordinator.has_machine(machine):
            return nominal_seconds
        microvm = self.machine(machine)
        return microvm.cpu_quota.scaled_duration(nominal_seconds, parallelism=parallelism)

    # -- observability ------------------------------------------------------------------

    @property
    def state(self) -> ConstellationState:
        """The latest constellation state published by the coordinator."""
        return self.database.state

    def resource_traces(self) -> dict[int, ResourceTrace]:
        """Per-host resource usage traces (Figs. 7-8)."""
        return {host.index: host.trace for host in self.hosts}

    def network_statistics(self) -> dict[str, int]:
        """Counters of the virtual network data plane.

        Messages ``sent`` / ``delivered`` / ``dropped``, then the exact
        bookkeeping counts around them: ``rule_lookups`` (pair rules the
        network asked the database for), ``rule_misses`` (lookups that had
        to resolve), ``rule_batch_pairs`` (pairs resolved ahead of demand by
        the per-epoch batch), ``link_updates`` (materialised links refreshed
        after an epoch bump) and ``running_checks``.
        """
        return {
            "sent": self.network.messages_sent,
            "delivered": self.network.messages_delivered,
            "dropped": self.network.messages_dropped,
            "rule_lookups": self.database.rule_lookups,
            "rule_misses": self.database.rule_misses,
            "rule_batch_pairs": self.database.rule_batch_pairs,
            "link_updates": self.network.link_updates,
            "running_checks": self.network.running_checks,
        }

    def path_engine_statistics(self) -> dict:
        """``{"totals": ...}``: the cumulative
        :class:`~repro.topology.paths.PathEngineStats` snapshot (solver
        calls, rows solved, stores advanced, rows shared)."""
        return {"totals": self.calculation.path_engine.stats.snapshot()}

    def booted_machines(self) -> int:
        """Number of microVMs created across all hosts."""
        return sum(len(host.machines) for host in self.hosts)
