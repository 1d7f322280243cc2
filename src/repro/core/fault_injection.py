"""Fault injection for emulated machines and links.

Through Celestial's API, users can change machine parameters at runtime and
even terminate and reboot machines to model faults, e.g. caused by radiation
(§3.1).  HPE's Spaceborne Computer experience shows single event upsets lead
to temporary performance degradation or full shutdowns (§2.3); the
:class:`RadiationModel` produces such events stochastically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.constellation import MachineId
from repro.core.machine_manager import MachineManager
from repro.net.network import VirtualNetwork
from repro.sim import Simulation

#: Every kind a fault program's op may have: the eight :meth:`FaultInjector.apply_op`
#: runs, then the two the experiment runner expands into injector calls.
FAULT_OP_KINDS = (
    "terminate",
    "reboot",
    "degrade-cpu",
    "restore-cpu",
    "packet-loss",
    "clear-packet-loss",
    "bandwidth-cap",
    "clear-bandwidth-cap",
    "ground-outage",
    "operator-degradation",
)


@dataclass(frozen=True)
class FaultEvent:
    """A record of one injected fault."""

    time_s: float
    machine: str
    kind: str
    detail: str = ""


@dataclass
class FaultInjector:
    """Runtime fault-injection API of the testbed."""

    manager_resolver: Callable[[MachineId], MachineManager]
    network: Optional[VirtualNetwork] = None
    events: list[FaultEvent] = field(default_factory=list)

    def _log(self, time_s: float, machine: str, kind: str, detail: str = "") -> None:
        self.events.append(FaultEvent(time_s, machine, kind, detail))

    def terminate(self, machine: MachineId, now_s: float) -> None:
        """Shut a machine down until it is explicitly rebooted."""
        self.manager_resolver(machine).stop_machine(machine, now_s)
        self._log(now_s, machine.name, "terminate")

    def reboot(self, machine: MachineId, now_s: float) -> float:
        """Reboot a machine; returns the time it is back up."""
        finished = self.manager_resolver(machine).reboot_machine(machine, now_s)
        self._log(now_s, machine.name, "reboot", f"up at {finished:.3f}s")
        return finished

    def degrade_cpu(self, machine: MachineId, quota_fraction: float, now_s: float) -> None:
        """Reduce a machine's CPU quota (temporary performance degradation)."""
        self.manager_resolver(machine).set_cpu_quota(machine, quota_fraction)
        self._log(now_s, machine.name, "degrade-cpu", f"quota={quota_fraction}")

    def restore_cpu(self, machine: MachineId, now_s: float) -> None:
        """Restore a machine's full CPU quota."""
        self.manager_resolver(machine).set_cpu_quota(machine, 1.0)
        self._log(now_s, machine.name, "restore-cpu")

    def inject_packet_loss(
        self, source: MachineId, destination: MachineId, probability: float, now_s: float
    ) -> None:
        """Add packet loss on a directed machine pair."""
        if self.network is None:
            raise RuntimeError("no virtual network attached to the fault injector")
        self.network.set_loss_override(source, destination, probability)
        self._log(now_s, f"{source.name}->{destination.name}", "packet-loss", f"p={probability}")

    def clear_packet_loss(self, source: MachineId, destination: MachineId, now_s: float) -> None:
        """Remove injected packet loss from a directed machine pair."""
        if self.network is None:
            raise RuntimeError("no virtual network attached to the fault injector")
        self.network.clear_loss_override(source, destination)
        self._log(now_s, f"{source.name}->{destination.name}", "packet-loss-cleared")

    def cap_bandwidth(
        self, source: MachineId, destination: MachineId, bandwidth_kbps: float, now_s: float
    ) -> None:
        """Cap the bandwidth of a directed machine pair (degraded link)."""
        if self.network is None:
            raise RuntimeError("no virtual network attached to the fault injector")
        self.network.set_bandwidth_cap(source, destination, bandwidth_kbps)
        self._log(
            now_s,
            f"{source.name}->{destination.name}",
            "bandwidth-cap",
            f"kbps={bandwidth_kbps}",
        )

    def clear_bandwidth_cap(
        self, source: MachineId, destination: MachineId, now_s: float
    ) -> None:
        """Remove an injected bandwidth cap from a directed machine pair."""
        if self.network is None:
            raise RuntimeError("no virtual network attached to the fault injector")
        self.network.clear_bandwidth_cap(source, destination)
        self._log(now_s, f"{source.name}->{destination.name}", "bandwidth-cap-cleared")

    def apply_op(
        self,
        kind: str,
        now_s: float,
        machine: Optional[MachineId] = None,
        source: Optional[MachineId] = None,
        destination: Optional[MachineId] = None,
        **params,
    ) -> None:
        """Apply one declarative fault op by kind.

        This is the interpreter surface of a spec's fault program
        (:class:`~repro.experiments.spec.FaultOp`): machine-targeted kinds
        take ``machine``, link-targeted kinds take ``source``/``destination``,
        and kind-specific parameters (``quota_fraction``, ``probability``)
        arrive as keywords.  Each op routes through the corresponding typed
        method, so the event log is identical to hand-driven injection.
        """
        if kind == "terminate":
            self.terminate(machine, now_s)
        elif kind == "reboot":
            self.reboot(machine, now_s)
        elif kind == "degrade-cpu":
            self.degrade_cpu(machine, float(params["quota_fraction"]), now_s)
        elif kind == "restore-cpu":
            self.restore_cpu(machine, now_s)
        elif kind == "packet-loss":
            self.inject_packet_loss(
                source, destination, float(params.get("probability", 1.0)), now_s
            )
        elif kind == "clear-packet-loss":
            self.clear_packet_loss(source, destination, now_s)
        elif kind == "bandwidth-cap":
            self.cap_bandwidth(
                source, destination, float(params["bandwidth_kbps"]), now_s
            )
        elif kind == "clear-bandwidth-cap":
            self.clear_bandwidth_cap(source, destination, now_s)
        else:
            raise ValueError(
                f"the injector runs no fault op of kind {kind!r} "
                f"(fault op kinds: {', '.join(FAULT_OP_KINDS)})"
            )


class RadiationModel:
    """Stochastic single-event-upset model for satellite servers.

    ``events_per_machine_hour`` is the expected number of upsets per machine
    per hour; each upset reboots the affected machine (temporary outage).
    """

    def __init__(self, events_per_machine_hour: float, rng: Optional[np.random.Generator] = None):
        if events_per_machine_hour < 0:
            raise ValueError("event rate must be non-negative")
        self.events_per_machine_hour = events_per_machine_hour
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.upsets: list[FaultEvent] = []

    def process(
        self,
        sim: Simulation,
        machines: list[MachineId],
        injector: FaultInjector,
    ):
        """Simulation process that keeps injecting upsets until the run ends."""
        if self.events_per_machine_hour == 0 or not machines:
            return
            yield  # pragma: no cover - makes this a generator
        rate_per_second = self.events_per_machine_hour * len(machines) / 3600.0
        while True:
            wait = float(self._rng.exponential(1.0 / rate_per_second))
            yield sim.timeout(wait)
            victim = machines[int(self._rng.integers(0, len(machines)))]
            manager = injector.manager_resolver(victim)
            if not manager.is_running_at(victim, sim.now):
                continue
            injector.reboot(victim, sim.now)
            self.upsets.append(FaultEvent(sim.now, victim.name, "single-event-upset"))
