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
from repro.core.tables import ConfigurationError, bind
from repro.net.network import VirtualNetwork
from repro.sim import Simulation

#: The :class:`FaultInjector` method each kind :meth:`FaultInjector.apply_op`
#: runs, with the params an op of that kind may leave out.
OP_METHODS = {
    "terminate": ("terminate", {}),
    "reboot": ("reboot", {}),
    "degrade-cpu": ("degrade_cpu", {}),
    "restore-cpu": ("restore_cpu", {}),
    "packet-loss": ("inject_packet_loss", {"probability": 1.0}),
    "clear-packet-loss": ("clear_packet_loss", {}),
    "bandwidth-cap": ("cap_bandwidth", {}),
    "clear-bandwidth-cap": ("clear_bandwidth_cap", {}),
}
#: Every kind a fault program's op may have: the eight :meth:`FaultInjector.apply_op`
#: runs, then the two the experiment runner expands into injector calls.
FAULT_OP_KINDS = (*OP_METHODS, "ground-outage", "operator-degradation")
#: The parameters of an :data:`OP_METHODS` method its op's params may not set.
_TARGETS = ("self", "machine", "source", "destination", "now_s")


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
        arrive as keywords, read by :meth:`bind_op`.  Each op routes through
        the corresponding typed method, so the event log is identical to
        hand-driven injection.
        """
        link = {"source": source, "destination": destination}
        targets = {"machine": machine} if machine is not None else link
        method = getattr(self, OP_METHODS[kind][0])
        method(**targets, now_s=now_s, **self.bind_op(kind, params))

    @staticmethod
    def bind_op(
        kind: str, params: dict, path: str = "params", error: type = ConfigurationError
    ) -> dict:
        """The params of one op of ``kind``, read against the method it runs.

        A param the method does not take, a missing one it needs or a value
        of the wrong type is an ``error`` naming ``path.<key>``.
        """
        if kind not in OP_METHODS:
            raise ValueError(
                f"the injector runs no fault op of kind {kind!r} "
                f"(fault op kinds: {', '.join(FAULT_OP_KINDS)})"
            )
        name, defaults = OP_METHODS[kind]
        return bind(getattr(FaultInjector, name), {**defaults, **params}, path, error, _TARGETS)


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
