"""The virtual network connecting all emulated machines.

Celestial's Machine Managers install, per pair of machines, an end-to-end
delay and bandwidth computed by the coordinator (§3.1).  ``VirtualNetwork``
reproduces the observable result: each directed machine pair owns an
:class:`~repro.netem.EmulatedLink` whose parameters are refreshed from the
latest constellation state whenever the coordinator publishes an update.
Links are materialised lazily — only pairs that actually exchange traffic
allocate state, which keeps Starlink-scale configurations tractable while
matching what applications can observe.

Under the differential update protocol the coordinator hands the network a
:class:`~repro.core.constellation.ConstellationDiff` per epoch
(:meth:`VirtualNetwork.apply_diff`) instead of a blanket
:meth:`VirtualNetwork.mark_updated`: an epoch whose diff is empty leaves
every materialised link's cached rule valid, while any edge change bumps
the rule epoch — end-to-end delays are shortest-path values, so a single
changed edge may affect any pair, and the per-pair refresh stays lazy.

When the rule provider is asked
-------------------------------

A send looks at the pair's materialised link first.  The link is kept in
one record with the rule epoch its parameters belong to, and the provider
is called only when that record does not answer: the pair has no link yet,
the rule epoch was bumped since the link was last refreshed, or a loss or
bandwidth override dropped the record (the next send rebuilds the link
from a fresh rule, so an override never leaves per-pair residue behind).
Across an epoch with an empty diff the provider is not called at all.
Every delivery is one :meth:`~repro.sim.Simulation.call_at` timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.constellation import MachineId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.constellation import ConstellationDiff
from repro.netem import DeliveredPacket, EmulatedLink, NetemRule
from repro.netem.link import LinkState
from repro.net.packet import Message
from repro.sim import Simulation, Store


@dataclass(frozen=True)
class PairRule:
    """Network rule for one directed machine pair, as installed by a manager."""

    delay_ms: float
    bandwidth_kbps: Optional[float]
    reachable: bool


#: Signature of the rule provider (normally the constellation database).
RuleProvider = Callable[[MachineId, MachineId], PairRule]
#: Signature of the "is this machine able to send/receive" check.
RunningCheck = Callable[[MachineId], bool]


class _InstalledLink:
    """A materialised link and the rule epoch its parameters belong to."""

    __slots__ = ("link", "epoch")

    def __init__(self, link: EmulatedLink, epoch: int):
        self.link = link
        self.epoch = epoch


class VirtualNetwork:
    """Delivers messages between machine endpoints through emulated links."""

    def __init__(
        self,
        sim: Simulation,
        rule_provider: RuleProvider,
        running_check: RunningCheck,
        rng: Optional[np.random.Generator] = None,
        base_jitter_ms: float = 0.0,
    ):
        self.sim = sim
        self._rule_provider = rule_provider
        self._running_check = running_check
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._base_jitter_ms = base_jitter_ms
        self._links: dict[tuple[str, str], _InstalledLink] = {}
        self._epoch = 0
        self._loss_overrides: dict[tuple[str, str], float] = {}
        self._bandwidth_caps: dict[tuple[str, str], float] = {}
        self._endpoints: dict[str, "Store"] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Refreshes of an already materialised link after an epoch bump.
        self.link_updates = 0
        #: Calls of the running check (up to two per send, one per delivery).
        self.running_checks = 0

    # -- control plane -------------------------------------------------------

    def mark_updated(self) -> None:
        """Invalidate cached link rules after a constellation update."""
        self._epoch += 1

    def apply_diff(self, diff: "ConstellationDiff") -> None:
        """Consume one epoch's constellation diff instead of a full re-mark.

        When nothing changed between the epochs, all cached per-pair rules
        remain valid and no invalidation happens.  Otherwise the rule epoch
        is bumped: path delays are global functions of the edge set, so any
        edge change can affect any machine pair — but rules are still only
        re-derived lazily, the next time a pair actually carries traffic.
        Suspend/resume transitions need no invalidation at all because
        machine liveness is checked per message.
        """
        if diff.topology.is_empty:
            return
        self._epoch += 1

    def set_loss_override(
        self, source: MachineId, destination: MachineId, probability: float
    ) -> None:
        """Force a loss probability on one directed pair (fault injection)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self._loss_overrides[(source.name, destination.name)] = probability
        self._links.pop((source.name, destination.name), None)

    def clear_loss_override(self, source: MachineId, destination: MachineId) -> None:
        """Remove a previously-set loss override."""
        self._loss_overrides.pop((source.name, destination.name), None)
        self._links.pop((source.name, destination.name), None)

    def set_bandwidth_cap(
        self, source: MachineId, destination: MachineId, bandwidth_kbps: float
    ) -> None:
        """Cap one directed pair's bandwidth (fault injection).

        The effective bandwidth is the minimum of the cap and whatever the
        constellation rule provides, so the cap degrades a link without
        ever improving it; it survives epoch updates until cleared.
        """
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth cap must be positive")
        self._bandwidth_caps[(source.name, destination.name)] = bandwidth_kbps
        self._links.pop((source.name, destination.name), None)

    def clear_bandwidth_cap(self, source: MachineId, destination: MachineId) -> None:
        """Remove a previously-set bandwidth cap."""
        self._bandwidth_caps.pop((source.name, destination.name), None)
        self._links.pop((source.name, destination.name), None)

    def link_state(
        self, source: MachineId, destination: MachineId
    ) -> Optional[LinkState]:
        """Parameters installed on a pair's link; None while it has no link."""
        installed = self._links.get((source.name, destination.name))
        return installed.link.state if installed is not None else None

    def _effective_bandwidth(
        self, key: tuple[str, str], rule: PairRule
    ) -> Optional[float]:
        cap = self._bandwidth_caps.get(key)
        if cap is None:
            return rule.bandwidth_kbps
        if rule.bandwidth_kbps is None:
            return cap
        return min(cap, rule.bandwidth_kbps)

    def _link_for(self, source: MachineId, destination: MachineId) -> EmulatedLink:
        key = (source.name, destination.name)
        installed = self._links.get(key)
        if installed is not None and installed.epoch == self._epoch:
            return installed.link
        rule = self._rule_provider(source, destination)
        if installed is None:
            netem_rule = NetemRule(
                delay_ms=rule.delay_ms if rule.reachable else 0.0,
                jitter_ms=self._base_jitter_ms,
                distribution="normal" if self._base_jitter_ms > 0 else "none",
                loss_probability=self._loss_overrides.get(key, 0.0),
            )
            link = EmulatedLink(
                netem_rule,
                bandwidth_kbps=self._effective_bandwidth(key, rule),
                rng=self._rng,
            )
            if not rule.reachable:
                link.block()
            self._links[key] = _InstalledLink(link, self._epoch)
            return link
        link = installed.link
        if rule.reachable:
            link.update(rule.delay_ms, self._effective_bandwidth(key, rule))
        else:
            link.block()
        installed.epoch = self._epoch
        self.link_updates += 1
        return link

    # -- endpoints -------------------------------------------------------------

    def register_endpoint(self, machine: MachineId) -> Store:
        """Create (or return) the inbox store for a machine."""
        if machine.name not in self._endpoints:
            self._endpoints[machine.name] = Store(self.sim)
        return self._endpoints[machine.name]

    def inbox(self, machine: MachineId) -> Store:
        """Inbox store of a machine (must have been registered)."""
        if machine.name not in self._endpoints:
            raise KeyError(f"machine {machine.name!r} has no registered endpoint")
        return self._endpoints[machine.name]

    # -- data plane ---------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Send a message; returns True if at least one copy was put in flight.

        Delivery happens asynchronously: the message appears in the
        destination inbox after the emulated network delay.  Messages from or
        to machines that are not running are dropped, as are messages to
        machines without a registered endpoint.
        """
        self.messages_sent += 1
        source, destination = message.source, message.destination
        self.running_checks += 1
        if not self._running_check(source):
            self.messages_dropped += 1
            return False
        self.running_checks += 1
        if not self._running_check(destination):
            self.messages_dropped += 1
            return False
        if destination.name not in self._endpoints:
            self.messages_dropped += 1
            return False
        link = self._link_for(source, destination)
        now = self.sim.now
        deliveries = link.transmit(message.size_bytes, now)
        if not deliveries:
            self.messages_dropped += 1
            return False
        for delivery in deliveries:
            # One timer per delivery, at ``now + delay`` (not the arrival
            # time itself: the sum is what receivers have always observed).
            self.sim.call_at(
                now + max(0.0, delivery.arrival_time_s - now),
                partial(self._deliver, message, delivery),
            )
        return True

    def _deliver(self, message: Message, delivery: DeliveredPacket) -> None:
        """Timer callback: the message reaches its destination's inbox.

        Liveness is checked again here, so a message to a machine that
        stopped while the message was in flight is dropped.
        """
        self.running_checks += 1
        if not self._running_check(message.destination):
            self.messages_dropped += 1
            return
        self._endpoints[message.destination.name].put(
            Message(
                source=message.source,
                destination=message.destination,
                size_bytes=message.size_bytes,
                payload=message.payload,
                sent_at_s=message.sent_at_s,
                message_id=message.message_id,
                corrupted=delivery.corrupted,
                duplicate=delivery.duplicate,
            )
        )
        self.messages_delivered += 1
