"""The virtual network connecting all emulated machines.

Celestial's Machine Managers install, per pair of machines, an end-to-end
delay and bandwidth computed by the coordinator (§3.1).  ``VirtualNetwork``
reproduces the observable result with one :class:`PairLink` per directed
machine pair that carries traffic.  A link models four things:

- the pair's end-to-end delay (the coordinator's shortest-path value);
- its bottleneck bandwidth, as a token bucket of :data:`BURST_BYTES` whose
  queue holds at most :data:`QUEUE_LIMIT_BYTES`;
- a loss probability, set only by fault injection;
- blocked: an unreachable pair, or a loss of 1, drops every message.

Links are materialised lazily — only pairs that actually exchange traffic
allocate state, which keeps Starlink-scale configurations tractable while
matching what applications can observe.

Under the differential update protocol the coordinator hands the network a
:class:`~repro.core.constellation.ConstellationDiff` per epoch
(:meth:`VirtualNetwork.apply_diff`) instead of a blanket
:meth:`VirtualNetwork.mark_updated`: an epoch whose diff is empty leaves
every materialised link's installed rule valid, while any edge change bumps
the rule epoch — end-to-end delays are shortest-path values, so a single
changed edge may affect any pair, and the per-pair refresh stays lazy.

When the rule provider is asked
-------------------------------

A send looks at the pair's materialised link first.  The link keeps the
rule epoch its parameters belong to, and the provider is called only when
that does not answer: the pair has no link yet, the rule epoch was bumped
since the link was last refreshed, or setting or clearing a loss or
bandwidth override dropped the link (the next send rebuilds it from a
fresh rule, so an override never leaves per-pair residue behind).  Across
an epoch with an empty diff the provider is not called at all.  Every
delivery is one :meth:`~repro.sim.Simulation.call_at` timer.

A send checks that both machines run, a delivery the destination again:
one call of ``running_check`` each, which in a testbed compares the clock
with the threshold the machine's table keeps
(:attr:`~repro.microvm.MachineTable.running_from`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from repro.core.constellation import MachineId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.constellation import ConstellationDiff
from repro.net.packet import Message
from repro.sim import Simulation, Store

#: Token-bucket burst [bytes]: what a shaped pair sends at once before pacing.
BURST_BYTES = 32 * 1024
#: Shaping queue limit [bytes]: a message that would overflow it is dropped.
QUEUE_LIMIT_BYTES = 1024 * 1024


class PairRule(NamedTuple):
    """Network rule for one directed machine pair, as installed by a manager."""

    delay_ms: float
    bandwidth_kbps: Optional[float]
    reachable: bool


#: Signature of the rule provider (normally the constellation database).
RuleProvider = Callable[[MachineId, MachineId], PairRule]
#: Signature of the "is this machine able to send/receive" check.
RunningCheck = Callable[[MachineId], bool]


class PairLink:
    """One directed machine pair: delay, bandwidth, loss, blocked.

    ``rate`` is the token bucket's rate in bytes per second, ``None`` while
    the pair has no bandwidth limit; ``epoch`` is the rule epoch the
    parameters belong to.  A loss of 1 blocks the link, so it drops without
    a draw from ``rng``; a loss strictly between 0 and 1 draws once per
    message that leaves the shaper.
    """

    __slots__ = (
        "delay_ms",
        "loss",
        "blocked",
        "rate",
        "epoch",
        "_rng",
        "_tokens",
        "_updated_s",
        "_clears_at_s",
    )

    def __init__(self, loss: float = 0.0, rng: Optional[np.random.Generator] = None):
        self.delay_ms = 0.0
        self.loss = loss
        self.blocked = loss >= 1.0
        self.rate: Optional[float] = None
        self.epoch = 0
        self._rng = rng
        self._tokens = float(BURST_BYTES)
        self._updated_s = 0.0
        self._clears_at_s = 0.0

    def install(self, rule: PairRule, bandwidth_kbps: Optional[float]) -> None:
        """Install a rule, with the pair's bandwidth after any cap.

        An unreachable pair is blocked and keeps its other parameters.  A
        bandwidth of ``None`` leaves the installed rate as it is; a new rate
        applies to messages sent from now on, while queued ones keep their
        departure times.
        """
        if not rule.reachable:
            self.blocked = True
            return
        self.delay_ms = rule.delay_ms
        self.blocked = self.loss >= 1.0
        if bandwidth_kbps is not None:
            self.rate = bandwidth_kbps * 1000.0 / 8.0

    def transmit(self, size_bytes: int, now_s: float) -> Optional[float]:
        """Arrival time of a message sent at ``now_s``; None when dropped.

        The token bucket runs first: a message leaves at once while the
        bucket holds its size and nothing is queued, otherwise it departs
        behind the backlog at the bucket's rate, and is dropped when it
        would overflow the queue.  The loss draw comes after the shaper.
        """
        if self.blocked:
            return None
        departure_s = now_s
        rate = self.rate
        if rate is not None:
            elapsed_s = now_s - self._updated_s
            if elapsed_s > 0.0:
                tokens = self._tokens + elapsed_s * rate
                self._tokens = tokens if tokens < BURST_BYTES else float(BURST_BYTES)
            self._updated_s = now_s
            clears_at_s = self._clears_at_s
            backlog_bytes = 0.0 if now_s >= clears_at_s else (clears_at_s - now_s) * rate
            if self._tokens >= size_bytes and backlog_bytes == 0.0:
                self._tokens -= size_bytes
            elif backlog_bytes + size_bytes > QUEUE_LIMIT_BYTES:
                return None
            else:
                departure_s = max(now_s, clears_at_s) + size_bytes / rate
                self._clears_at_s = departure_s
        loss = self.loss
        if 0.0 < loss and self._rng.random() < loss:
            return None
        return departure_s + self.delay_ms / 1000.0


class VirtualNetwork:
    """Delivers messages between machine endpoints through pair links."""

    def __init__(
        self,
        sim: Simulation,
        rule_provider: RuleProvider,
        running_check: RunningCheck,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self._rule_provider = rule_provider
        #: Whether a machine runs now; a closed testbed replaces it.
        self.running_check = running_check
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._links: dict[tuple[str, str], PairLink] = {}
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
        """Remove a loss override; a pair without one keeps its link."""
        key = (source.name, destination.name)
        if self._loss_overrides.pop(key, None) is not None:
            self._links.pop(key, None)

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
        """Remove a bandwidth cap; a pair without one keeps its link."""
        key = (source.name, destination.name)
        if self._bandwidth_caps.pop(key, None) is not None:
            self._links.pop(key, None)

    def _effective_bandwidth(
        self, key: tuple[str, str], rule: PairRule
    ) -> Optional[float]:
        cap = self._bandwidth_caps.get(key)
        if cap is None:
            return rule.bandwidth_kbps
        if rule.bandwidth_kbps is None:
            return cap
        return min(cap, rule.bandwidth_kbps)

    def _link_for(
        self,
        key: tuple[str, str],
        source: MachineId,
        destination: MachineId,
        link: Optional[PairLink],
    ) -> PairLink:
        """The pair's link under a rule of the current epoch: ``link``, the
        one materialised, refreshed, or a new one when there is none."""
        rule = self._rule_provider(source, destination)
        if link is None:
            link = PairLink(self._loss_overrides.get(key, 0.0), self._rng)
            self._links[key] = link
        else:
            self.link_updates += 1
        link.install(rule, self._effective_bandwidth(key, rule))
        link.epoch = self._epoch
        return link

    # -- endpoints -------------------------------------------------------------

    def register_endpoint(self, machine: MachineId) -> Store:
        """Create (or return) the inbox store for a machine."""
        if machine.name not in self._endpoints:
            self._endpoints[machine.name] = Store(self.sim)
        return self._endpoints[machine.name]

    # -- data plane ---------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Send a message; returns True if it was put in flight.

        Delivery happens asynchronously: the message appears in the
        destination inbox after the emulated network delay.  Messages from or
        to machines that are not running are dropped, as are messages to
        machines without a registered endpoint.
        """
        self.messages_sent += 1
        source, destination = message.source, message.destination
        running = self.running_check
        self.running_checks += 1
        if not running(source):
            self.messages_dropped += 1
            return False
        self.running_checks += 1
        if not running(destination):
            self.messages_dropped += 1
            return False
        if destination.name not in self._endpoints:
            self.messages_dropped += 1
            return False
        key = (source.name, destination.name)
        link = self._links.get(key)
        if link is None or link.epoch != self._epoch:
            link = self._link_for(key, source, destination, link)
        sim = self.sim
        now = sim.now
        arrival_s = link.transmit(message.size_bytes, now)
        if arrival_s is None:
            self.messages_dropped += 1
            return False
        # The timer fires at ``now + delay`` (not the arrival time itself:
        # the sum is what receivers have always observed).
        delay_s = arrival_s - now
        sim.call_at(now + delay_s if delay_s > 0.0 else now, partial(self._deliver, message))
        return True

    def _deliver(self, message: Message) -> None:
        """Timer callback: the message reaches its destination's inbox.

        Liveness is checked again here, so a message to a machine that
        stopped while the message was in flight is dropped.
        """
        self.running_checks += 1
        if not self.running_check(message.destination):
            self.messages_dropped += 1
            return
        self._endpoints[message.destination.name].put(message)
        self.messages_delivered += 1
