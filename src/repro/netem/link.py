"""An emulated point-to-point link: bandwidth shaping followed by netem.

Celestial's Machine Managers install, per pair of microVMs, an end-to-end
delay (from the coordinator's shortest-path computation) and a bandwidth
limit (the minimum along the path).  ``EmulatedLink`` models exactly that
pipeline for one machine pair: a token bucket for the bandwidth limit feeding
into a netem qdisc for delay/jitter/loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.netem.qdisc import DeliveredPacket, NetemQdisc, NetemRule
from repro.netem.tbf import TokenBucketFilter

#: Delay value used to mark a machine pair as unreachable (tc uses a blackhole
#: rule; we use an "infinite" delay plus 100% loss).
UNREACHABLE_DELAY_MS = float("inf")


@dataclass
class LinkState:
    """Snapshot of the parameters currently installed on a link."""

    delay_ms: float
    bandwidth_kbps: float | None
    blocked: bool


class EmulatedLink:
    """One direction of traffic between a pair of emulated machines."""

    def __init__(
        self,
        rule: NetemRule,
        bandwidth_kbps: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._qdisc = NetemQdisc(rule, rng=rng)
        self._shaper = (
            TokenBucketFilter(bandwidth_kbps) if bandwidth_kbps is not None else None
        )
        self._blocked = rule.blocks_traffic or rule.delay_ms == UNREACHABLE_DELAY_MS
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0

    # -- control plane ----------------------------------------------------

    def update(self, delay_ms: float, bandwidth_kbps: float | None = None) -> None:
        """Install new parameters, as the machine manager does each epoch."""
        if not math.isfinite(delay_ms):
            self.block()
            return
        self._blocked = False
        self._qdisc.update_rule(self._qdisc.rule.with_delay(delay_ms))
        if bandwidth_kbps is not None:
            if self._shaper is None:
                self._shaper = TokenBucketFilter(bandwidth_kbps)
            else:
                self._shaper.set_rate(bandwidth_kbps)

    def block(self) -> None:
        """Make the link drop all traffic (unreachable pair or suspended VM)."""
        self._blocked = True

    def unblock(self) -> None:
        """Allow traffic again after a block."""
        self._blocked = False

    @property
    def state(self) -> LinkState:
        """Currently-installed link parameters."""
        return LinkState(
            delay_ms=self._qdisc.rule.delay_ms,
            bandwidth_kbps=self._shaper.rate_kbps if self._shaper else None,
            blocked=self._blocked,
        )

    # -- data plane --------------------------------------------------------

    def transmit(self, size_bytes: int, now_s: float) -> list[DeliveredPacket]:
        """Send a packet over the link; returns the resulting deliveries."""
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        if self._blocked:
            self.packets_dropped += 1
            return []
        departure_s = now_s
        if self._shaper is not None:
            departure = self._shaper.enqueue(size_bytes, now_s)
            if departure is None:
                self.packets_dropped += 1
                return []
            departure_s = departure
        deliveries = self._qdisc.transmit(size_bytes, departure_s)
        if not deliveries:
            self.packets_dropped += 1
        return deliveries
