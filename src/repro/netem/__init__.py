"""Network emulation substrate: netem-like qdiscs, token-bucket rate limiting.

The real Celestial shapes traffic between microVMs with Linux ``tc``,
``tc-netem`` (delay, jitter, loss, duplication, corruption, reordering) and
bandwidth limits (§3.1).  This package reproduces those mechanisms as pure
models: given a packet and a send time they decide when (and whether, and in
what state) the packet arrives.  The models are deliberately a superset of
what the paper's experiments use — packet loss, duplication, corruption and
reordering are the "advanced tc-netem features" the paper lists as future
extensions (§6.5) and are exercised by the fault-injection tests.

Everything here shapes traffic between *machines*; hosts are an accounting
construct, so there is no inter-host latency to add or to compensate.
"""

from repro.netem.qdisc import DeliveredPacket, NetemQdisc, NetemRule
from repro.netem.tbf import TokenBucketFilter
from repro.netem.link import EmulatedLink, UNREACHABLE_DELAY_MS

__all__ = [
    "DeliveredPacket",
    "EmulatedLink",
    "NetemQdisc",
    "NetemRule",
    "TokenBucketFilter",
    "UNREACHABLE_DELAY_MS",
]
