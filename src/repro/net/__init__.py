"""Virtual data plane: messages exchanged between emulated machines.

Applications deployed on the testbed communicate through socket-like
endpoints.  Each message travels over the emulated network, which models
per directed machine pair what the Machine Managers install: the end-to-end
delay, the bottleneck bandwidth as a token bucket, a loss probability (fault
injection only) and a blocked state for unreachable pairs.  Traffic to or
from machines that are suspended, stopped or failed is dropped.
"""

from repro.net.packet import Message
from repro.net.endpoint import NetworkEndpoint
from repro.net.network import PairRule, VirtualNetwork

__all__ = ["Message", "NetworkEndpoint", "PairRule", "VirtualNetwork"]
