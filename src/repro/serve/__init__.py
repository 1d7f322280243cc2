"""The streaming serving tier: one state-distribution path for all consumers.

Every subscriber to the constellation state outside the coordinator process
is served from one encoding of each epoch:

* :mod:`repro.serve.codec` — the shared :class:`EpochUpdate` codec.  Each
  epoch's keyframe/diff is encoded exactly once into the versioned
  :mod:`repro.dist.wire` frame format; the gateway fans those bytes out.
  Only the current epoch's bytes are held: a subscriber that is new, late
  or slow gets the current KEYFRAME, not a replay.
* :mod:`repro.serve.gateway` — the asyncio :class:`StreamGateway`, fanning
  the shared bytes out to thousands of subscribers with bounded per-client
  queues, backpressure and slow-client keyframe resync, and answering
  path-latency queries from the warm path-table set.
* :mod:`repro.serve.client` — the blocking :class:`SubscriptionClient`
  used by tests, examples and external consumers.
"""

from repro.serve.codec import (
    CodecError,
    EpochReplica,
    EpochSnapshot,
    EpochUpdate,
    EpochUpdateCodec,
)

__all__ = [
    "CodecError",
    "EpochReplica",
    "EpochSnapshot",
    "EpochUpdate",
    "EpochUpdateCodec",
    "StreamGateway",
    "GatewayServer",
    "SubscriptionClient",
]


def __getattr__(name):
    # Gateway/client import asyncio + transport machinery; load lazily so
    # the codec stays importable from the database without dragging them in.
    if name in ("StreamGateway", "GatewayServer"):
        from repro.serve import gateway

        return getattr(gateway, name)
    if name == "SubscriptionClient":
        from repro.serve import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
