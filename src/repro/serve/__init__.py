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
  path-latency queries from the current state.
* :mod:`repro.serve.client` — the blocking :class:`SubscriptionClient`
  used by tests, examples and external consumers.

Only the codec is re-exported here.  Every ``ConstellationDatabase``
imports this package for its codec, and the gateway and the client bring
asyncio and the socket transport with them: re-exporting them would add
23 ms (``python -X importtime``, 2-vCPU x86 container: 45.3 against
21.9 ms cumulative for ``repro.serve``) to every process that never
serves.  Import them from their modules.
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
]
