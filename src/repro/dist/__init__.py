"""The multi-process distribution runtime.

The paper's testbed distributes Celestial hosts across real machines: the
coordinator computes constellation updates centrally and each host's Machine
Manager applies the part that concerns its own microVMs (§3, Fig. 2).  This
package puts the :class:`~repro.core.machine_manager.MachineManager`\\ s
behind a process — or machine — boundary, reached over one seam: wire frames
on a TCP stream.

* :mod:`repro.dist.wire` — the versioned frame: a fixed header, the
  metadata as one compact JSON object (parsing builds only dicts, lists,
  strings, finite numbers, 64-bit integers, booleans and ``None``; it
  constructs no object and calls nothing) and the raw buffers of the
  payload's NumPy arrays.  The per-epoch payload is one
  :class:`~repro.core.machine_manager.EpochRecord`, encoded once and sent to
  every worker alike: per shell the set of active satellites and the set of
  those that flipped since the previous epoch, each in the wire's one set
  form (packed bits or ascending positions, whichever is smaller).  Each
  manager picks out its own machines.  The network half of an update is applied on the
  coordinator's side (``VirtualNetwork.apply_diff``,
  ``ConstellationDatabase.pair_rule``) and is not shipped.  Corrupt or
  forged frames decode to typed :class:`~repro.dist.wire.WireError`\\ s,
  never to nonsense array views.
* :mod:`repro.dist.transport` — how frames travel: length-prefixed over TCP
  (:class:`~repro.dist.transport.SocketTransport`), behind one persistent
  listener per worker slot and a ``HELLO`` → ``SPEC`` handshake, so a
  restarted worker *reconnects* to the same address; the ``SPEC`` carries
  the worker's hosts as the driver's replica holds them.
* :mod:`repro.dist.calculation` — the calculation child: one process the
  coordinator forks at its first differential update, which computes every
  epoch one ahead and sends it as the update stream's ``DIFF`` frame over a
  local :class:`~repro.dist.transport.SocketTransport`; the driver rebuilds
  the epoch from the frame.  A child that dies, stops or stalls is a
  :class:`~repro.dist.calculation.CalculationChildError` within a deadline.
* :mod:`repro.dist.worker` — the worker: owns one or more Machine Managers
  and their hosts' machine tables, applies each record to all of them,
  samples usage and answers each request with checkpoints and sample
  checksums.  A pool-spawned child dialling back
  over loopback and ``python -m repro.dist.worker --connect host:port
  --index N`` on another machine run the same code.
* :mod:`repro.dist.backend` — the seam the coordinator dispatches through:
  :class:`~repro.dist.backend.ThreadFanoutBackend` (a loop over in-process
  managers, the default — it starts no thread) and
  :class:`~repro.dist.backend.ProcessFanoutBackend` (the worker pool; the
  coordinator's managers become replicas of the workers' hosts and compute
  every answer, and each acknowledgement is compared with what they held
  when its request went out, one epoch late at most; it exists to exercise
  the remote-worker protocol) answer the same calls, selected with
  ``Coordinator(parallelism="threads" | "processes")``.  The pool spawns
  its workers as it is built, sweeps them for liveness before each record,
  detects crashes, stops and wedges (``transport.receive_from``, the one
  forked-peer wait) and restarts a worker under a bounded, decaying
  budget: a restarted worker starts from the replica like a new one, and
  the requests in flight are dropped.  Its deployment settings (address,
  ports, external workers, shared secret) arrive as a ready
  :class:`~repro.dist.transport.TcpTransportFactory` in ``transport=``.

In the spirit of RAFDA's separation of application logic from distribution
policy, nothing above this package knows which side of a process — or
machine — boundary a manager lives on: the update producer emits the same
record either way, a machine is one table row on either side (the same
:class:`~repro.microvm.MachineView` under both backends), and the two
backends are proven byte/count-identical (including crash recovery) by the
equivalence suite.
"""

from repro.dist.backend import (
    ProcessFanoutBackend,
    ThreadFanoutBackend,
    WorkerCrashError,
    WorkerDesyncError,
    WorkerRemoteError,
    WorkerTimeoutError,
)
from repro.dist.transport import (
    SocketListener,
    SocketTransport,
    TcpTransportFactory,
    TransportError,
    TransportTimeout,
    connect_transport,
)
from repro.dist.wire import (
    WIRE_VERSION,
    FrameKind,
    WireError,
    WireVersionError,
    decode_frame,
    decode_record,
    encode_frame,
)
__all__ = [
    "FrameKind",
    "ProcessFanoutBackend",
    "SocketListener",
    "SocketTransport",
    "TcpTransportFactory",
    "ThreadFanoutBackend",
    "TransportError",
    "TransportTimeout",
    "WIRE_VERSION",
    "WireError",
    "WireVersionError",
    "WorkerCrashError",
    "WorkerDesyncError",
    "WorkerRemoteError",
    "WorkerTimeoutError",
    "connect_transport",
    "decode_frame",
    "decode_record",
    "encode_frame",
]
