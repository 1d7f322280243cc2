"""The multi-process distribution runtime.

The paper's testbed distributes Celestial hosts across real machines: the
coordinator computes constellation updates centrally and each host's Machine
Manager applies the part that concerns its own microVMs (§3, Fig. 2).  This
package puts the :class:`~repro.core.machine_manager.MachineManager`\\ s
behind a process — or machine — boundary, reached over one seam: wire frames
on a TCP stream.

* :mod:`repro.dist.wire` — the versioned frame: a fixed header, a metadata
  blob in the one closed plain-data codec (decoding constructs no object and
  calls nothing) and the raw buffers of the payload's NumPy arrays.  The
  per-epoch payload is one
  :class:`~repro.core.machine_manager.EpochRecord`, encoded once and sent to
  every worker alike: per shell the packed activity mask and the packed mask
  of satellites that flipped since the previous epoch.  Each manager picks
  out its own machines.  The network half of an update is applied on the
  coordinator's side (``VirtualNetwork.apply_diff``,
  ``ConstellationDatabase.pair_rule``) and is not shipped.  Corrupt or
  forged frames decode to typed :class:`~repro.dist.wire.WireError`\\ s,
  never to nonsense array views.
* :mod:`repro.dist.transport` — how frames travel: length-prefixed over TCP
  (:class:`~repro.dist.transport.SocketTransport`), behind one persistent
  listener per worker slot and a ``HELLO`` → ``SPEC`` handshake, so a
  restarted worker *reconnects* to the same address.
* :mod:`repro.dist.worker` — the worker: owns one or more Machine Managers
  and their microVMs, applies each record to all of them, samples usage and
  streams samples, counters and the machines a record suspended or resumed
  back, one acknowledgement per request.  A supervisor-spawned child
  dialling back over loopback and ``python -m repro.dist.worker --connect
  host:port --index N`` on another machine run the same code.
* :mod:`repro.dist.supervisor` — worker lifecycle: spawn, heartbeat, crash
  and wedge detection (every receive is bounded by ``ack_timeout_s``),
  restart under a bounded, decaying budget.  A restarted worker is rebuilt
  from the durable control ledger (one ``CONTROL`` frame per flush of
  lifecycle operations) and restored to its last acknowledged checkpoint by
  one ``RESTORE`` frame, with that epoch's activity masks derived from the
  last record sent — the current epoch's or the one before it.
* :mod:`repro.dist.backend` — the seam the coordinator dispatches through:
  :class:`~repro.dist.backend.ThreadFanoutBackend` (a loop over in-process
  managers, the default — it starts no thread) and
  :class:`~repro.dist.backend.ProcessFanoutBackend` (worker processes, with
  a ledger of placement, seeds, states and boot times on the coordinator's
  side; it exists to exercise the remote-worker protocol) answer the same
  calls, selected with ``Coordinator(parallelism="threads" | "processes")``; the
  worker pool's deployment settings (address, ports, external workers,
  shared secret) arrive as a ready
  :class:`~repro.dist.transport.TcpTransportFactory` in ``transport=``.

In the spirit of RAFDA's separation of application logic from distribution
policy, nothing above this package knows which side of a process — or
machine — boundary a manager lives on: the update producer emits the same
record either way, and the two backends are proven byte/count-identical
(including crash recovery) by the equivalence suite.
"""

from repro.dist.backend import (
    MirroredManager,
    ProcessFanoutBackend,
    ThreadFanoutBackend,
    WorkerDesyncError,
)
from repro.dist.supervisor import (
    WorkerCrashError,
    WorkerSupervisor,
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
    decode_blob,
    decode_frame,
    decode_record,
    encode_blob,
    encode_frame,
)
from repro.dist.worker import WorkerSpec

__all__ = [
    "FrameKind",
    "MirroredManager",
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
    "WorkerSpec",
    "WorkerSupervisor",
    "WorkerTimeoutError",
    "connect_transport",
    "decode_blob",
    "decode_frame",
    "decode_record",
    "encode_blob",
    "encode_frame",
]
