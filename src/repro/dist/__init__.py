"""The multi-process distribution runtime.

The paper's testbed distributes Celestial hosts across real machines: the
coordinator computes constellation updates centrally and each host's Machine
Manager applies the part that concerns its own microVMs (§3, Fig. 2).  Up to
PR 3 this reproduction kept every :class:`~repro.core.machine_manager.
MachineManager` inside the coordinator process, so the sharded fan-out of
:meth:`~repro.core.coordinator.Coordinator.update` — although thread-parallel
— was serialised by the GIL exactly where Starlink-scale per-host sweeps need
real parallelism.  This package moves the managers behind a process boundary:

* :mod:`repro.dist.wire` — a compact, versioned wire protocol.  One frame is
  a fixed header plus a small metadata blob plus the raw buffers of every
  NumPy array in the payload, so a
  :class:`~repro.core.machine_manager.HostStateSlice` round-trips
  byte-identically without pickling arrays field by field.  Corrupt or
  forged frames — truncations, bad array descriptors, unknown kinds —
  decode to typed :class:`~repro.dist.wire.WireError`\\ s, never to nonsense
  array views.
* :mod:`repro.dist.transport` — *how* frames travel.
  :class:`~repro.dist.transport.PipeTransport` wraps the local duplex pipe
  (default); :class:`~repro.dist.transport.SocketTransport` speaks
  length-prefixed frames over TCP behind one persistent listener per worker
  slot.  A connecting worker handshakes with a ``HELLO`` frame carrying its
  worker index (the frame header carries ``WIRE_VERSION``, so incompatible
  builds are rejected before anything else is read) and receives its
  :class:`~repro.dist.worker.WorkerSpec` in the answering ``SPEC`` frame.
  Because the listener outlives worker incarnations, a restarted worker
  *reconnects* to the same address and the supervisor's ledger-replay +
  keyframe/diff restore runs over the fresh connection unchanged.
* :mod:`repro.dist.worker` — the worker entrypoint.  One worker owns one or
  more Machine Managers (with their hosts and microVMs), applies the slices
  it is sent, takes the per-host usage samples and streams
  samples, counters and dirty-machine reconciliation results back.  Runs as
  a supervisor-spawned child (pipe or localhost TCP) or standalone on
  another machine: ``python -m repro.dist.worker --connect host:port
  --index N``.
* :mod:`repro.dist.supervisor` — worker lifecycle: spawn, heartbeat, crash
  detection and restart.  A restarted worker is rebuilt from the durable
  control ledger (machine creations, fault-injection ops) and its runtime
  state — bounding-box activity, suspend/resume counters, RNG streams — is
  replayed from the constellation database's keyframe + diff chain plus the
  last acknowledged checkpoint.  Receives are bounded by ``ack_timeout_s``
  (a wedged-but-alive worker is killed and rebuilt like a crashed one) and
  the bounded per-worker restart budget decays after a configurable number
  of healthy acknowledged requests, so transient crashes spread over days
  never accumulate into a fatal budget exhaustion.
* :mod:`repro.dist.backend` — the seam the coordinator dispatches through:
  :class:`~repro.dist.backend.ThreadFanoutBackend` (the previous in-process
  thread pool) and :class:`~repro.dist.backend.ProcessFanoutBackend` (the
  worker pool) behind one interface, selected with
  ``Coordinator(parallelism="threads" | "processes")`` and, for the worker
  pool, ``transport="pipe" | "tcp"``.

In the spirit of RAFDA's separation of application logic from distribution
policy, nothing above this package knows which side of a process — or
machine — boundary a manager lives on: the update producer emits the same
slices either way, and the pipe and TCP backends are proven
byte/count-identical (including crash recovery) by the equivalence suite.
"""

from repro.dist.backend import (
    FanoutBackend,
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
    PipeTransport,
    PipeTransportFactory,
    SocketListener,
    SocketTransport,
    TcpTransportFactory,
    Transport,
    TransportError,
    TransportFactory,
    TransportTimeout,
    connect_transport,
    make_transport_factory,
)
from repro.dist.wire import (
    FLAG_PICKLED,
    WIRE_VERSION,
    FrameKind,
    WireError,
    WireVersionError,
    decode_blob,
    decode_frame,
    decode_slice,
    encode_blob,
    encode_frame,
    encode_slice,
)
from repro.dist.worker import WorkerSpec, worker_main

__all__ = [
    "FLAG_PICKLED",
    "FanoutBackend",
    "FrameKind",
    "MirroredManager",
    "PipeTransport",
    "PipeTransportFactory",
    "ProcessFanoutBackend",
    "SocketListener",
    "SocketTransport",
    "TcpTransportFactory",
    "ThreadFanoutBackend",
    "Transport",
    "TransportError",
    "TransportFactory",
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
    "decode_slice",
    "encode_blob",
    "encode_frame",
    "encode_slice",
    "make_transport_factory",
    "worker_main",
]
