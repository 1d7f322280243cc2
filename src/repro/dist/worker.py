"""The worker-process entrypoint of the distribution runtime.

One worker owns one or more :class:`~repro.core.machine_manager.
MachineManager`\\ s — each with its :class:`~repro.hosts.Host` and microVMs —
in a process of its own.  It plays the role a Celestial host plays on a real
machine of the paper's testbed: receive the part of every constellation
update its managers act on — a
:class:`~repro.core.machine_manager.HostStateSlice` per manager: the
bounding-box flips among its machines and the activity of its dirty ones —
apply it, and report host resource usage back to the coordinator (§3,
Fig. 2).  Link delays and bandwidths never reach a worker: this
reproduction applies the network half of an update on the coordinator's
side (``VirtualNetwork.apply_diff``, ``ConstellationDatabase.pair_rule``).

Protocol
--------

The worker reads :mod:`repro.dist.wire` frames from its TCP connection to
the supervisor (:mod:`repro.dist.transport`) and executes them in order,
which makes its random streams replayable.  Lifecycle operations (machine
creation, boots, fault-injection ops) arrive batched: one ``CONTROL`` frame
ahead of each request that had operations pending, its rows in the order the
in-process backend executed them, run by the worker in that order.  So
every random draw (usage-sample jitter, microVM boot times) lands on the
same generator state as in a single-process run — the foundation of the
byte-identical backend-equivalence guarantee.  A row that fails (an unknown
machine, a position this worker does not own) is reported and the rows
after it still run, as if each had been a frame of its own; a malformed
frame (:func:`~repro.dist.wire.decode_control`) runs no row.

Frames whose metadata carries a ``seq`` number are acknowledged.  Every
acknowledgement streams back the worker's observable state: per-manager
counter/RNG checkpoints (:meth:`MachineManager.counters_snapshot`), the
number of ``CONTROL`` frames applied so far, the dirty-machine
reconciliation results of an applied slice, usage samples, and any errors
from unacknowledged ``CONTROL`` frames.  The supervisor keeps the latest
acknowledgement as the recovery checkpoint.

``CONTROL`` frames are *durable*: the supervisor journals each one and,
after a crash, replays into a fresh process the frames the checkpoint had
applied, then a ``RESTORE`` frame that forces bounding-box activity to the
checkpoint epoch (the database's current or previous epoch's masks) and
restores counters and RNG streams, then the rest of the journal.

Placement
---------

A worker always starts the same way (:func:`tcp_worker_main`): it dials the
supervisor's per-worker listener, sends ``HELLO`` with its index and
receives its :class:`WorkerSpec` in the answering ``SPEC`` frame, so it
needs no blueprint — only an address.  A supervisor-spawned worker does so
over loopback; run one standalone on another machine with::

    python -m repro.dist.worker --connect HOST:PORT --index N [--loop]

With ``--loop`` the worker reconnects after a dropped connection (e.g. the
supervisor restarting it after a detected wedge), which is the external
analogue of the supervisor's local respawn.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.config import ComputeParams
from repro.core.machine_manager import MachineManager
from repro.dist import wire
from repro.dist.transport import HandshakeError, connect_transport
from repro.dist.wire import ControlOp, FrameKind
from repro.hosts import Host
from repro.microvm import KernelImage, RootFilesystemImage


@dataclass(frozen=True)
class HostSpec:
    """Blueprint of one host (and its manager) owned by a worker.

    ``rng_state`` is the bit-generator state of the coordinator-side manager
    stream at backend creation time, so the worker's manager draws exactly
    the sequence the in-process backend would have drawn.
    """

    position: int
    host_index: int
    cpu_cores: int
    memory_mib: int
    allow_memory_overcommit: bool
    rng_state: dict


@dataclass(frozen=True)
class WorkerSpec:
    """Blueprint of one worker process; travels as its ``asdict`` form."""

    worker_index: int
    hosts: tuple[HostSpec, ...]

    def to_frame(self) -> bytes:
        """The ``SPEC`` frame that answers this worker's handshake."""
        return wire.encode_frame(FrameKind.SPEC, {"spec": dataclasses.asdict(self)})

    @classmethod
    def from_meta(cls, fields: Any) -> "WorkerSpec":
        """The spec a ``SPEC`` frame carries; :class:`HandshakeError` if it is none."""
        try:
            hosts = tuple(HostSpec(**host) for host in fields["hosts"])
            return cls(worker_index=fields["worker_index"], hosts=hosts)
        except (KeyError, TypeError) as error:
            raise HandshakeError(f"malformed worker spec: {error!r}") from error


def _images(
    entry: Any,
) -> tuple[ComputeParams, Optional[KernelImage], Optional[RootFilesystemImage]]:
    """Rebuild one ``images`` entry of a ``CONTROL`` frame (None: the default)."""
    try:
        kernel, rootfs = entry["kernel"], entry["rootfs"]
        return (
            ComputeParams(**entry["compute"]),
            None if kernel is None else KernelImage(**kernel),
            None if rootfs is None else RootFilesystemImage(**rootfs),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise wire.WireError(f"malformed CONTROL image entry: {error!r}") from error


class _Worker:
    """Dispatch loop state of one worker process."""

    def __init__(self, spec: WorkerSpec, conn):
        self.spec = spec
        self.conn = conn
        self.by_position: dict[int, MachineManager] = {}
        for host_spec in spec.hosts:
            host = Host(
                index=host_spec.host_index,
                cpu_cores=host_spec.cpu_cores,
                memory_mib=host_spec.memory_mib,
                allow_memory_overcommit=host_spec.allow_memory_overcommit,
            )
            manager = MachineManager(host)
            manager._rng.bit_generator.state = host_spec.rng_state
            self.by_position[host_spec.position] = manager
        # Last epoch applied per manager: a worker owning several hosts may
        # be mid-epoch (one slice applied, the next not), and recovery
        # restores each manager to its own acknowledged epoch.
        self.epochs = {host_spec.position: 0 for host_spec in spec.hosts}
        # CONTROL frames received (ledger frames, the malformed ones too).
        self.controls = 0
        self.deferred_errors: list[str] = []

    # -- acknowledgements ---------------------------------------------------

    def _ack(self, seq: int, extra: Optional[dict[str, Any]] = None) -> None:
        meta = {
            "seq": seq,
            "epochs": dict(self.epochs),
            "controls": self.controls,
            "counters": {
                position: manager.counters_snapshot()
                for position, manager in self.by_position.items()
            },
        }
        if self.deferred_errors:
            meta["deferred_errors"] = list(self.deferred_errors)
            self.deferred_errors.clear()
        if extra:
            meta.update(extra)
        self.conn.send_bytes(wire.encode_frame(FrameKind.ACK, meta))

    def _error(self, seq: int, error: BaseException) -> None:
        self.conn.send_bytes(
            wire.encode_frame(
                FrameKind.ERROR,
                {"seq": seq, "traceback": "".join(traceback.format_exception(error))},
            )
        )

    # -- dispatch -----------------------------------------------------------

    def run(self) -> bool:
        """Serve frames until shutdown or connection loss.

        Returns ``True`` on a clean ``SHUTDOWN``, ``False`` when the
        connection dropped — the standalone ``--loop`` mode reconnects only
        in the latter case.
        """
        while True:
            try:
                data = self.conn.recv_bytes()
            except (EOFError, OSError):
                return False
            try:
                kind, meta, arrays = wire.decode_frame(data)
            except wire.WireError:
                # A corrupt frame means the stream is desynced; treat it
                # like a dropped connection (a --loop worker reconnects and
                # re-handshakes, the supervisor sees EOF and restarts us).
                return False
            if kind is FrameKind.CRASH:
                # Test hook: die like a killed process, no cleanup, no reply.
                os._exit(17)
            if kind is FrameKind.WEDGE:
                # Test hook: stay alive but stop serving — the supervisor's
                # receive timeout must detect this and restart the worker.
                while True:
                    time.sleep(60.0)
            if kind is FrameKind.SHUTDOWN:
                if "seq" in meta:
                    self._ack(meta["seq"])
                return True
            try:
                extra = self._dispatch(kind, meta, arrays)
            except BaseException as error:  # noqa: BLE001 - reported to the parent
                if "seq" in meta:
                    self._error(meta["seq"], error)
                else:
                    self.deferred_errors.append(
                        f"{kind.name}: {type(error).__name__}: {error}"
                    )
                continue
            if "seq" in meta:
                self._ack(meta["seq"], extra)

    def _dispatch(
        self, kind: FrameKind, meta: dict[str, Any], arrays: list[np.ndarray]
    ) -> Optional[dict[str, Any]]:
        if kind is FrameKind.APPLY_SLICE:
            position = meta["position"]
            state_slice = wire.decode_slice(meta, arrays)
            manager = self.by_position[position]
            manager.apply_diff(state_slice, meta["now_s"])
            self.epochs[position] = state_slice.epoch
            reconciled = {}
            for name in state_slice.dirty_active:
                machine = manager.host.machines.get(name)
                if machine is not None:
                    reconciled[name] = machine.state.value
            return {"reconciled": {position: reconciled}}
        if kind is FrameKind.APPLY_ACTIVITY:
            active, _time_s, epoch = wire.decode_activity(meta, arrays)
            for position, manager in self.by_position.items():
                manager.apply_activity(active, meta["now_s"])
                self.epochs[position] = epoch
            return None
        if kind is FrameKind.SAMPLE_USAGE:
            samples = {}
            for position, manager in sorted(self.by_position.items()):
                sample = manager.sample_usage(
                    meta["now_s"],
                    setup_phase=meta["setup_phase"],
                    applying_update=meta["applying_update"],
                )
                samples[position] = dataclasses.asdict(sample)
            return {"samples": samples}
        if kind is FrameKind.RESTORE:
            position = meta["position"]
            active = dict(zip(meta["shells"], arrays)) if meta["force_activity"] else None
            self.by_position[position].restore_runtime_state(
                active,
                meta["snapshot"],
                meta["now_s"],
                skip=set(meta["skip"]),  # machine names are globally unique
            )
            self.epochs[position] = meta["epoch"]
            return None
        if kind is FrameKind.CONTROL:
            self.controls += 1
            self._run_control(*wire.decode_control(meta, arrays))
            return None
        if kind is FrameKind.PING:
            return None
        raise ValueError(f"worker cannot handle frame kind {kind!r}")

    def _run_control(self, rows: list[wire.ControlRow], table: list[Any]) -> None:
        """Run a ``CONTROL`` frame's rows in order; a failing row is reported."""
        images = [_images(entry) for entry in table]
        for index, (op, position, machine_id, image, value) in enumerate(rows):
            try:
                manager = self.by_position.get(position)
                if manager is None:
                    raise LookupError(
                        f"host position {position} is not owned by worker "
                        f"{self.spec.worker_index}"
                    )
                if op is ControlOp.CREATE:
                    manager.create_machine(machine_id, *images[image])
                elif op is ControlOp.BOOT:
                    manager.boot(machine_id, value)
                elif op is ControlOp.BOOT_CREATED:
                    manager.boot_all(value)
                elif op is ControlOp.STOP:
                    manager.stop_machine(machine_id, value)
                elif op is ControlOp.REBOOT:
                    manager.reboot_machine(machine_id, value)
                elif op is ControlOp.CPU_QUOTA:
                    manager.set_cpu_quota(machine_id, value)
                else:
                    manager.set_busy_fraction(machine_id, value)
            except Exception as error:  # noqa: BLE001 - reported to the parent
                self.deferred_errors.append(
                    f"CONTROL row {index} ({op.name}): {type(error).__name__}: {error}"
                )


def tcp_worker_main(
    host: str,
    port: int,
    worker_index: int,
    auth_secret: str = "",
    connect_timeout_s: float = 30.0,
) -> bool:
    """One worker incarnation: dial, handshake, receive the spec, serve.

    The process target of a supervisor-spawned worker and the body of
    ``python -m repro.dist.worker --connect`` alike (the supervisor's HMAC
    challenge is answered when a shared secret is configured), so the
    equivalence suite exercises exactly the remote-placement code path.
    Returns whether the worker ended on a clean ``SHUTDOWN``.
    """
    spec, transport = connect_transport(
        host, port, worker_index, timeout_s=connect_timeout_s, auth_secret=auth_secret
    )
    try:
        return _Worker(spec, transport).run()
    finally:
        transport.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.dist.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="Run one Celestial dist-layer worker against a remote "
        "supervisor (the worker's blueprint arrives over the wire).",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the supervisor's listener for this worker slot",
    )
    parser.add_argument(
        "--index",
        type=int,
        required=True,
        help="worker index announced in the HELLO handshake",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the TCP connect (default: 30)",
    )
    parser.add_argument(
        "--loop",
        action="store_true",
        help="reconnect after a dropped connection instead of exiting "
        "(a clean SHUTDOWN always exits)",
    )
    parser.add_argument(
        "--auth-secret",
        default=os.environ.get("CELESTIAL_AUTH_SECRET", ""),
        help="shared secret answering the supervisor's HMAC challenge "
        "(defaults to $CELESTIAL_AUTH_SECRET; empty disables auth)",
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    while True:
        clean_shutdown = tcp_worker_main(
            host, int(port_text), args.index, args.auth_secret, args.connect_timeout
        )
        if clean_shutdown or not args.loop:
            return 0


if __name__ == "__main__":
    sys.exit(main())
