"""The worker-process entrypoint of the distribution runtime.

One worker owns one or more :class:`~repro.core.machine_manager.
MachineManager`\\ s — each with its :class:`~repro.hosts.Host` and that
host's machine table — in a process of its own.  It plays the role a
Celestial host plays on a real machine of the paper's testbed: receive
every constellation update — one
:class:`~repro.core.machine_manager.EpochRecord` per epoch, the same for
every worker: per shell the activity mask and the ids of the satellites
that flipped — let each of its managers apply its own part, and sample host
resource usage (§3, Fig. 2); here the coordinator's replica computes the
same and the worker's answers check it.  Link delays and
bandwidths never reach a worker: this reproduction applies the network half
of an update on the coordinator's side (``VirtualNetwork.apply_diff``,
``ConstellationDatabase.pair_rule``).

Protocol
--------

The worker reads :mod:`repro.dist.wire` frames from its TCP connection to
the driver (:mod:`repro.dist.transport`) and executes them in order.
Lifecycle operations (machine creation, fault-injection ops) arrive
batched: one ``CONTROL`` frame ahead of each request that had operations
pending, its rows in the order the in-process backend executed them, run by
the worker in that order; a ``CREATE`` row is a host's whole batch of new
machines, appended as rows at once, booted at the row's boot time.  Nothing
random depends on that order: machine seeds and usage-sample noise are
keyed draws of the host's key root (carried by ``SPEC``), the machine's
identity and the sample's index, which a ``SAMPLE_USAGE`` frame carries.
A row that fails (an unknown machine, a position this worker does not own)
is reported and the rows after it still run, as if each had been a frame of
its own; a malformed frame (:func:`~repro.dist.wire.decode_control`) runs
no row.

Frames whose metadata carries a ``seq`` number are acknowledged.  Every
acknowledgement streams back the worker's observable state: per-manager
checkpoints (row count, counters, dirty set and a checksum of the
machines' states: :meth:`MachineManager.counters_snapshot`), for a sweep
the CRC-32 of each usage sample it took, and any errors from
unacknowledged ``CONTROL`` frames.  The driver compares them with what its
replica held when it sent the request; the samples themselves never travel.

A worker keeps nothing the driver does not: it starts from the hosts its
``SPEC`` frame carries, as the driver's replica holds them — empty at pool
start, the replica's tables, counters and dirty sets after a crash — so
starting and restarting are one path.

Placement
---------

A worker always starts the same way (:func:`tcp_worker_main`): it dials the
driver's per-worker listener, sends ``HELLO`` with its index and
receives its hosts in the answering ``SPEC`` frame, so it needs no
blueprint — only an address.  A pool-spawned worker does so
over loopback; run one standalone on another machine with::

    python -m repro.dist.worker --connect HOST:PORT --index N [--loop]

With ``--loop`` the worker reconnects after a dropped connection (e.g. the
worker pool restarting it after a detected wedge), which is the external
analogue of the pool's local respawn.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.machine_manager import MachineManager
from repro.dist import wire
from repro.dist.transport import connect_transport
from repro.dist.wire import ControlOp, FrameKind


class _Worker:
    """Dispatch loop state of one worker process."""

    def __init__(self, worker_index: int, by_position: dict[int, MachineManager], conn):
        self.worker_index = worker_index
        self.by_position = by_position
        self.conn = conn
        self.deferred_errors: list[str] = []

    # -- acknowledgements ---------------------------------------------------

    def _ack(self, seq: int, extra: Optional[dict[str, Any]] = None) -> None:
        # Per-host answers travel as [position, value] pairs: JSON keys are strings.
        meta = {
            "seq": seq,
            "counters": [
                [position, manager.counters_snapshot()]
                for position, manager in self.by_position.items()
            ],
        }
        if self.deferred_errors:
            meta["deferred_errors"] = list(self.deferred_errors)
            self.deferred_errors.clear()
        if extra:
            meta["sample_crc"] = [[position, crc] for position, crc in extra["sample_crc"].items()]
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
                # re-handshakes, the driver sees EOF and restarts us).
                return False
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
        if kind is FrameKind.APPLY_EPOCH:
            record = wire.decode_record(meta, arrays)
            for manager in self.by_position.values():
                manager.apply_diff(record, meta["now_s"])
            return None
        if kind is FrameKind.SAMPLE_USAGE:
            checksums = {}
            for position, manager in sorted(self.by_position.items()):
                sample = manager.sample_usage(
                    meta["now_s"],
                    setup_phase=meta["setup_phase"],
                    applying_update=meta["applying_update"],
                    sample_index=meta["sample_index"][position],
                )
                checksums[position] = wire.sample_checksum(sample)
            return {"sample_crc": checksums}
        if kind is FrameKind.CONTROL:
            self._run_control(wire.decode_control(meta, arrays))
            return None
        if kind is FrameKind.PING:
            return None
        raise ValueError(f"worker cannot handle frame kind {kind!r}")

    def _run_control(self, rows: list[wire.ControlRow]) -> None:
        """Run a ``CONTROL`` frame's rows in order; a failing row is reported."""
        for index, (op, position, machine, value) in enumerate(rows):
            try:
                manager = self.by_position.get(position)
                if manager is None:
                    raise LookupError(
                        f"host position {position} is not owned by worker "
                        f"{self.worker_index}"
                    )
                if op is ControlOp.CREATE:
                    manager.create_machines(machine, value)
                elif op is ControlOp.STOP:
                    manager.stop_machine(machine, value)
                elif op is ControlOp.REBOOT:
                    manager.reboot_machine(machine, value)
                elif op is ControlOp.CPU_QUOTA:
                    manager.set_cpu_quota(machine, value)
                else:
                    manager.set_busy_fraction(machine, value)
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
    """One worker incarnation: dial, handshake, receive its hosts, serve.

    The process target of a pool-spawned worker and the body of
    ``python -m repro.dist.worker --connect`` alike (the driver's HMAC
    challenge is answered when a shared secret is configured), so the
    equivalence suite exercises exactly the remote-placement code path.
    Returns whether the worker ended on a clean ``SHUTDOWN``.
    """
    by_position, transport = connect_transport(
        host, port, worker_index, timeout_s=connect_timeout_s, auth_secret=auth_secret
    )
    try:
        return _Worker(worker_index, by_position, transport).run()
    finally:
        transport.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.dist.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="Run one Celestial dist-layer worker against a remote "
        "driver (the worker's hosts arrive over the wire).",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the driver's listener for this worker slot",
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
        help="shared secret answering the driver's HMAC challenge "
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
