"""The per-host Machine Manager.

Each Celestial host runs a Machine Manager that creates and boots the
microVMs assigned to it, suspends/resumes them when they leave/enter the
bounding box, applies machine parameter changes at runtime (fault injection,
CPU quotas) and reports host resource usage (§3, Fig. 2).  A host's machines
are one :class:`~repro.microvm.MachineTable`, and creating a batch of them
is one append of booted rows: a machine is created booted, and after that
only suspended, resumed, stopped or rebooted.

Differential update contract
----------------------------

The coordinator publishes one :class:`EpochRecord` per epoch and every
manager receives the same record, whichever host it runs: per shell the
bounding-box activity mask and the mask of satellites whose activity flipped
since the previous epoch.  :meth:`MachineManager.apply_diff` picks out its
own part:

* the flips of the satellites it hosts, found through an owned-satellite
  index kept as machines are created; the manager resumes/suspends exactly
  those, instead of scanning its whole fleet;
* machines whose lifecycle changed *outside* the protocol (created, stopped
  or rebooted between updates) are tracked in a dirty set and
  reconciled against the activity masks — this keeps the record path
  byte-equivalent to a full :meth:`MachineManager.apply_state` sweep.

The first record flips every active satellite from nothing, and every
machine is dirty until its first apply, so the first epoch needs no separate
sweep.  A record carries no link or delay data: the network half of an
update is applied centrally, by
:meth:`repro.net.network.VirtualNetwork.apply_diff` from the epoch's diff
and by :meth:`repro.core.database.ConstellationDatabase.pair_rule` per
machine pair, so its size follows the constellation, not the fleet.

Process boundary
----------------

By default the managers are plain objects in the coordinator process,
visited in a loop.  A host's machines may also live in a worker *process*
(``repro.dist``, which exists to exercise the remote-worker protocol): the
worker runs a manager on the host it owns and the coordinator runs this same
class on its replica of that host's table, each lifecycle operation on both
copies (:attr:`MachineManager.sink` carries it to the worker), each
record and each usage sample on both.  Seeds and sample noise are keyed draws
(:func:`repro.sim.rng.keyed`), so the two copies hold the same rows, seeds
and boot times.  The worker's manager is built from the replica's: its table,
counters and dirty set travel in the frame that starts the worker, and a
manager indexes the satellites its host already holds.
:meth:`MachineManager.counters_snapshot` is the checkpoint streamed back
with every acknowledgement and compared with the replica's, as it stood when
the request went out.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.core.constellation import ConstellationDiff, ConstellationState, MachineId
from repro.hosts import Host
from repro.microvm import MachineBatch, MachineState, MachineView
from repro.sim.rng import key_root


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's bounding-box activity, the same for every manager.

    ``active`` holds each shell's activity mask, ``flipped`` the mask of the
    satellites whose activity changed since the previous epoch, so the
    previous epoch's masks are ``active ^ flipped``.  ``first`` marks the
    record of an epoch without a previous one: it flips every active
    satellite from nothing.  ``epoch`` is the database epoch the record
    belongs to.
    """

    epoch: int
    active: dict[int, np.ndarray]
    flipped: dict[int, np.ndarray]
    first: bool = False

    @classmethod
    def of(
        cls, epoch: int, state: ConstellationState, diff: Optional[ConstellationDiff]
    ) -> "EpochRecord":
        """The record of ``state``, published as ``epoch`` with ``diff``.

        ``diff`` is ``None`` for an epoch without a previous one; otherwise
        its activated and deactivated satellites are the flips.
        """
        active = state.active_satellites
        if diff is None:
            return cls(epoch, active, active, first=True)
        flipped = {shell: np.zeros_like(mask) for shell, mask in active.items()}
        for shell, mask in flipped.items():
            mask[diff.activated[shell]] = True
            mask[diff.deactivated[shell]] = True
        return cls(epoch, active, flipped)

    @cached_property
    def flips(self) -> dict[int, list[int]]:
        """Per shell, the identifiers of the flipped satellites, ascending.

        Computed once per record, however many managers read it.
        """
        return {shell: np.flatnonzero(mask).tolist() for shell, mask in self.flipped.items()}


class ControlOp(enum.IntEnum):
    """A lifecycle operation on a host's machines (one ``CONTROL`` row on the wire)."""

    CREATE = 0  # create_machines(batch, boot_s): value is the boot time
    STOP = 1  # stop_machine(machine, now_s)
    REBOOT = 2  # reboot_machine(machine, now_s)
    CPU_QUOTA = 3  # set_cpu_quota(machine, quota)
    BUSY = 4  # set_busy_fraction(machine, fraction)


class MachineManager:
    """Manages the microVMs of one host; keys its draws by ``key_root(rng)``, 0 without one.

    Both sides of the worker seam run this class: in process it is the one
    copy of its host's machines, and with worker processes the worker runs
    one on the host it owns while the driver runs one on its replica of that
    host's table.  ``sink``, when set, receives every lifecycle operation as
    an ``(op, machine, value)`` row once it ran: the process backend points
    it at the host's worker, which runs the same rows on its copy.
    """

    def __init__(self, host: Host, rng: Optional[np.random.Generator] = None):
        self.host = host
        #: The root of the keyed draws of machine seeds and sample noise.
        self.key_root = 0 if rng is None else key_root(rng)
        self.sink: Optional[Callable[..., None]] = None
        #: The owned-satellite index: shell → identifier → machine name.
        self._satellites: dict[int, dict[int, str]] = {}
        machines = host.machines
        self._index(machines.names, machines.shells, machines.identifiers)
        self.suspension_count = 0
        self.resume_count = 0
        #: Machines whose lifecycle changed outside the diff protocol since
        #: the last update; reconciled (and cleared) by apply_diff/apply_state.
        self.dirty: set[str] = set()
        self.applied_diffs = 0

    def _index(self, names: Iterable[str], shells: Iterable[int], identifiers: Iterable[int]) -> None:
        """Add machines of this host to the owned-satellite index."""
        for name, shell, identifier in zip(names, shells, identifiers):
            if shell != MachineId.GROUND_SHELL:
                self._satellites.setdefault(shell, {})[identifier] = name

    def _record(
        self,
        op: ControlOp,
        machine: Union[MachineBatch, MachineId],
        value: float,
        changed: Iterable[str],
    ) -> None:
        """One operation done: ``changed`` names the machines whose lifecycle it changed."""
        self.dirty.update(changed)
        if self.sink is not None:
            self.sink(op, machine, value)

    # -- creation -----------------------------------------------------------

    def create_machines(self, batch: MachineBatch, boot_s: float) -> None:
        """Create a batch of machines on this host, booted at ``boot_s``."""
        self.host.place(batch, boot_s, self.key_root)
        self._index(batch.names, batch.shells.tolist(), batch.identifiers.tolist())
        self._record(ControlOp.CREATE, batch, boot_s, batch.names)

    def has_machine(self, machine_id: MachineId) -> bool:
        """Whether this host holds the machine."""
        return machine_id.name in self.host.machines

    def machine(self, machine_id: MachineId) -> MachineView:
        """The read-only view of a machine of this host."""
        return self.host.machine(machine_id.name)

    def is_running_at(self, machine_id: MachineId, now_s: float) -> bool:
        """Whether a machine is running (boot finished, not suspended) at a time."""
        machines = self.host.machines
        return machine_id.name in machines and machines.is_running_at(machine_id.name, now_s)

    # -- lifecycle -----------------------------------------------------------

    def _placed(self, machine_id: MachineId) -> str:
        """The name of a machine of this host (:class:`HostError` for any other)."""
        return self.host.machine(machine_id.name).name

    def stop_machine(self, machine_id: MachineId, now_s: float) -> None:
        """Terminate a machine (e.g. modelling a radiation-induced shutdown)."""
        name = self._placed(machine_id)
        self.host.machines.stop(name)
        self._record(ControlOp.STOP, machine_id, now_s, (name,))

    def reboot_machine(self, machine_id: MachineId, now_s: float) -> float:
        """Reboot a machine; returns the time it is running again."""
        name = self._placed(machine_id)
        self.host.machines.reboot(name, now_s)
        self._record(ControlOp.REBOOT, machine_id, now_s, (name,))
        return self.host.machines.boot_finished_at_s(name)

    def set_cpu_quota(self, machine_id: MachineId, quota_fraction: float) -> None:
        """Change a machine's CPU quota at runtime."""
        self.host.set_cpu_quota(machine_id.name, quota_fraction)
        self._record(ControlOp.CPU_QUOTA, machine_id, quota_fraction, ())

    def set_busy_fraction(self, machine_id: MachineId, fraction: float) -> None:
        """Report workload CPU usage of a machine for host accounting."""
        self.host.set_busy_fraction(machine_id.name, fraction)
        self._record(ControlOp.BUSY, machine_id, fraction, ())

    # -- bounding-box activity -------------------------------------------------

    def _satellite_activity(self, name: str, active: dict[int, np.ndarray]) -> Optional[bool]:
        """A hosted satellite's activity in per-shell masks (``None``: not a hosted satellite)."""
        machines = self.host.machines
        if name not in machines:
            return None
        shell, identifier = machines.identity(name)
        if shell == MachineId.GROUND_SHELL:
            return None
        return bool(active[shell][identifier])

    def apply_state(self, state: ConstellationState, now_s: float) -> None:
        """Suspend/resume local satellites with a full sweep over the state.

        The full-replay reference the record path (:meth:`apply_diff`) is
        tested against; the coordinator itself only applies records.
        """
        for name in list(self.host.machines):
            active = self._satellite_activity(name, state.active_satellites)
            if active is not None:
                self._reconcile_activity(name, active)
        self.dirty.clear()

    def _reconcile_activity(self, name: str, active: bool) -> None:
        """Suspend/resume one machine to match its activity."""
        state = self.host.machines.follow_activity(name, active)
        if state is MachineState.SUSPENDED:
            self.suspension_count += 1
        elif state is MachineState.RUNNING:
            self.resume_count += 1

    def apply_diff(self, record: EpochRecord, now_s: float) -> None:
        """Apply one epoch's record to this host's machines.

        Only the machines the record concerns are touched: the flips of the
        satellites this manager hosts suspend/resume exactly the machines
        that crossed the boundary, then the machines still dirty since the
        last update are reconciled against the activity masks.  Both steps
        guard on the current state, so the result (including the
        suspend/resume counters) is identical to a full :meth:`apply_state`
        sweep.
        """
        flips = record.flips
        for shell, owned in self._satellites.items():
            active = record.active[shell]
            for identifier in flips[shell]:
                name = owned.get(identifier)
                if name is None:
                    continue
                self.dirty.discard(name)  # reconciled here, not again below
                self._reconcile_activity(name, bool(active[identifier]))
        for name in self.dirty:
            active = self._satellite_activity(name, record.active)
            if active is not None:
                self._reconcile_activity(name, active)
        self.dirty.clear()
        if not record.first:
            self.applied_diffs += 1

    # -- accounting --------------------------------------------------------------

    def sample_usage(
        self,
        now_s: float,
        setup_phase: bool = False,
        applying_update: bool = False,
        sample_index: Optional[int] = None,
    ):
        """Record a host resource usage sample (see :meth:`repro.hosts.Host.sample_usage`)."""
        return self.host.sample_usage(
            now_s, setup_phase, applying_update, self.key_root, sample_index
        )

    def advance_sample_stream(self, setup_phase: bool = False, applying_update: bool = False):
        """Does nothing: a patch point the benchmark's tracer wraps by name.

        Kept while ``bench/trace.py`` patches it; ROADMAP item 3 deletes it
        together with the patch list.
        """

    # -- checkpoint (supervised workers) ------------------------------------------

    def counters_snapshot(self) -> dict:
        """Checkpoint of the row count, the counters, the dirty set and the states.

        Streamed back with every worker acknowledgement: the driver compares
        it, key by key, with its replica manager's.  A worker's start frame
        carries the replica's, which the worker's new manager must reproduce.
        ``states`` is the CRC-32 of the table's state column, every
        machine's state.
        """
        return {
            "rows": len(self.host.machines),
            "suspension_count": self.suspension_count,
            "resume_count": self.resume_count,
            "applied_diffs": self.applied_diffs,
            "dirty": sorted(self.dirty),
            "states": zlib.crc32(self.host.machines.states),
        }
