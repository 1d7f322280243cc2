"""The per-host Machine Manager.

Each Celestial host runs a Machine Manager that creates and boots the
microVMs assigned to it, suspends/resumes them when they leave/enter the
bounding box, applies machine parameter changes at runtime (fault injection,
CPU quotas) and reports host resource usage (§3, Fig. 2).

Differential update contract
----------------------------

Under the differential protocol the coordinator no longer replays the full
constellation state to every manager.  Instead each manager receives a
:class:`HostStateSlice` — what this manager has to act on this epoch and
nothing else — and applies it with :meth:`MachineManager.apply_diff`:

* ``activated``/``deactivated`` are the host's machines whose bounding-box
  activity flipped since the previous epoch; the manager resumes/suspends
  exactly those, instead of scanning its whole fleet.
* machines whose lifecycle changed *outside* the protocol (created, booted,
  stopped or rebooted between updates) are tracked in a dirty set and
  reconciled against the activity flags the coordinator ships in
  ``dirty_active`` — this keeps the incremental path byte-equivalent to a
  full :meth:`MachineManager.apply_state` sweep.

A slice carries no link or delay data: the network half of an update is
applied centrally, by :meth:`repro.net.network.VirtualNetwork.apply_diff`
from the same diff and by
:meth:`repro.core.database.ConstellationDatabase.pair_rule` per machine
pair, so its size follows the epoch's activity flips, not the fleet.

Process boundary
----------------

By default the managers are plain objects in the coordinator process,
visited in a loop.  A manager may also live in a worker *process*
(``repro.dist``, which exists to exercise the remote-worker protocol): the
coordinator keeps an in-process shadow for placement and bookkeeping while
the authoritative copy applies slices and takes the usage samples behind a
TCP connection.  Three members exist for that runtime:
:meth:`MachineManager.apply_activity` (the full-replay sweep expressed over
raw per-shell activity masks, so a first-epoch replay does not need the
whole :class:`ConstellationState` on the wire),
:meth:`MachineManager.counters_snapshot` (the checkpoint streamed back with
every acknowledgement) and :meth:`MachineManager.restore_runtime_state`
(applied by a respawned worker after the durable control ledger has been
replayed: forces bounding-box activity to the checkpoint epoch — the
database's current or previous epoch's masks — without touching the
suspend/resume counters, then restores counters and RNG stream exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ComputeParams
from repro.core.constellation import ConstellationState, MachineId
from repro.hosts import Host
from repro.microvm import (
    KernelImage,
    MachineResources,
    MachineState,
    MicroVM,
    RootFilesystemImage,
)


@dataclass(frozen=True)
class HostStateSlice:
    """What one manager applies of one differential constellation update.

    The coordinator guarantees that every machine named in ``activated``,
    ``deactivated`` and ``dirty_active`` is hosted by the receiving manager.
    ``epoch`` is the database epoch the slice belongs to (a worker's
    recovery checkpoint), ``dirty_active`` the current bounding-box activity
    of the manager's dirty satellites by machine name.
    """

    epoch: int
    activated: tuple[MachineId, ...]
    deactivated: tuple[MachineId, ...]
    dirty_active: dict[str, bool]


class MachineManager:
    """Manages the microVMs of one host."""

    def __init__(self, host: Host, rng: Optional[np.random.Generator] = None):
        self.host = host
        self._rng = rng if rng is not None else np.random.default_rng(host.index)
        self._machine_ids: dict[str, MachineId] = {}
        self.suspension_count = 0
        self.resume_count = 0
        # Machines whose lifecycle changed outside the diff protocol since
        # the last update; reconciled (and cleared) by apply_diff/apply_state.
        self._dirty: set[str] = set()
        self.applied_diffs = 0

    # -- machine creation ---------------------------------------------------

    def create_machine(
        self,
        machine_id: MachineId,
        compute: ComputeParams,
        kernel: Optional[KernelImage] = None,
        rootfs: Optional[RootFilesystemImage] = None,
    ) -> MicroVM:
        """Create (but not boot) a microVM for a machine on this host."""
        machine = MicroVM(
            name=machine_id.name,
            resources=MachineResources(
                vcpu_count=compute.vcpu_count,
                memory_mib=compute.memory_mib,
                disk_mib=compute.disk_mib,
            ),
            kernel=kernel,
            rootfs=rootfs,
            rng=np.random.default_rng(self._rng.integers(0, 2**63)),
            active_cpu_fraction=compute.idle_cpu_fraction,
        )
        machine.cpu_quota.set_quota(compute.cpu_quota)
        self.host.place(machine)
        self._machine_ids[machine_id.name] = machine_id
        self._dirty.add(machine_id.name)
        return machine

    def has_machine(self, machine_id: MachineId) -> bool:
        """Whether this manager hosts the machine."""
        return machine_id.name in self.host.machines

    def machine(self, machine_id: MachineId) -> MicroVM:
        """The microVM of a machine managed by this host."""
        return self.host.machine(machine_id.name)

    def machine_ids(self) -> list[MachineId]:
        """Identities of all machines managed by this host."""
        return list(self._machine_ids.values())

    # -- lifecycle -----------------------------------------------------------

    def boot(self, machine_id: MachineId, now_s: float) -> float:
        """Boot a created machine; returns the boot-finished time."""
        self._dirty.add(machine_id.name)
        return self.machine(machine_id).boot(now_s)

    def boot_all(self, now_s: float) -> float:
        """Boot every created-but-not-booted machine; returns the last finish time."""
        finished = now_s
        for name, machine in self.host.machines.items():
            if machine.state is MachineState.CREATED:
                self._dirty.add(name)
                finished = max(finished, machine.boot(now_s))
        return finished

    def apply_state(self, state: ConstellationState, now_s: float) -> None:
        """Suspend/resume local satellites with a full sweep over the state.

        This is the full-replay reference path (and the first-epoch path);
        steady-state updates go through :meth:`apply_diff` instead.
        """
        self.apply_activity(state.active_satellites, now_s)

    def apply_activity(
        self, active_satellites: dict[int, np.ndarray], now_s: float
    ) -> None:
        """Full-replay sweep expressed over raw per-shell activity masks.

        Byte-equivalent to :meth:`apply_state` (which delegates here): the
        masks are exactly ``ConstellationState.active_satellites``.  Workers
        receive them as a compact ``APPLY_ACTIVITY`` wire frame instead of
        the whole constellation state.
        """
        for name, machine_id in self._machine_ids.items():
            if machine_id.is_ground_station:
                continue
            machine = self.host.machines.get(name)
            if machine is None:
                continue
            active = bool(active_satellites[machine_id.shell][machine_id.identifier])
            self._reconcile_activity(machine, active, now_s)
        self._dirty.clear()

    def _reconcile_activity(self, machine: MicroVM, active: bool, now_s: float) -> None:
        if machine.state is MachineState.RUNNING and not active:
            machine.suspend(now_s)
            self.suspension_count += 1
        elif machine.state is MachineState.SUSPENDED and active:
            machine.resume(now_s)
            self.resume_count += 1

    def dirty_machine_ids(self) -> list[MachineId]:
        """Machines whose lifecycle changed outside the diff protocol.

        The coordinator reads this when sharding an update so it can ship
        the current activity flag of exactly these machines in the slice's
        ``dirty_active`` map.
        """
        return [self._machine_ids[name] for name in self._dirty if name in self._machine_ids]

    def apply_diff(self, state_slice: HostStateSlice, now_s: float) -> None:
        """Apply one differential update slice to this host's machines.

        Only the machines named in the slice are touched: bounding-box
        transitions suspend/resume exactly the machines that crossed the
        boundary, then machines marked dirty since the last update are
        reconciled against the shipped activity flags.  Both steps guard on
        the current microVM state, so the result (including the
        suspend/resume counters) is identical to a full
        :meth:`apply_state` sweep.
        """
        for machine_id in state_slice.deactivated:
            machine = self.host.machines.get(machine_id.name)
            if machine is not None:
                self._reconcile_activity(machine, False, now_s)
        for machine_id in state_slice.activated:
            machine = self.host.machines.get(machine_id.name)
            if machine is not None:
                self._reconcile_activity(machine, True, now_s)
        for name, active in state_slice.dirty_active.items():
            machine_id = self._machine_ids.get(name)
            machine = self.host.machines.get(name)
            if machine_id is None or machine is None or machine_id.is_ground_station:
                continue
            self._reconcile_activity(machine, active, now_s)
        self._dirty.clear()
        self.applied_diffs += 1

    def is_running_at(self, machine_id: MachineId, now_s: float) -> bool:
        """Whether a machine is running (boot finished, not suspended) at a time."""
        machine = self.host.machines.get(machine_id.name)
        if machine is None:
            return False
        return machine.state_at(now_s) is MachineState.RUNNING

    # -- runtime machine control (fault injection API) -------------------------

    def stop_machine(self, machine_id: MachineId, now_s: float) -> None:
        """Terminate a machine (e.g. modelling a radiation-induced shutdown)."""
        self.machine(machine_id).stop(now_s)
        self._dirty.add(machine_id.name)

    def reboot_machine(self, machine_id: MachineId, now_s: float) -> float:
        """Reboot a machine; returns the time it is running again."""
        self._dirty.add(machine_id.name)
        return self.machine(machine_id).reboot(now_s)

    def set_cpu_quota(self, machine_id: MachineId, quota_fraction: float) -> None:
        """Change a machine's CPU quota at runtime."""
        self.host.set_cpu_quota(machine_id.name, quota_fraction)

    def set_busy_fraction(self, machine_id: MachineId, fraction: float) -> None:
        """Report workload CPU usage of a machine for host accounting."""
        self.host.set_busy_fraction(machine_id.name, fraction)

    # -- accounting --------------------------------------------------------------

    def sample_usage(self, now_s: float, setup_phase: bool = False, applying_update: bool = False):
        """Record a host resource usage sample."""
        return self.host.sample_usage(
            now_s, setup_phase=setup_phase, applying_update=applying_update, rng=self._rng
        )

    def advance_sample_stream(
        self, setup_phase: bool = False, applying_update: bool = False
    ) -> None:
        """Consume the random variates one :meth:`sample_usage` call would draw.

        A shadow manager whose authoritative copy samples in a worker
        process calls this instead of sampling, so machine creations *after*
        a sample draw the same per-machine seeds (and hence boot-time
        jitter) in every backend.
        """
        self._rng.random(
            self.host.sample_rng_draws(
                setup_phase=setup_phase, applying_update=applying_update
            )
        )

    # -- checkpoint / restore (supervised worker recovery) -----------------------

    def counters_snapshot(self) -> dict:
        """Checkpoint of the observable runtime counters plus the RNG state.

        Streamed back with every worker acknowledgement; a supervisor
        restores it verbatim after a crash so counters and all future random
        draws (usage-sample jitter) continue exactly where the last
        acknowledged operation left them.
        """
        return {
            "suspension_count": self.suspension_count,
            "resume_count": self.resume_count,
            "applied_diffs": self.applied_diffs,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_runtime_state(
        self,
        active_satellites: Optional[dict[int, np.ndarray]],
        snapshot: dict,
        now_s: float,
        skip: Optional[set[str]] = None,
    ) -> None:
        """Restore a freshly rebuilt manager to a checkpointed epoch.

        Called on a respawned worker after the durable control ledger
        (machine creations, fault-injection ops) has been replayed:

        * bounding-box activity is *forced* to the per-shell masks of the
          checkpoint epoch — the database's current or previous epoch's
          masks, read by the supervisor — without counting the transitions (the
          counters below already include them); ``None`` when the manager
          had not applied any epoch yet (counters/RNG restore only);
        * machines in ``skip`` are left exactly as the ledger rebuilt them:
          these are dirty machines whose lifecycle changed outside the diff
          protocol after the checkpoint, and the next slice's
          ``dirty_active`` map reconciles them *with* counting, exactly as
          the in-process path would;
        * counters and the RNG stream are restored from ``snapshot``.
        """
        skip = skip if skip is not None else set()
        if active_satellites is not None:
            for name, machine_id in self._machine_ids.items():
                if machine_id.is_ground_station or name in skip:
                    continue
                machine = self.host.machines.get(name)
                if machine is None or not machine.is_booted:
                    continue
                active = bool(
                    active_satellites[machine_id.shell][machine_id.identifier]
                )
                if machine.state is MachineState.RUNNING and not active:
                    machine.suspend(now_s)
                elif machine.state is MachineState.SUSPENDED and active:
                    machine.resume(now_s)
        self.suspension_count = int(snapshot["suspension_count"])
        self.resume_count = int(snapshot["resume_count"])
        self.applied_diffs = int(snapshot["applied_diffs"])
        self._rng.bit_generator.state = snapshot["rng_state"]
        self._dirty.clear()
