"""The per-host Machine Manager.

Each Celestial host runs a Machine Manager that creates and boots the
microVMs assigned to it, suspends/resumes them when they leave/enter the
bounding box, applies machine parameter changes at runtime (fault injection,
CPU quotas) and reports host resource usage (§3, Fig. 2).

Differential update contract
----------------------------

The coordinator publishes one :class:`EpochRecord` per epoch and every
manager receives the same record, whichever host it runs: per shell the
bounding-box activity mask and the mask of satellites whose activity flipped
since the previous epoch.  :meth:`MachineManager.apply_diff` picks out its
own part:

* the flips of the satellites it hosts, found through an owned-satellite
  index kept at :meth:`~MachineManager.create_machine`; the manager
  resumes/suspends exactly those, instead of scanning its whole fleet;
* machines whose lifecycle changed *outside* the protocol (created, booted,
  stopped or rebooted between updates) are tracked in a dirty set and
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
visited in a loop.  A manager may also live in a worker *process*
(``repro.dist``, which exists to exercise the remote-worker protocol): it is
then the only owner of its microVMs — it applies the records, takes the
usage samples and reports the machines a record suspended or resumed —
while the coordinator's side keeps a ledger for placement and queries
(:class:`repro.dist.backend.HostLedger`: seeds, states and boot times, no
microVM).  Two members exist for that runtime:
:meth:`MachineManager.counters_snapshot` (the checkpoint streamed back with
every acknowledgement: counters, RNG state and the dirty set) and
:meth:`MachineManager.restore_runtime_state` (applied by a respawned worker
after the durable control ledger has been replayed: forces bounding-box
activity to the checkpoint epoch's masks — derived by the supervisor from
the last record it sent — without touching the suspend/resume counters,
then restores counters, dirty set and RNG stream exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
class EpochRecord:
    """One epoch's bounding-box activity, the same for every manager.

    ``active`` holds each shell's activity mask, ``flipped`` the mask of the
    satellites whose activity changed since the previous epoch, so the
    previous epoch's masks are ``active ^ flipped``.  ``first`` marks the
    record of an epoch without a previous one: it flips every active
    satellite from nothing.  ``epoch`` is the database epoch the record
    belongs to (a worker's recovery checkpoint).
    """

    epoch: int
    active: dict[int, np.ndarray]
    flipped: dict[int, np.ndarray]
    first: bool = False

    @classmethod
    def of(
        cls, epoch: int, state: ConstellationState, previous: Optional[ConstellationState]
    ) -> "EpochRecord":
        """The record of ``state``, published as ``epoch`` after ``previous``."""
        active = state.active_satellites
        if previous is None:
            return cls(epoch, active, active, first=True)
        flipped = {
            shell: mask ^ previous.active_satellites[shell] for shell, mask in active.items()
        }
        return cls(epoch, active, flipped)

    @cached_property
    def flips(self) -> dict[int, list[int]]:
        """Per shell, the identifiers of the flipped satellites, ascending.

        Computed once per record, however many managers read it.
        """
        return {shell: np.flatnonzero(mask).tolist() for shell, mask in self.flipped.items()}

    def masks_at(self, epoch: int) -> dict[int, np.ndarray]:
        """The activity masks of this record's epoch or of the one before it."""
        if epoch == self.epoch:
            return self.active
        if epoch == self.epoch - 1:
            return {shell: mask ^ self.flipped[shell] for shell, mask in self.active.items()}
        raise KeyError(
            f"no activity masks for epoch {epoch}: the record holds epoch "
            f"{self.epoch} and the one before it"
        )


class MachineManager:
    """Manages the microVMs of one host."""

    def __init__(self, host: Host, rng: Optional[np.random.Generator] = None):
        self.host = host
        self._rng = rng if rng is not None else np.random.default_rng(host.index)
        self._machine_ids: dict[str, MachineId] = {}
        #: The owned-satellite index: shell → identifier → machine name.
        self._satellites: dict[int, dict[int, str]] = {}
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
        if not machine_id.is_ground_station:
            owned = self._satellites.setdefault(machine_id.shell, {})
            owned[machine_id.identifier] = machine_id.name
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

        The full-replay reference the record path (:meth:`apply_diff`) is
        tested against; the coordinator itself only applies records.
        """
        active_satellites = state.active_satellites
        for name, machine_id in self._machine_ids.items():
            if machine_id.is_ground_station:
                continue
            machine = self.host.machines.get(name)
            if machine is None:
                continue
            active = bool(active_satellites[machine_id.shell][machine_id.identifier])
            self._reconcile_activity(machine, active, now_s)
        self._dirty.clear()

    def _reconcile_activity(self, machine: MicroVM, active: bool, now_s: float) -> bool:
        """Suspend/resume one machine to match its activity; whether it did."""
        if machine.state is MachineState.RUNNING and not active:
            machine.suspend(now_s)
            self.suspension_count += 1
            return True
        if machine.state is MachineState.SUSPENDED and active:
            machine.resume(now_s)
            self.resume_count += 1
            return True
        return False

    def apply_diff(self, record: EpochRecord, now_s: float) -> list[str]:
        """Apply one epoch's record to this host's machines.

        Only the machines the record concerns are touched: the flips of the
        satellites this manager hosts suspend/resume exactly the machines
        that crossed the boundary, then the machines still dirty since the
        last update are reconciled against the activity masks.  Both steps
        guard on the current microVM state, so the result (including the
        suspend/resume counters) is identical to a full :meth:`apply_state`
        sweep.  Returns the names of the machines it suspended or resumed.
        """
        machines = self.host.machines
        flips = record.flips
        changed = []
        for shell, owned in self._satellites.items():
            active = record.active[shell]
            for identifier in flips[shell]:
                name = owned.get(identifier)
                if name is None:
                    continue
                self._dirty.discard(name)  # reconciled here, not again below
                machine = machines.get(name)
                if machine is not None and self._reconcile_activity(
                    machine, bool(active[identifier]), now_s
                ):
                    changed.append(name)
        for name in self._dirty:
            machine_id = self._machine_ids.get(name)
            machine = machines.get(name)
            if machine_id is None or machine is None or machine_id.is_ground_station:
                continue
            active = record.active[machine_id.shell][machine_id.identifier]
            if self._reconcile_activity(machine, bool(active), now_s):
                changed.append(name)
        self._dirty.clear()
        if not record.first:
            self.applied_diffs += 1
        return changed

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

    # Uncalled; kept only because the benchmark's tracer patches it by name.
    def advance_sample_stream(
        self, setup_phase: bool = False, applying_update: bool = False
    ) -> None:
        """Consume the random variates one :meth:`sample_usage` call would draw."""
        self._rng.random(
            self.host.sample_rng_draws(
                setup_phase=setup_phase, applying_update=applying_update
            )
        )

    # -- checkpoint / restore (supervised worker recovery) -----------------------

    def counters_snapshot(self) -> dict:
        """Checkpoint of the observable runtime counters, dirty set and RNG state.

        Streamed back with every worker acknowledgement; a supervisor
        restores it verbatim after a crash so counters, the machines still
        to reconcile and all future random draws (usage-sample jitter)
        continue exactly where the last acknowledged operation left them.
        """
        return {
            "suspension_count": self.suspension_count,
            "resume_count": self.resume_count,
            "applied_diffs": self.applied_diffs,
            "dirty": sorted(self._dirty),
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_runtime_state(
        self,
        active_satellites: Optional[dict[int, np.ndarray]],
        snapshot: dict,
        now_s: float,
    ) -> None:
        """Restore a freshly rebuilt manager to a checkpointed epoch.

        Called on a respawned worker after the control ledger frames the
        checkpoint had applied (machine creations, fault-injection ops) were
        replayed:

        * bounding-box activity is *forced* to the per-shell masks of the
          checkpoint epoch without counting the transitions (the counters
          below already include them); ``None`` when the manager had not
          applied any epoch yet (counters/RNG restore only);
        * the checkpoint's dirty machines are left exactly as the ledger
          rebuilt them and stay dirty: their lifecycle changed outside the
          protocol after the last record, and the next record reconciles
          them *with* counting, exactly as the in-process path would;
        * counters and the RNG stream are restored from ``snapshot``.
        """
        dirty = set(snapshot["dirty"])
        if active_satellites is not None:
            for name, machine_id in self._machine_ids.items():
                if machine_id.is_ground_station or name in dirty:
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
        self._dirty = dirty
