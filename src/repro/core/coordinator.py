"""The Celestial coordinator.

The coordinator computes satellite orbital paths and networking
characteristics and sends this information to the Celestial hosts, which
update machines and network links accordingly (§3, Fig. 2).  In this
reproduction the coordinator additionally creates microVMs lazily: a
satellite server is instantiated on a host the first time it enters the
bounding box, mirroring how Celestial only expends host resources on
emulated (in-box) satellites.

A host here is an accounting construct: placement (a new microVM goes to
the host with the least reserved memory, the one rule:
:meth:`Coordinator._least_loaded_manager`) plus the CPU/memory bookkeeping
behind Figs. 7 and 8.  No inter-host latency, overlay or per-host network
state exists, so placement cannot reach what an application observes.

One record for every manager
----------------------------

After the first epoch the coordinator runs the differential update
pipeline: :meth:`Coordinator.update` asks the constellation calculation for
a :class:`~repro.core.constellation.ConstellationDiff` against the
previously published state, publishes state + diff through the database
(which holds that one epoch, no history), and then builds **one**
:class:`~repro.core.machine_manager.EpochRecord` for the epoch — per shell
the activity mask and the mask of satellites that flipped since the
previous epoch, one XOR per shell and no per-machine loop.  Every
manager receives the same record and picks out the flips of the satellites
it hosts and the machines of its own that are dirty
(:meth:`~repro.core.machine_manager.MachineManager.apply_diff`); a manager
only touches its own host's machines, so the order the managers apply in
cannot show.  The first record flips every active satellite from nothing,
so the first epoch takes the same path.  The network half of the update
does not travel in the record: the virtual network consumes the same diff
centrally (:meth:`~repro.net.network.VirtualNetwork.apply_diff`) and
per-pair delay and bandwidth are resolved from the published state by
:meth:`~repro.core.database.ConstellationDatabase.pair_rule`.  What an epoch
publishes thus does not depend on where machines were placed, in the spirit
of RAFDA's separation of application logic from distribution policy.

The in-process-vs-worker seam
-----------------------------

*Where* the record is applied is a backend decision
(``parallelism="threads" | "processes"``, default threads):

* ``threads`` — the managers live in this process and
  :class:`~repro.dist.backend.ThreadFanoutBackend` hands each the record
  object in a loop.  Despite the literal no thread is started and nothing
  crosses a process boundary.
* ``processes`` — :class:`~repro.dist.backend.ProcessFanoutBackend` owns a
  pool of supervised worker processes (``repro.dist``), each holding the
  authoritative managers of one or more hosts behind its own TCP connection:
  loopback for the workers the pool spawns, the network for operator-started
  workers on other machines, like the paper's testbed.  It exists to
  exercise that remote-worker protocol.  The record is encoded once per
  epoch and travels as one buffer-backed wire frame per worker; usage
  samples, counters and the machines a record suspended or resumed stream
  back, one acknowledgement per worker per epoch.  The workers own every
  microVM; the coordinator's side keeps a ledger per host for placement and
  parent-side queries (:class:`~repro.dist.backend.HostLedger`: reserved
  memory, and per machine a seed, a state and boot times); crashed workers
  are respawned, replayed from the control ledger and restored to the
  checkpoint epoch's activity masks, derived from the last record sent.
  ``transport`` carries the pool's deployment settings as a ready
  :class:`~repro.dist.transport.TcpTransportFactory` (default: loopback).

Both backends are driven through the same calls (``apply_slices``,
``sample_all``, ``close``), so everything above this seam — the record,
diff pipeline, stats — is backend-agnostic, and the observable results
(machine states, suspend/resume counters, usage samples) are byte-identical
between the two.
"""

from __future__ import annotations

import time as wallclock
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.core.config import Configuration
from repro.core.constellation import (
    ConstellationCalculation,
    ConstellationState,
    MachineId,
)
from repro.core.database import ConstellationDatabase
from repro.core.machine_manager import EpochRecord, MachineManager
from repro.microvm import MachineState, MicroVM
from repro.net.network import VirtualNetwork
from repro.sim import Simulation


#: Most recent entries each per-epoch series of :class:`UpdateStats` keeps,
#: so a long serving run's bookkeeping stays bounded.
STATS_SERIES_LENGTH = 4096


def _series() -> deque:
    return deque(maxlen=STATS_SERIES_LENGTH)


@dataclass
class UpdateStats:
    """Bookkeeping about coordinator updates (used by the <1 s update claim).

    Counters and the wall-clock mean/max cover the whole run, each series
    the latest :data:`STATS_SERIES_LENGTH` entries.
    """

    count: int = 0
    wallclock_seconds: deque = field(default_factory=_series)
    full_updates: int = 0
    diff_updates: int = 0
    diff_change_counts: deque = field(default_factory=_series)
    #: Wall-clock of the fan-out step alone (record application),
    #: one entry per update — the cost of the seam the dist benchmark
    #: records per backend.
    fanout_seconds: deque = field(default_factory=_series)
    #: Wall-clock of each usage-sampling sweep (``sample_all_usage``).
    sample_seconds: deque = field(default_factory=_series)
    #: Transport ack round-trip seconds per worker slot (process backends
    #: only; empty under the in-process backend, which has no transport).
    worker_ack_seconds: dict[int, deque] = field(
        default_factory=lambda: defaultdict(_series)
    )
    total_wallclock_s: float = 0.0
    max_wallclock_s: float = 0.0

    def record_update(
        self, wallclock_s: float, fanout_s: float, change_count: Optional[int] = None
    ) -> None:
        """Fold one finished update in (``change_count`` is None for a full one)."""
        self.count += 1
        self.total_wallclock_s += wallclock_s
        self.max_wallclock_s = max(self.max_wallclock_s, wallclock_s)
        self.wallclock_seconds.append(wallclock_s)
        self.fanout_seconds.append(fanout_s)
        if change_count is None:
            self.full_updates += 1
        else:
            self.diff_updates += 1
            self.diff_change_counts.append(change_count)

    @property
    def mean_wallclock_s(self) -> float:
        """Mean wall-clock duration of one constellation update."""
        return self.total_wallclock_s / self.count if self.count else 0.0


class Coordinator:
    """Drives periodic constellation updates and distributes them to hosts."""

    def __init__(
        self,
        config: Configuration,
        calculation: ConstellationCalculation,
        database: ConstellationDatabase,
        managers: list[MachineManager],
        network: Optional[VirtualNetwork] = None,
        parallelism: Literal["threads", "processes"] = "threads",
        worker_count: Optional[int] = None,
        transport=None,
    ):
        self.config = config
        self.calculation = calculation
        self.database = database
        self.network = network
        self.parallelism = parallelism
        # The backends are imported lazily: repro.dist itself imports from
        # repro.core, so a module-level import would be circular.
        if parallelism == "processes":
            from repro.dist.backend import ProcessFanoutBackend

            self._backend = ProcessFanoutBackend(
                managers,
                worker_count=worker_count,
                transport=transport,
            )
        elif parallelism == "threads":
            if transport is not None:
                # Silently running in-process after the user configured a
                # worker transport would fake a passing remote-path test.
                raise ValueError(
                    f"transport={transport!r} requires parallelism='processes' "
                    "(the in-process backend has no workers to transport to)"
                )
            from repro.dist.backend import ThreadFanoutBackend

            self._backend = ThreadFanoutBackend(managers)
        else:
            raise ValueError(f"unknown parallelism backend {parallelism!r}")
        # In process mode these are MirroredManager proxies (ledger +
        # forwarding); in thread mode they are the managers passed in.
        self.managers = list(self._backend.managers)
        self.stats = UpdateStats()
        self._machine_manager_of: dict[str, MachineManager] = {}
        # The microVM of each machine, or with worker processes its ledger
        # record: both answer state_at.
        self._machine_of: dict[str, MicroVM] = {}

    # -- machine bookkeeping -------------------------------------------------

    def manager_for(self, machine: MachineId) -> MachineManager:
        """The machine manager hosting a machine."""
        if machine.name not in self._machine_manager_of:
            raise KeyError(f"machine {machine.name!r} has not been created")
        return self._machine_manager_of[machine.name]

    def has_machine(self, machine: MachineId) -> bool:
        """Whether a microVM exists for the machine."""
        return machine.name in self._machine_manager_of

    def is_running_at(self, machine: MachineId, now_s: float) -> bool:
        """Whether a machine exists and is running (booted, not suspended) at a time.

        One lookup by name, whichever manager hosts the machine; with worker
        processes it reads the driver's ledger record of the machine
        (:class:`~repro.dist.backend.MachineRecord`), which answers as the
        microVM would for any time at or after its latest operation.
        """
        microvm = self._machine_of.get(machine.name)
        return microvm is not None and microvm.state_at(now_s) is MachineState.RUNNING

    def _least_loaded_manager(self) -> MachineManager:
        """*The* placement rule: the host with the least reserved memory.

        Ties go to the lowest position; reserved memory moves only when a
        machine is created, so placement follows from the creation order.
        """
        return min(
            self.managers,
            key=lambda manager: manager.host.reserved_memory_mib(),
        )

    def create_machine(
        self, machine: MachineId, now_s: float, boot: bool = True
    ) -> MachineManager:
        """Create (and optionally boot) a microVM for a machine."""
        if self.has_machine(machine):
            return self.manager_for(machine)
        if machine.is_ground_station:
            compute = self.config.ground_station_config(machine.name).compute
        else:
            compute = self.config.shells[machine.shell].compute
        manager = self._least_loaded_manager()
        microvm = manager.create_machine(machine, compute)
        if boot:
            manager.boot(machine, now_s)
        self._machine_manager_of[machine.name] = manager
        self._machine_of[machine.name] = microvm
        return manager

    def create_ground_stations(self, now_s: float) -> None:
        """Create and boot the microVMs of all configured ground stations."""
        for name in self.config.ground_station_names:
            self.create_machine(self.calculation.ground_station(name), now_s)

    def _ensure_activated_satellites(self, record: EpochRecord, now_s: float) -> None:
        """Create microVMs for satellites that just entered the bounding box.

        Satellites active before this epoch already received their microVM
        when they first became active, so only the activated flips of the
        record (every active satellite in the first one) can require new
        machines; they are created shell by shell, identifiers ascending.
        """
        for shell_index, identifiers in record.flips.items():
            active = record.active[shell_index]
            for identifier in identifiers:
                if not active[identifier]:
                    continue
                machine = self.calculation.satellite(shell_index, identifier)
                if not self.has_machine(machine):
                    self.create_machine(machine, now_s)

    def sample_all_usage(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ):
        """One usage sample of every host, via the backend.

        Each host answers from its kept accounting (an O(1) reading unless a
        machine changed since the last sample, see :mod:`repro.hosts.host`):
        with the process backend that is one round trip per worker, in
        process a loop over the managers.  Results are identical either way
        and are recorded into the per-host resource traces.
        """
        started = wallclock.perf_counter()
        samples = self._backend.sample_all(
            now_s, setup_phase=setup_phase, applying_update=applying_update
        )
        self.stats.sample_seconds.append(wallclock.perf_counter() - started)
        self._merge_transport_latencies()
        return samples

    def _merge_transport_latencies(self) -> None:
        """Fold the backend's drained ack latencies into the stats."""
        for worker, latencies in self._backend.drain_transport_latencies().items():
            self.stats.worker_ack_seconds[worker].extend(latencies)

    def close(self) -> None:
        """Release the fan-out backend (idempotent, both backends).

        In process there is nothing to release; a closed backend only
        refuses further sweeps.  Process backend: drains and joins every
        worker, escalating to terminate/kill — deterministic
        even when called during interpreter shutdown (the workers are
        additionally daemonic and the supervisor registers an ``atexit``
        finaliser, so no backend can outlive or hang the interpreter).
        """
        backend = getattr(self, "_backend", None)
        if backend is not None:
            backend.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- updates ---------------------------------------------------------------

    def update(self, now_s: float) -> ConstellationState:
        """Run one constellation update and distribute it to all hosts.

        The first epoch computes the state cold; afterwards the differential
        pipeline computes state + diff.  Either way the epoch's record goes
        to every manager through the backend.
        """
        started = wallclock.perf_counter()
        previous = self.database.state if self.database.has_state else None
        if previous is None:
            state, diff = self.calculation.state_at(now_s), None
        else:
            state, diff = self.calculation.diff_since(previous, now_s)
        self.database.set_state(state, diff=diff)
        record = EpochRecord.of(self.database.epoch, state, previous)
        self._ensure_activated_satellites(record, now_s)
        # Each manager only mutates its own host's machines: counters and
        # machine transitions come out the same whichever backend applies.
        started_fanout = wallclock.perf_counter()
        self._backend.apply_slices(record, now_s)
        fanout_s = wallclock.perf_counter() - started_fanout
        if self.network is not None:
            if diff is None:
                self.network.mark_updated()
            else:
                self.network.apply_diff(diff)
        self.stats.record_update(
            wallclock.perf_counter() - started,
            fanout_s,
            None if diff is None else diff.topology.change_count,
        )
        self._merge_transport_latencies()
        return state

    def run_updates(self, sim: Simulation, duration_s: Optional[float] = None):
        """Simulation process running updates at the configured interval."""
        end = duration_s if duration_s is not None else self.config.duration_s
        while True:
            self.update(sim.now)
            next_update = sim.now + self.config.update_interval_s
            if next_update > end:
                return
            yield sim.timeout(self.config.update_interval_s)
