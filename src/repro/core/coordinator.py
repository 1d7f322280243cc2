"""The Celestial coordinator.

The coordinator computes satellite orbital paths and networking
characteristics and sends this information to the Celestial hosts, which
update machines and network links accordingly (§3, Fig. 2).  In this
reproduction the coordinator additionally creates microVMs lazily: a
satellite server is instantiated on a host the first time it enters the
bounding box, mirroring how Celestial only expends host resources on
emulated (in-box) satellites.

A host here is an accounting construct: placement (a new microVM goes to
the host with the least reserved memory, ties to the lowest position, the
one rule: :func:`least_reserved_placement`) plus the CPU/memory bookkeeping
behind Figs. 7 and 8.  No inter-host latency, overlay or per-host network
state exists, and a machine's seed is keyed by its identity, so placement
cannot reach what an application observes.  The machines an epoch activates
are created as one batch: placement is computed for the whole batch, and
each host appends its share of it at once.

One record for every manager
----------------------------

The first epoch is computed cold, in this process
(:meth:`~repro.core.constellation.ConstellationCalculation.state_at`).  At
the first differential update the coordinator forks the calculation child
(:mod:`repro.dist.calculation`), which inherits the calculation and the
state just published and from then on computes every epoch one ahead:
:meth:`~repro.core.constellation.ConstellationCalculation.diff_since` from
its previous epoch, encoded as the epoch's ``DIFF`` frame.  For each update
:meth:`Coordinator.update` takes the child's frame for its own time (the
child's guess, or computed on demand when the time was not the one
guessed), applies it to an :class:`~repro.serve.codec.EpochReplica` and
rebuilds the state and the
:class:`~repro.core.constellation.ConstellationDiff` from it
(:meth:`~repro.core.constellation.ConstellationCalculation.state_from_replica`):
the driver never calls ``diff_since`` after the first epoch, and consumes
its own update stream as a subscriber does.  It publishes state + diff
through the database (which holds that one epoch, no history, and hands the
frame's bytes on to the stream without encoding them again), and then
builds **one** :class:`~repro.core.machine_manager.EpochRecord` for the
epoch — per shell the activity mask and the ascending identifiers of the
satellites that flipped since the previous epoch, the diff's own arrays,
with no per-machine loop.  Every
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
publishes thus does not depend on where machines were placed — nor on
where the calculation ran — in the spirit of RAFDA's separation of
application logic from distribution policy.  A child that dies, stops,
stalls or sends a frame that is not the epoch asked for is a
:class:`~repro.dist.calculation.CalculationChildError` within a deadline;
it is not respawned.  The child chains onto the coordinator's own
publications, so a state published to the database around the coordinator
is refused at the next update.

The in-process-vs-worker seam
-----------------------------

*Where* the record is applied is a backend decision
(``parallelism="threads" | "processes"``, default threads):

* ``threads`` — the managers live in this process and
  :class:`~repro.dist.backend.ThreadFanoutBackend` hands each the record
  object in a loop.  Despite the literal no thread is started and nothing
  crosses a process boundary.
* ``processes`` — :class:`~repro.dist.backend.ProcessFanoutBackend` is a
  pool of worker processes (``repro.dist``) that it spawns, watches and
  restarts, each running the managers of one or more hosts behind its own
  TCP connection:
  loopback for the workers the pool spawns, the network for operator-started
  workers on other machines, like the paper's testbed.  It exists to
  exercise that remote-worker protocol.  The managers this coordinator
  was given stay its managers, each now the replica of a worker's host, and
  compute every answer: lifecycle operations, records and usage samples run
  on the replica first and are then sent to the workers, which repeat them.
  The record is encoded once per epoch and travels as one buffer-backed
  wire frame per worker.  No call waits for a worker: each acknowledgement
  (checkpoints and sample checksums) is compared with what the replica held
  when the request was sent, before the next record goes out and at
  :meth:`Coordinator.close`, so a desync is raised at most one epoch late.
  A crashed worker is respawned from the replica, as every worker starts.
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
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.core.constellation import (
    ConstellationCalculation,
    ConstellationState,
    MachineId,
    machine_at,
    satellite_name,
)
from repro.core.database import ConstellationDatabase
from repro.core.machine_manager import EpochRecord, MachineManager
from repro.microvm import MachineBatch, MachineTable
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

    ``count`` covers the whole run, each series the latest
    :data:`STATS_SERIES_LENGTH` entries.
    """

    count: int = 0
    #: Wall-clock of the fan-out step alone (record application),
    #: one entry per update — the cost of the seam the dist benchmark
    #: records per backend.
    fanout_seconds: deque = field(default_factory=_series)
    #: Wall-clock of each usage-sampling sweep (``sample_all_usage``).
    sample_seconds: deque = field(default_factory=_series)
    #: Seconds from a request's send to the collect of its acknowledgement,
    #: per worker slot: the driver's work in between included, as acks are
    #: collected before the next record (process backend only; empty in
    #: process, where there is no transport).
    worker_ack_seconds: dict[int, deque] = field(
        default_factory=lambda: defaultdict(_series)
    )

    def record_update(self, fanout_s: float) -> None:
        """Fold one finished update in."""
        self.count += 1
        self.fanout_seconds.append(fanout_s)


def least_reserved_placement(reserved: Sequence[int], memory_mib: np.ndarray) -> np.ndarray:
    """The host position of each machine of a batch, in batch order.

    *The* placement rule, applied one machine at a time: the host with the
    least reserved memory takes the machine (ties go to the lowest
    position), and the machine's memory is reserved there before the next
    one is placed.  Within a run of equally sized machines the hosts'
    levels grow as ``reserved[p] + j * m``, so the run's choices are the
    smallest (level, position) pairs of those sequences, in order: one
    sort per run instead of one minimum per machine.
    """
    levels = np.array(reserved, dtype=np.int64)
    hosts = levels.size
    positions = np.empty(memory_mib.size, dtype=np.int64)
    starts = np.flatnonzero(np.diff(memory_mib, prepend=-1))
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), memory_mib.size]):
        count, memory = stop - start, int(memory_mib[start])
        keys = (levels[:, None] + memory * np.arange(count)) * hosts + np.arange(hosts)[:, None]
        chosen = np.sort(keys, axis=None)[:count] % hosts
        positions[start:stop] = chosen
        levels += memory * np.bincount(chosen, minlength=hosts)
    return positions


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
        self.managers = list(managers)
        self.stats = UpdateStats()
        self._machine_manager_of: dict[str, MachineManager] = {}
        # The table each machine's row is in: its manager's host's.
        self._table_of: dict[str, MachineTable] = {}
        # The compute parameters of every shell, then of every ground
        # station: a machine's image is its index here.
        self._computes = tuple(shell.compute for shell in config.shells) + tuple(
            station.compute for station in config.ground_stations
        )
        # The calculation child, forked at the first differential update.
        self._child = None

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

        One lookup by name, whichever manager hosts the machine, then a read
        of its row.
        """
        table = self._table_of.get(machine.name)
        return table is not None and table.is_running_at(machine.name, now_s)

    def running_check(self, clock: Simulation) -> Callable[[MachineId], bool]:
        """:meth:`is_running_at` at the clock's time, as one call: two
        subscripts and a comparison once the machine's table keeps its
        threshold (:attr:`~repro.microvm.MachineTable.running_from`)."""
        table_of, is_running_at = self._table_of, self.is_running_at

        def is_running(machine: MachineId) -> bool:
            name = machine.name
            try:
                return clock.now >= table_of[name].running_from[name]
            except KeyError:
                return is_running_at(machine, clock.now)

        return is_running

    def create_machines(
        self, names: list[str], shells: np.ndarray, identifiers: np.ndarray, now_s: float
    ) -> None:
        """Create a batch of new machines, in order, booted at ``now_s``.

        Placement is computed for the whole batch
        (:func:`least_reserved_placement`), then every host takes its share
        as one batch: one append of rows, seeds keyed by identity, and with
        worker processes one ``CREATE`` row on the wire.
        """
        if not names:
            return
        images = np.where(shells >= 0, shells, len(self.config.shells) + identifiers)
        batch = MachineBatch(names, shells, identifiers, images, self._computes)
        placement = least_reserved_placement(
            [manager.host.reserved_memory_mib() for manager in self.managers],
            batch.column("memory_mib"),
        )
        for position in np.unique(placement).tolist():
            manager = self.managers[position]
            share = batch.take(np.flatnonzero(placement == position))
            manager.create_machines(share, now_s)
            self._machine_manager_of.update(dict.fromkeys(share.names, manager))
            self._table_of.update(dict.fromkeys(share.names, manager.host.machines))

    def create_machine(self, machine: MachineId, now_s: float) -> MachineManager:
        """Create a microVM for a machine, booted at ``now_s``, unless it exists."""
        if not self.has_machine(machine):
            shells, identifiers = np.array([machine.shell]), np.array([machine.identifier])
            self.create_machines([machine.name], shells, identifiers, now_s)
        return self.manager_for(machine)

    def create_ground_stations(self, now_s: float) -> None:
        """Create and boot the microVMs of all configured ground stations."""
        index = self.calculation.node_index
        stations = [machine_at(index, node) for node in index.ground_station_indices()]
        new = [station for station in stations if not self.has_machine(station)]
        self.create_machines(
            [station.name for station in new],
            np.full(len(new), MachineId.GROUND_SHELL),
            np.array([station.identifier for station in new], dtype=np.int64),
            now_s,
        )

    def _ensure_activated_satellites(self, record: EpochRecord, now_s: float) -> None:
        """Create microVMs for satellites that just entered the bounding box.

        Satellites active before this epoch already received their microVM
        when they first became active, so only the activated flips of the
        record (every active satellite in the first one) can require new
        machines; they are created as one batch, shell by shell, identifiers
        ascending.
        """
        names, shells, identifiers = [], [], []
        for shell, flips in record.flips.items():
            for identifier in flips[record.active[shell][flips]].tolist():
                name = satellite_name(shell, identifier)
                if name not in self._machine_manager_of:
                    names.append(name)
                    shells.append(shell)
                    identifiers.append(identifier)
        self.create_machines(names, np.array(shells), np.array(identifiers), now_s)

    def sample_all_usage(
        self, now_s: float, setup_phase: bool = False, applying_update: bool = False
    ):
        """One usage sample of every host, via the backend.

        Each host answers from its kept accounting (an O(1) reading unless a
        machine changed since the last sample, see :mod:`repro.hosts.host`),
        a loop over this coordinator's managers under either backend; worker
        processes are sent the sweep to check it.  The samples are recorded
        into the per-host resource traces.
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
        """Release the fan-out backend and reap the calculation child (idempotent).

        In process the backend has nothing to release; a closed backend
        only refuses further sweeps.  Process backend: compares the
        acknowledgements still in flight (a desync is raised here), then
        stops every worker.  The calculation child, if one was forked, is
        stopped too.  Both go through one handle and one escalation
        (:func:`~repro.dist.transport.stop`: ``SHUTDOWN``, then terminate,
        then kill, each join bounded).  A coordinator dropped unclosed
        leaves that to the backend's and the child's ``weakref.finalize``,
        which compare nothing, wait for no acknowledgement and also run at
        interpreter exit — whenever the garbage collector gets to it; an
        explicit close is the deterministic route.
        """
        try:
            self._backend.close()
        finally:
            if self._child is not None:
                self._child.close()

    # -- updates ---------------------------------------------------------------

    def update(self, now_s: float) -> ConstellationState:
        """Run one constellation update and distribute it to all hosts.

        The first epoch computes the state cold; afterwards state + diff
        are rebuilt from the calculation child's ``DIFF`` frame (module
        docstring).  Either way the epoch's record goes to every manager
        through the backend.
        """
        if self.database.has_state:
            state, diff = self._next_epoch(now_s)
        else:
            state, diff = self.calculation.state_at(now_s), None
        self.database.set_state(state, diff=diff)
        record = EpochRecord.of(self.database.epoch, state, diff)
        self._ensure_activated_satellites(record, now_s)
        # Each manager only mutates its own host's machines: counters and
        # machine states come out the same whichever backend applies.
        started = wallclock.perf_counter()
        self._backend.apply_slices(record, now_s)
        fanout_s = wallclock.perf_counter() - started
        if self.network is not None:
            if diff is None:
                self.network.mark_updated()
            else:
                self.network.apply_diff(diff)
        self.stats.record_update(fanout_s)
        self._merge_transport_latencies()
        return state

    def _next_epoch(self, now_s: float):
        """The next epoch's state and diff, rebuilt from the calculation
        child's DIFF frame; the first call forks the child from the state
        published now."""
        previous = self.database.state
        if self._child is None:
            from repro.dist.calculation import CalculationChild

            self._child = CalculationChild(
                self.calculation,
                previous,
                self.database.epoch,
                now_s,
                self.config.update_interval_s,
            )
        frame = self._child.epoch_at(now_s, self.database.epoch + 1)
        return self.calculation.state_from_replica(previous, self._child.replica, frame)

    def run_updates(self, sim: Simulation, duration_s: Optional[float] = None):
        """Simulation process running updates at the configured interval."""
        end = duration_s if duration_s is not None else self.config.duration_s
        while True:
            self.update(sim.now)
            next_update = sim.now + self.config.update_interval_s
            if next_update > end:
                return
            yield sim.timeout(self.config.update_interval_s)
