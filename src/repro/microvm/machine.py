"""The microVM machine model: one table of machines per host.

A Firecracker microVM boots in well under a second, can be suspended and
resumed, and keeps its virtio memory device allocated on the host even while
suspended (§3.2, §4.2 "Efficiency").  Celestial additionally reboots or
terminates machines through its fault-injection API to model radiation-induced
failures (§3.1).

A host's machines are one :class:`MachineTable`: a struct of columns with one
row per machine, in creation order, plus a name → row index.  Creating
machines appends rows, each booted at its batch's boot time: a machine is
never created without booting.  A lifecycle operation rewrites one row, and
a usage reading is one pass over the rows.  The table is the machine
model on both sides of the worker seam: the host a manager owns holds one,
and with worker processes the driver holds a replica, kept by the same
manager class running the same operations and records; a worker (re)starts
from the replica's columns (:meth:`MachineTable.of_columns`).
:class:`MachineView` is the read-only view of one row.

Boot times
----------

A machine's ``k``-th boot takes ``boot_time_s(default_rng(seed).random(k)[-1])``
seconds, drawn when first asked for.  :meth:`MachineTable.state_at` answers
for times at or after the machine's latest lifecycle operation, the only
times the simulation asks about: ``BOOTING`` until every boot started so far
has finished, the stored state after.  A boot started inside the previous
boot's window therefore reads ``BOOTING`` until the later of the two
finishes.  Boot bursts are not modelled: a booting machine's stored state is
already ``RUNNING``, so a usage sample never sees one mid-boot.
"""

from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.microvm.cgroups import CPUQuota, scaled_duration


class MicroVMError(RuntimeError):
    """Raised for illegal microVM state transitions."""


class MachineState(enum.Enum):
    """Lifecycle states of an emulated microVM."""

    BOOTING = "booting"
    RUNNING = "running"
    SUSPENDED = "suspended"
    STOPPED = "stopped"


#: A state's code in the table is its position in :class:`MachineState`.
#: BOOTING (0) is never stored: :meth:`MachineTable.state_at` answers it
#: inside a boot window.
_STATES = tuple(MachineState)
_RUNNING, _SUSPENDED, _STOPPED = 1, 2, 3

#: Firecracker boot time: ~125 ms plus configuration overhead (sub-second).
DEFAULT_BOOT_TIME_S = 0.35
BOOT_TIME_JITTER_S = 0.15
#: No boot takes longer: a boot started this long ago has finished.
MAX_BOOT_TIME_S = DEFAULT_BOOT_TIME_S + BOOT_TIME_JITTER_S


def boot_time_s(draw: float) -> float:
    """The boot duration of one uniform draw in [0, 1) of a machine's generator."""
    return DEFAULT_BOOT_TIME_S + draw * BOOT_TIME_JITTER_S


@dataclass(frozen=True, eq=False)
class MachineBatch:
    """Machines created together on one host, in creation order.

    ``shells`` and ``identifiers`` are the machines' identities (shell ``-1``
    is a ground station, its identifier the configuration position);
    ``images`` indexes ``computes``, the compute parameters the machines are
    built from (``vcpu_count``, ``memory_mib``, ``cpu_quota``,
    ``idle_cpu_fraction``).
    """

    names: list[str]
    shells: np.ndarray
    identifiers: np.ndarray
    images: np.ndarray
    computes: tuple[Any, ...]

    @classmethod
    def single(cls, name: str, shell: int, identifier: int, compute) -> "MachineBatch":
        """A batch of one machine."""
        return cls([name], np.array([shell]), np.array([identifier]), np.zeros(1, int), (compute,))

    def __len__(self) -> int:
        return len(self.names)

    def column(self, field: str) -> np.ndarray:
        """One compute parameter per machine."""
        values = np.array([getattr(compute, field) for compute in self.computes])
        return values[self.images]

    def take(self, indices: np.ndarray) -> "MachineBatch":
        """The machines at ``indices``, in that order."""
        return MachineBatch(
            [self.names[index] for index in indices.tolist()],
            self.shells[indices],
            self.identifiers[indices],
            self.images[indices],
            self.computes,
        )


class Usage(NamedTuple):
    """A table's usage reading: cores (not yet clamped to the host), memory, booted count."""

    cpu_cores: float
    memory_mib: float
    booted: int


class MachineTable(Mapping):
    """The machines of one host: one row each, in creation order.

    The columns are public: ``names`` a list, the others typed arrays
    (``shells``, ``identifiers``, ``vcpus``, ``memory_mib``, ``quota``,
    ``busy``, ``seeds``, ``states``, ``boot_counts``, ``boot_started_s``,
    ``held_until_s``), so a row costs a few dozen bytes and a scalar read
    is a Python number, never a NumPy scalar.  Every write goes through a
    method, which drops the kept usage reading and, if it changes the
    row's state or boot, the row's kept liveness threshold
    (:attr:`running_from`).  As a mapping the table is name →
    :class:`MachineView`, in creation order.
    """

    #: The columns a row consists of, in the order :meth:`take` returns them.
    COLUMNS = (
        "names",
        "shells",
        "identifiers",
        "vcpus",
        "memory_mib",
        "quota",
        "busy",
        "seeds",
        "states",
        "boot_counts",
        "boot_started_s",
        "held_until_s",
        "_finished_s",
    )

    def __init__(self) -> None:
        self._rows: dict[str, int] = {}
        self.names: list[str] = []
        self.shells = array("i")
        self.identifiers = array("i")
        self.vcpus = array("i")
        self.memory_mib = array("q")
        self.quota = array("d")
        #: The share of its vCPUs a running machine keeps busy: the idle
        #: fraction of its compute parameters until a workload reports one.
        self.busy = array("d")
        self.seeds = array("q")
        self.states = array("b")
        self.boot_counts = array("i")
        self.boot_started_s = array("d")
        #: The latest finish of the earlier boots still running when the
        #: latest one started: the machine reads BOOTING until then.
        self.held_until_s = array("d")
        # The latest boot's finish once drawn, NaN before.
        self._finished_s = array("d")
        #: Running total over the rows.
        self.reserved_memory_mib = 0
        self._usage: Optional[Usage] = None
        #: name → the earliest time ``state_at`` reads RUNNING for the row as
        #: it is: ``inf`` unless the stored state is RUNNING, else the end of
        #: the boot window.  Filled by a row's first :meth:`is_running_at`,
        #: dropped by every write to the row's state or boot.
        self.running_from: dict[str, float] = {}

    # -- the mapping: name → view ------------------------------------------

    def __getitem__(self, name: str) -> "MachineView":
        if name not in self._rows:
            raise KeyError(name)
        return MachineView(self, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._rows

    def state(self, name: str) -> MachineState:
        """A machine's stored lifecycle state."""
        return _STATES[self.states[self._rows[name]]]

    def scaled_duration(self, name: str, nominal_seconds: float, parallelism: int) -> float:
        """:func:`~repro.microvm.cgroups.scaled_duration` under a machine's row."""
        row = self._rows[name]
        return scaled_duration(nominal_seconds, self.vcpus[row], self.quota[row], parallelism)

    def identity(self, name: str) -> tuple[int, int]:
        """A machine's shell (``-1``: a ground station) and identifier."""
        row = self._rows[name]
        return self.shells[row], self.identifiers[row]

    # -- rows ------------------------------------------------------------------

    @classmethod
    def of_columns(cls, columns: Sequence[Sequence]) -> "MachineTable":
        """A table of these rows: one sequence of values per column, in :attr:`COLUMNS` order."""
        table = cls()
        for column, values in zip(cls.COLUMNS, columns):
            getattr(table, column).extend(values)
        table._rows = {name: row for row, name in enumerate(table.names)}
        table.reserved_memory_mib = sum(table.memory_mib)
        return table

    def append(self, batch: MachineBatch, seeds: Sequence[int], boot_s: float) -> None:
        """Add a batch's rows, booted at ``boot_s``."""
        count = len(batch)
        start = len(self.names)
        self._rows.update(zip(batch.names, range(start, start + count)))
        self.names.extend(batch.names)
        self.shells.extend(batch.shells.tolist())
        self.identifiers.extend(batch.identifiers.tolist())
        memory = batch.column("memory_mib")
        self.vcpus.extend(batch.column("vcpu_count").tolist())
        self.memory_mib.extend(memory.tolist())
        self.quota.extend(batch.column("cpu_quota").tolist())
        self.busy.extend(batch.column("idle_cpu_fraction").tolist())
        self.seeds.extend(seeds)
        self.states.extend([_RUNNING] * count)
        self.boot_counts.extend([1] * count)
        self.boot_started_s.extend([boot_s] * count)
        self.held_until_s.extend([0.0] * count)
        self._finished_s.extend([math.nan] * count)
        self.reserved_memory_mib += int(memory.sum())
        self._usage = None

    def take(self, name: str) -> tuple:
        """Remove a machine's row and return its values (for :meth:`put`)."""
        row = self._rows.pop(name)
        self.running_from.pop(name, None)
        values = tuple(getattr(self, column).pop(row) for column in self.COLUMNS)
        for later in self.names[row:]:
            self._rows[later] -= 1
        self.reserved_memory_mib -= values[4]
        self._usage = None
        return values

    def put(self, values: tuple) -> None:
        """Append a row :meth:`take` returned, on this table."""
        self._rows[values[0]] = len(self.names)
        for column, value in zip(self.COLUMNS, values):
            getattr(self, column).append(value)
        self.reserved_memory_mib += values[4]
        self._usage = None

    # -- lifecycle ---------------------------------------------------------------

    def _refuse(self, row: int, action: str) -> MicroVMError:
        return MicroVMError(f"cannot {action} machine in state {_STATES[self.states[row]].value}")

    def _set(self, row: int, code: int) -> None:
        self.states[row] = code
        self._usage = None
        self.running_from.pop(self.names[row], None)

    def suspend(self, name: str) -> None:
        """Suspend a running machine (bounding-box exit); memory stays allocated."""
        row = self._rows[name]
        if self.states[row] != _RUNNING:
            raise self._refuse(row, "suspend")
        self._set(row, _SUSPENDED)

    def resume(self, name: str) -> None:
        """Resume a suspended machine (bounding-box re-entry)."""
        row = self._rows[name]
        if self.states[row] != _SUSPENDED:
            raise self._refuse(row, "resume")
        self._set(row, _RUNNING)

    def stop(self, name: str) -> None:
        """Shut a machine down (fault injection: full shutdown)."""
        row = self._rows[name]
        if self.states[row] == _STOPPED:
            raise self._refuse(row, "stop")
        self._set(row, _STOPPED)

    def reboot(self, name: str, now_s: float) -> None:
        """Stop a machine unless it is stopped, then boot it."""
        row = self._rows[name]
        # A boot inside the previous one's window draws that finish now: the
        # machine reads BOOTING until the later of the two.
        if now_s < self.boot_started_s[row] + MAX_BOOT_TIME_S:
            self.held_until_s[row] = max(self.held_until_s[row], self._finish(row))
        self.boot_counts[row] += 1
        self.boot_started_s[row] = now_s
        self._finished_s[row] = math.nan
        self._set(row, _RUNNING)

    def follow_activity(self, name: str, active: bool) -> Optional[MachineState]:
        """Suspend a running machine outside the bounding box, resume a
        suspended one inside it; the state it took, or ``None``."""
        row = self._rows.get(name)
        if row is None:
            return None
        code = self.states[row]
        if code == _RUNNING and not active:
            code = _SUSPENDED
        elif code == _SUSPENDED and active:
            code = _RUNNING
        else:
            return None
        self._set(row, code)
        return _STATES[code]

    def set_quota(self, name: str, quota_fraction: float) -> None:
        """Change a machine's CPU quota (fraction in (0, 1])."""
        CPUQuota._validate_fraction(quota_fraction)
        self.quota[self._rows[name]] = quota_fraction
        self._usage = None

    def set_busy(self, name: str, fraction: float) -> None:
        """Report how busy a machine's workload keeps its vCPUs (0..1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("busy fraction must be in [0, 1]")
        self.busy[self._rows[name]] = fraction
        self._usage = None

    # -- boot times --------------------------------------------------------------

    def _finish(self, row: int) -> float:
        finished = self._finished_s[row]
        if math.isnan(finished):
            draws = np.random.default_rng(self.seeds[row]).random(self.boot_counts[row])
            finished = self.boot_started_s[row] + boot_time_s(float(draws[-1]))
            self._finished_s[row] = finished
        return finished

    def boot_finished_at_s(self, name: str) -> float:
        """When a machine's latest boot finishes."""
        return self._finish(self._rows[name])

    def _booting(self, row: int, time_s: float) -> bool:
        return time_s < self.boot_started_s[row] + MAX_BOOT_TIME_S and (
            time_s < self.held_until_s[row] or time_s < self._finish(row)
        )

    def state_at(self, name: str, time_s: float) -> MachineState:
        """A machine's state at ``time_s``, no earlier than its latest operation."""
        row = self._rows[name]
        if self._booting(row, time_s):
            return MachineState.BOOTING
        return _STATES[self.states[row]]

    def is_running_at(self, name: str, time_s: float) -> bool:
        """Whether ``state_at(name, time_s)`` is ``RUNNING``: the per-message
        check, one lookup of the row's :attr:`running_from` and one comparison."""
        running_from = self.running_from.get(name)
        if running_from is None:
            row = self._rows[name]
            running_from = math.inf
            if self.states[row] == _RUNNING:
                running_from = min(
                    self.boot_started_s[row] + MAX_BOOT_TIME_S,
                    max(self.held_until_s[row], self._finish(row)),
                )
            self.running_from[name] = running_from
        return time_s >= running_from

    # -- accounting ----------------------------------------------------------------

    def usage(self) -> Usage:
        """The kept usage reading, recomputed when anything it depends on changed.

        One pass over the rows in creation order, adding one value at a
        time, so the values carry the same bits whenever they are computed:
        a running machine uses its vCPUs × busy share × quota, a booted
        (running or suspended) one holds its memory.
        """
        if self._usage is None:
            self._usage = self._read_usage()
        return self._usage

    def _read_usage(self) -> Usage:
        cores = memory = 0.0
        booted = 0
        for code, vcpus, busy, quota, memory_mib in zip(
            self.states, self.vcpus, self.busy, self.quota, self.memory_mib
        ):
            if code == _RUNNING:
                cores += vcpus * busy * quota
            elif code != _SUSPENDED:
                continue
            memory += memory_mib
            booted += 1
        return Usage(cores, memory, booted)


class MachineView:
    """The read-only view of one machine's row; change a machine through its manager.

    ``Celestial.machine`` hands these out under either backend: with worker
    processes the row is the driver's replica of the worker's.
    """

    __slots__ = ("_table", "name")

    def __init__(self, table: MachineTable, name: str):
        self._table = table
        self.name = name

    def _column(self, column: str):
        return getattr(self._table, column)[self._table._rows[self.name]]

    @property
    def state(self) -> MachineState:
        """The machine's current lifecycle state."""
        return self._table.state(self.name)

    def state_at(self, time_s: float) -> MachineState:
        """The machine's state at ``time_s``, no earlier than its latest operation."""
        return self._table.state_at(self.name, time_s)

    @property
    def boot_finished_at_s(self) -> float:
        """When the latest boot finishes."""
        return self._table.boot_finished_at_s(self.name)

    @property
    def cpu_quota(self) -> CPUQuota:
        """A copy of the machine's CPU quota."""
        return CPUQuota(self._column("vcpus"), self._column("quota"))

    @property
    def memory_mib(self) -> int:
        """The memory the machine reserves on its host."""
        return self._column("memory_mib")

    @property
    def seed(self) -> int:
        """The seed of the machine's boot-time generator."""
        return self._column("seeds")
