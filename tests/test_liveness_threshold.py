"""A machine's kept liveness threshold answers as its row's predicate does.

``MachineTable.is_running_at`` is one lookup of the row's threshold — the
earliest time its current state reads ``RUNNING`` — and one comparison.
The threshold is filled on a row's first check and dropped by every write
to the row's state or boot, so it must agree, after any sequence of table
operations and at any time, with the predicate computed from the row
itself.  The oracle here is that predicate, cold: the stored state, the
boot window and the boot time drawn again from the row's seed.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import ComputeParams
from repro.microvm import MachineBatch, MachineState, MachineTable, MicroVMError
from repro.microvm.machine import MAX_BOOT_TIME_S, boot_time_s

#: Few names, so a machine taken out is often re-created under its name.
NAMES = ("m0", "m1", "m2")


def cold_running(table: MachineTable, name: str, time_s: float) -> bool:
    """``state_at(name, time_s) is RUNNING``, from the row's columns alone."""
    row = table.names.index(name)
    if table.state(name) is not MachineState.RUNNING:
        return False
    started = table.boot_started_s[row]
    draws = np.random.default_rng(table.seeds[row]).random(table.boot_counts[row])
    finish = started + boot_time_s(float(draws[-1]))
    booting = time_s < started + MAX_BOOT_TIME_S and (
        time_s < table.held_until_s[row] or time_s < finish
    )
    return not booting


def edges(table: MachineTable, name: str) -> list[float]:
    """The times a row's answer can flip at: its boot window's ends."""
    row = table.names.index(name)
    started = table.boot_started_s[row]
    return [started + MAX_BOOT_TIME_S, table.held_until_s[row], table.boot_finished_at_s(name)]


class LivenessMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = MachineTable()
        self.now = 0.0
        self.taken: list[tuple] = []

    def _present(self, data) -> str:
        return data.draw(st.sampled_from(self.table.names))

    @precondition(lambda self: len(self.table) < len(NAMES))
    @rule(data=st.data(), seed=st.integers(0, 2**31))
    def append(self, data, seed):
        name = data.draw(st.sampled_from([n for n in NAMES if n not in self.table]))
        compute = ComputeParams()
        self.table.append(MachineBatch.single(name, 0, NAMES.index(name), compute), [seed], self.now)

    @precondition(lambda self: len(self.table))
    @rule(data=st.data(), operation=st.sampled_from(["suspend", "resume", "stop"]))
    def lifecycle(self, data, operation):
        try:
            getattr(self.table, operation)(self._present(data))
        except MicroVMError:
            pass

    @precondition(lambda self: len(self.table))
    @rule(data=st.data())
    def reboot(self, data):
        self.table.reboot(self._present(data), self.now)

    @rule(name=st.sampled_from(NAMES), active=st.booleans())
    def follow_activity(self, name, active):
        self.table.follow_activity(name, active)

    @precondition(lambda self: len(self.table))
    @rule(data=st.data())
    def take(self, data):
        self.taken.append(self.table.take(self._present(data)))

    @precondition(lambda self: any(values[0] not in self.table for values in self.taken))
    @rule(data=st.data())
    def put(self, data):
        free = [values for values in self.taken if values[0] not in self.table]
        values = data.draw(st.sampled_from(free))
        self.taken.remove(values)
        self.table.put(values)

    @rule(step=st.floats(0.0, 0.6))
    def advance(self, step):
        self.now += step

    @precondition(lambda self: len(self.table))
    @rule(data=st.data(), nudge=st.sampled_from([-1, 0, 1]))
    def advance_to_an_edge(self, data, nudge):
        """Time moves to a boot window's end, or one ulp either side."""
        edge = data.draw(st.sampled_from(edges(self.table, self._present(data))))
        if nudge:
            edge = math.nextafter(edge, nudge * math.inf)
        self.now = max(self.now, edge)

    @invariant()
    def every_answer_is_the_rows_predicate(self):
        for name in self.table:
            times = [self.now, *edges(self.table, name)]
            times += [math.nextafter(time_s, -math.inf) for time_s in times]
            for time_s in times:
                assert self.table.is_running_at(name, time_s) == cold_running(
                    self.table, name, time_s
                ), (name, time_s)


LivenessMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestLivenessThreshold = LivenessMachine.TestCase
