"""No test module leaves a process behind.

A testbed forks worker processes and a calculation child, and closing it
stops them.  At the end of every test module, each child of the pytest
process still there — running or a zombie — is reaped, and the module fails
naming their pids.  ``benchmarks/conftest.py`` runs the same check.
"""

import os
import signal
from pathlib import Path

import pytest


def children() -> list[int]:
    """The pids whose parent is this process, zombies included: the ppid
    field of every ``/proc/<pid>/stat`` (none where there is no ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name in parentheses may hold spaces: split after it.
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]
        except OSError:  # it ended while the scan ran
            continue
        if int(ppid) == os.getpid():
            found.append(int(stat.parent.name))
    return sorted(found)


@pytest.fixture(scope="module", autouse=True)
def no_leaked_children():
    yield
    leaked = children()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    assert not leaked, f"child processes outlived their test module: {leaked}"
