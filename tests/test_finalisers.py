"""Every process the testbed forks has one reaper, and nothing it runs waits unboundedly.

A ``__del__`` runs wherever the garbage collector happens to fire — on any
thread, holding whatever that thread holds.  One that joined a thread pool
deadlocked roughly one full test run in ten (PR 20), so the rule of this
code base is: a finaliser never waits for a thread, nor for a worker's
acknowledgement.  The worker pool and the calculation child are reaped by
``weakref.finalize`` (which also runs at interpreter exit) calling the one
escalation, :func:`repro.dist.transport.stop`.  In pure ``ast`` (the code
under test is not imported): no class of ``src/repro`` defines ``__del__``,
nothing registers an ``atexit`` hook or imports ``multiprocessing``, the
only ``os.fork`` is :func:`repro.dist.transport.fork`, and every ``.join(``
in ``stop`` is a bounded ``process.join(timeout=...)`` — on a child
process, never a thread.  At run time, a process backend dropped with
requests in flight collects none of them and is stopped all the same, a
dropped coordinator leaves no live child, neither a pool nor a child left
open outlives the interpreter, and a closed testbed, its coordinator and
its simulation are freed by reference counting alone.
"""

import ast
import gc
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"
#: What reads worker acknowledgements: only an explicit call may wait for one.
COLLECTING = {"_collect", "_collect_from", "worker_counters"}


def _trees():
    for path in sorted(SOURCE.rglob("*.py")):
        yield path.relative_to(SOURCE).as_posix(), ast.parse(path.read_text())


def _calls(tree, receiver: str, attribute: str) -> list[ast.Call]:
    """The calls ``<receiver>.<attribute>(...)`` in ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attribute
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == receiver
    ]


def test_no_del_no_atexit_hook_and_no_multiprocessing():
    offences = []
    for where, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__del__":
                offences.append(f"{where}:{node.lineno} defines __del__")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names
                ]
                if any(name and name.split(".")[0] == "multiprocessing" for name in names):
                    offences.append(f"{where}:{node.lineno} imports multiprocessing")
        for call in _calls(tree, "atexit", "register"):
            offences.append(f"{where}:{call.lineno} registers an atexit hook")
    assert not offences, "\n".join(offences)


def test_every_fork_goes_through_the_one_fork():
    forks = [
        f"{where}:{call.lineno}" for where, tree in _trees() for call in _calls(tree, "os", "fork")
    ]
    inside = _calls(_function("dist/transport.py", "fork"), "os", "fork")
    assert forks == [f"dist/transport.py:{call.lineno}" for call in inside] and len(forks) == 1


def _function(where: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(ast.parse((SOURCE / where).read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"{where} has no {name}")


def test_the_one_escalation_joins_only_the_process_and_bounded():
    calls = [
        call
        for call in ast.walk(_function("dist/transport.py", "stop"))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in {"join", "shutdown", *COLLECTING}
    ]
    assert len(calls) == 3
    for call in calls:
        receiver = call.func.value
        assert call.func.attr == "join" and isinstance(receiver, ast.Name)
        assert receiver.id == "process" and [k.arg for k in call.keywords] == ["timeout"]


def test_a_backend_dropped_with_requests_in_flight_collects_none(monkeypatch):
    import weakref

    from repro.core import MachineManager
    from repro.dist.backend import ProcessFanoutBackend
    from repro.hosts import Host

    collected = []
    monkeypatch.setattr(
        ProcessFanoutBackend, "_collect_from", lambda self, handle: collected.append(handle)
    )
    manager = MachineManager(Host(index=0, allow_memory_overcommit=True))
    backend = ProcessFanoutBackend([manager], worker_count=1)
    backend.sample_all(0.0)
    backend.sample_all(1.0)
    assert len(backend._handles[0].inflight) == 2
    # The manager's sink holds its worker's batch, not the pool.
    assert manager.sink.func.__self__ is backend._handles[0].control
    process = backend._handles[0].process
    dropped = weakref.ref(backend)
    del backend
    gc.collect()
    assert dropped() is None  # nothing kept the pool alive
    assert collected == []
    assert not process.is_alive()  # the finaliser stopped the pool all the same


def _forked_coordinator(parallelism: str = "threads"):
    from repro.core import (
        ConstellationCalculation,
        ConstellationDatabase,
        Coordinator,
        MachineManager,
    )
    from repro.hosts import Host
    from repro.scenarios import dart_configuration

    config = dart_configuration("central", buoy_count=2, sink_count=2, update_interval_s=2.0)
    coordinator = Coordinator(
        config,
        ConstellationCalculation(config),
        ConstellationDatabase(),
        [MachineManager(Host(index=0, allow_memory_overcommit=True))],
        parallelism=parallelism,
    )
    coordinator.update(0.0)
    coordinator.update(2.0)  # the first differential update forks the child
    return coordinator, coordinator._child.process


def test_a_coordinator_dropped_unclosed_leaves_no_live_child():
    import os
    import weakref

    import pytest

    coordinator, process = _forked_coordinator()
    assert process.is_alive()
    dropped = weakref.ref(coordinator)
    del coordinator
    gc.collect()
    assert dropped() is None
    assert not process.is_alive()
    with pytest.raises(ProcessLookupError):
        os.kill(process.pid, 0)  # reaped, not a zombie


def test_a_closed_testbed_and_its_coordinator_are_freed_without_the_collector():
    import weakref

    from repro.core.testbed import Celestial
    from repro.scenarios import dart_configuration

    config = dart_configuration("central", buoy_count=2, sink_count=2, update_interval_s=2.0)
    testbed = Celestial(config)
    gc.disable()
    try:
        testbed.run(6.0)  # mid-run: both loops wait on a timeout
        process = testbed.coordinator._child.process
        testbed.close()
        dropped = [weakref.ref(item) for item in (testbed, testbed.coordinator, testbed.sim)]
        del testbed
        assert [ref() for ref in dropped] == [None, None, None]
    finally:
        gc.enable()
    assert not process.is_alive()


def test_interpreter_exit_reaps_a_pool_and_a_child_left_open():
    import os
    import subprocess
    import sys

    import pytest

    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_finalisers as t; "
        "coordinator, child = t._forked_coordinator('processes'); "
        "print(child.pid, *(h.process.pid for h in coordinator._backend._handles), flush=True)"
    )
    tests = str(Path(__file__).resolve().parent)
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), tests]))
    finished = subprocess.run(
        [sys.executable, "-c", script, tests],
        capture_output=True, text=True, timeout=120, env=environment, check=True,
    )
    pids = [int(pid) for pid in finished.stdout.split()]
    assert len(pids) == 2  # the calculation child and the pool's one worker
    # Reaped before the interpreter was gone: no orphan is left to end by
    # itself a second later (and be a zombie until someone reaps it).
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
