"""Finalisers are a reviewed list, and none of them joins a thread.

A ``__del__`` runs wherever the garbage collector happens to fire — on any
thread, holding whatever that thread holds.  One that joined a thread pool
deadlocked roughly one full test run in ten (PR 20), so the rule of this
code base is: a finaliser never waits for a thread, nor for a worker's
acknowledgement.  In pure ``ast`` (the code under test is not imported):
the classes of ``src/repro`` that define ``__del__`` are exactly the one
below, and nothing a finaliser reaches through ``self.<method>()`` inside
its own class calls ``.shutdown(``, collects acknowledgements
(``_collect`` / ``_collect_from`` / ``worker_counters``) or calls a
``.join(`` other than ``str.join`` and the *process* joins of
``ProcessFanoutBackend._join`` — ``<...>.process.join(timeout=...)``,
bounded, and on a child process rather than a thread.  At run time, a
process backend dropped with requests in flight collects none of them, the
interpreter-exit hook collects none either, and neither keeps a dropped
pool alive.
"""

import ast
import gc
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"
FINALISING_CLASSES = {"ProcessFanoutBackend"}
#: What reads worker acknowledgements: only an explicit call may wait for one.
COLLECTING = {"_collect", "_collect_from", "worker_counters"}


def _classes():
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield path, node


def _methods(class_node):
    return {
        node.name: node
        for node in class_node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _reached_from_del(class_node):
    """The class's own methods ``__del__`` reaches through ``self.<name>(...)``."""
    methods = _methods(class_node)
    reached, frontier = set(), ["__del__"]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in methods:
            continue
        reached.add(name)
        for node in ast.walk(methods[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                frontier.append(node.func.attr)
    return [methods[name] for name in sorted(reached)]


def _is_bounded_process_join(call):
    receiver = call.func.value
    return (
        isinstance(receiver, ast.Attribute)
        and receiver.attr == "process"
        and any(keyword.arg == "timeout" for keyword in call.keywords)
    )


def _is_str_join(call):
    receiver = call.func.value
    return isinstance(receiver, ast.Constant) and isinstance(receiver.value, str)


def test_the_classes_with_a_finaliser_are_the_reviewed_one():
    finalising = {
        node.name: path.relative_to(SOURCE).as_posix()
        for path, node in _classes()
        if "__del__" in _methods(node)
    }
    assert set(finalising) == FINALISING_CLASSES, finalising
    assert "GatewayServer" not in finalising  # it owns a thread: stop() joins it, nothing else


def test_no_finaliser_waits_for_a_thread():
    offences = []
    checked = 0
    for path, class_node in _classes():
        if class_node.name not in FINALISING_CLASSES:
            continue
        for method in _reached_from_del(class_node):
            for call in ast.walk(method):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                    continue
                where = f"{path.name}:{call.lineno} {class_node.name}.{method.name}"
                if call.func.attr == "shutdown":
                    offences.append(f"{where} calls .shutdown(")
                elif call.func.attr in COLLECTING:
                    offences.append(f"{where} collects acknowledgements")
                elif call.func.attr == "join":
                    checked += 1
                    if not (_is_str_join(call) or _is_bounded_process_join(call)):
                        offences.append(f"{where} calls .join( on something that may be a thread")
    assert not offences, "\n".join(offences)
    # The walk saw the joins it exists to judge (ProcessFanoutBackend._join's three).
    assert checked >= 3


def test_a_backend_dropped_with_requests_in_flight_collects_none(monkeypatch):
    import weakref

    from repro.core import MachineManager
    from repro.dist import backend as backend_module
    from repro.dist.backend import ProcessFanoutBackend
    from repro.hosts import Host

    collected = []
    monkeypatch.setattr(
        ProcessFanoutBackend, "_collect_from", lambda self, handle: collected.append(handle)
    )

    def pool_with_two_in_flight():
        manager = MachineManager(Host(index=0, allow_memory_overcommit=True))
        backend = ProcessFanoutBackend([manager], worker_count=1)
        backend.sample_all(0.0)
        backend.sample_all(1.0)
        assert len(backend._handles[0].inflight) == 2
        # The manager's sink holds its worker's batch, not the pool.
        assert manager.sink.func.__self__ is backend._handles[0].control
        return backend, backend._handles[0].process

    backend, process = pool_with_two_in_flight()
    dropped = weakref.ref(backend)
    del backend
    gc.collect()
    assert dropped() is None  # the interpreter-exit hook kept no reference
    assert collected == []
    assert not process.is_alive()  # the finaliser joined the pool all the same
    backend, process = pool_with_two_in_flight()
    backend_module._join_live_pools()  # the interpreter-exit hook
    assert collected == []  # it collects nothing either
    assert not process.is_alive()
    backend.close()  # already joined: nothing is left to collect
    assert collected == []


def _calculation_child_stop():
    path = SOURCE / "dist" / "calculation.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "_stop":
            return node
    raise AssertionError("dist/calculation.py has no _stop")


def test_the_calculation_childs_finaliser_joins_only_the_process():
    # The child is reaped by a weakref finaliser (also run at interpreter
    # exit), not a __del__: it obeys the same rule, bounded process joins.
    joins = [
        call
        for call in ast.walk(_calculation_child_stop())
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in {"join", "shutdown", *COLLECTING}
    ]
    assert len(joins) == 3
    for call in joins:
        receiver = call.func.value
        assert call.func.attr == "join" and isinstance(receiver, ast.Name)
        assert receiver.id == "process" and [k.arg for k in call.keywords] == ["timeout"]


def _forked_coordinator():
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


def test_the_interpreter_exit_hook_reaps_the_child():
    import os
    import subprocess
    import sys

    import pytest

    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_finalisers as t; "
        "coordinator, process = t._forked_coordinator(); print(process.pid, flush=True)"
    )
    tests = str(Path(__file__).resolve().parent)
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), tests]))
    finished = subprocess.run(
        [sys.executable, "-c", script, tests],
        capture_output=True, text=True, timeout=120, env=environment, check=True,
    )
    # Reaped before the interpreter was gone: no orphan is left to end by
    # itself a second later (and be a zombie until someone reaps it).
    with pytest.raises(ProcessLookupError):
        os.kill(int(finished.stdout.split()[0]), 0)
