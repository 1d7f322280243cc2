"""Finalisers are a reviewed list, and none of them joins a thread.

A ``__del__`` runs wherever the garbage collector happens to fire — on any
thread, holding whatever that thread holds.  One that joined a thread pool
deadlocked roughly one full test run in ten (PR 20), so the rule of this
code base is: a finaliser never waits for a thread, nor for a worker's
acknowledgement.  In pure ``ast`` (the code under test is not imported):
the classes of ``src/repro`` that define ``__del__`` are exactly the two
below, and nothing a finaliser reaches through ``self.<method>()`` inside
its own class calls ``.shutdown(``, collects acknowledgements
(``collect`` / ``_collect`` / ``worker_counters``) or calls a ``.join(``
other than ``str.join`` and the *process* joins of
``WorkerSupervisor.close`` — ``<...>.process.join(timeout=...)``, bounded,
and on a child process rather than a thread.  At run time, a process
backend dropped with requests in flight collects none of them.
"""

import ast
import gc
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"
FINALISING_CLASSES = {"ProcessFanoutBackend", "WorkerSupervisor"}
#: What reads worker acknowledgements: only an explicit call may wait for one.
COLLECTING = {"collect", "_collect", "worker_counters"}


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


def test_the_classes_with_a_finaliser_are_the_reviewed_two():
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
    # The walk saw the joins it exists to judge (WorkerSupervisor.close's three).
    assert checked >= 3


def test_a_backend_dropped_with_requests_in_flight_collects_none(monkeypatch):
    from repro.core import MachineManager
    from repro.dist.backend import ProcessFanoutBackend
    from repro.dist.supervisor import WorkerSupervisor
    from repro.hosts import Host

    collected = []
    monkeypatch.setattr(WorkerSupervisor, "collect", lambda self, worker: collected.append(worker))
    manager = MachineManager(Host(index=0, allow_memory_overcommit=True))
    backend = ProcessFanoutBackend([manager], worker_count=1)
    supervisor = backend.supervisor
    backend.sample_all(0.0)
    backend.sample_all(1.0)
    assert len(supervisor._handles[0].inflight) == 2
    process = supervisor._handles[0].process
    del backend
    gc.collect()
    assert collected == []
    assert not process.is_alive()  # the finaliser joined the pool all the same
    supervisor.close()  # the interpreter-exit hook: it collects nothing either
    assert collected == []
