"""Finalisers are a reviewed list, and none of them joins a thread.

A ``__del__`` runs wherever the garbage collector happens to fire — on any
thread, holding whatever that thread holds.  One that joined a thread pool
deadlocked roughly one full test run in ten (PR 20), so the rule of this
code base is: a finaliser never waits for a thread.  Pure ``ast`` (the code
under test is not imported): the classes of ``src/repro`` that define
``__del__`` are exactly the three below, and nothing a finaliser reaches
through ``self.<method>()`` inside its own class calls ``.shutdown(`` or a
``.join(`` other than ``str.join`` and the *process* joins of
``WorkerSupervisor.close`` — ``<...>.process.join(timeout=...)``, bounded,
and on a child process rather than a thread.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"
FINALISING_CLASSES = {"Coordinator", "ProcessFanoutBackend", "WorkerSupervisor"}


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


def test_the_classes_with_a_finaliser_are_the_reviewed_three():
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
                elif call.func.attr == "join":
                    checked += 1
                    if not (_is_str_join(call) or _is_bounded_process_join(call)):
                        offences.append(f"{where} calls .join( on something that may be a thread")
    assert not offences, "\n".join(offences)
    # The walk saw the joins it exists to judge (WorkerSupervisor.close's three).
    assert checked >= 3
