"""Every module of ``src/repro`` is reachable from an entry point.

The rule of ROADMAP item 6 as a test: a module is on the pipeline, reachable
from ``repro-celestial`` / a worker / a benchmark / an example — or it is
deleted with its tests.  Pure ``ast`` (the code under test is not imported).
Entry points are ``repro.cli``, ``repro.dist.worker`` and every ``repro.*``
import of ``bench/``, ``benchmarks/`` and ``examples/``.  ``from package
import Name`` reaches the module that defines ``Name``: a package
``__init__`` that merely re-exports a module does not make it reachable, a
``@scenario`` registration (found by name at run time) does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
MODULES = {
    ".".join(path.relative_to(SOURCE).with_suffix("").parts).removesuffix(".__init__"): path
    for path in SOURCE.glob("repro/**/*.py")
}
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _is_package(name):
    return MODULES[name].name == "__init__.py"


def _resolve(module, symbol):
    """The module ``from module import symbol`` takes ``symbol`` from."""
    if f"{module}.{symbol}" in MODULES:
        return f"{module}.{symbol}"
    if not _is_package(module):
        return module
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == symbol:
                    return _resolve(node.module, alias.name)
    return module


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            yield from (_resolve(node.module, alias.name) for alias in node.names)


def test_every_module_is_reachable_from_an_entry_point():
    frontier = ["repro.cli", "repro.dist.worker"]
    for directory in ("bench", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            frontier.extend(_imports(ast.parse(path.read_text())))
    frontier.extend(
        name for name, tree in TREES.items()
        if any(
            isinstance(decorator, ast.Call) and getattr(decorator.func, "id", "") == "scenario"
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for decorator in node.decorator_list
        )
    )
    reached = set()
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            if not _is_package(name):
                frontier.extend(_imports(TREES[name]))
    unreachable = sorted(
        name for name in MODULES if not _is_package(name) and name not in reached
    )
    assert unreachable == []
