"""Everything ``src/repro`` defines has a reader: modules, names, members, attributes.

The rule as a test: what ``src/repro`` defines is on the pipeline, reachable
from ``repro-celestial`` / a worker / a benchmark / an example — or it is
deleted with its tests.  Pure ``ast`` (the code under test is not imported).

Modules.  Entry points are ``repro.cli``, ``repro.dist.worker`` and every
``repro.*`` import of ``bench/``, ``benchmarks/`` and ``examples/``.  ``from
package import Name`` reaches the module that defines ``Name``: a package
``__init__`` that merely re-exports a module does not make it reachable, a
``@scenario`` registration (found by name at run time) does.

Reads come from the reader corpus: the reachable modules plus ``bench/``,
``benchmarks/`` and ``examples/``, nothing under a ``tests`` directory.
``__all__`` and ``__slots__`` strings are never reads.  Three rules:

1. Module-level names.  Every function, class and constant a module of
   ``src/repro`` defines at module level, public or ``_private``, has a
   load outside its own statement: a name or attribute load, or a string
   constant naming it.  An import, a package re-export or an ``__all__``
   entry is not a load; a ``@scenario`` registration is.
2. Class members.  Every dataclass field, ``__slots__`` attribute, public
   method or property and defaulted ``__init__`` keyword has a read: an
   attribute load or a string constant naming it — so ``getattr``, dict keys
   and the benchmark's by-name patch points count.  A read of an
   ``__init__`` keyword is a call of the class (or of a subclass that
   inherits the ``__init__``, or ``super().__init__``) that passes it by
   name or by position, or passes a ``**mapping``.  Not reads: the member's
   own definition and body, and loads inside its own class's serialisers
   (:data:`OWN_SERIALISERS`).
3. ``__init__`` attributes.  Every attribute a class assigns on ``self`` in
   its ``__init__`` has an attribute load (or a string constant naming it).

The rules are name-level: a name collision can hide an unread definition,
but a definition with a read is never flagged, so no type inference is
needed.  The blind spot is a member named like a builtin method — a
``reverse``, ``remove`` or ``items`` reads as read through ``list.reverse``
and its kin — so such members are checked by hand.  What is kept without a
read is in :data:`ALLOWED`, each entry with its reason.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
MODULES = {
    ".".join(path.relative_to(SOURCE).with_suffix("").parts).removesuffix(".__init__"): path
    for path in SOURCE.glob("repro/**/*.py")
}
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}
CONSUMERS = {
    path.relative_to(ROOT): ast.parse(path.read_text())
    for directory in ("bench", "benchmarks", "examples")
    for path in sorted((ROOT / directory).rglob("*.py"))
}

#: Methods whose loads of their own class's members are not reads: they
#: only validate or serialise what the class holds.
OWN_SERIALISERS = {"__post_init__", "to_dict", "to_toml", "to_json", "from_dict", "snapshot"}

#: Definitions kept without a read, ``"Class.member": "reason"`` (a keyword
#: is spelt ``Class.keyword=``, an ``__init__`` attribute ``Class.attribute``
#: and a module-level name ``module.name``).
ALLOWED = {
    "Handler.do_GET": "framework callback: http.server dispatches GET requests to it",
    "Handler.log_message": "framework callback: overridden to silence the request log",
    "HTTPInfoServer.host=": "deployment setting: the info API's bind address",
    "HTTPInfoServer.port=": "deployment setting: the info API's port",
    "TcpTransportFactory.host=": "deployment setting: the address workers dial",
    "TcpTransportFactory.base_port=": "deployment setting: worker i dials base_port + i",
    "TcpTransportFactory.external=": "deployment setting: external-worker mode",
    "TcpTransportFactory.accept_timeout_s=": "deployment setting: external dial-in wait",
    "TcpTransportFactory.auth_secret=": "deployment setting: the workers' shared secret",
    "SubscriptionClient.auth_secret=": "deployment setting: the gateway's shared secret",
    "Celestial.transport=": "deployment setting: external-worker mode (a TcpTransportFactory)",
    "KeplerPropagator.include_j2=": "reference implementation: tests check Shell against it",
    "TwoLineElement.parse": "documented paper surface: SGP4 input from a NORAD TLE (§3.1)",
    "repro.orbits.kepler.KeplerPropagator": "reference implementation: tests check Shell against it",
    "repro.topology.uplinks.visible_satellites": "reference implementation: tests check the batch table against it",
}


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


@functools.cache
def _reachable():
    frontier = ["repro.cli", "repro.dist.worker"]
    for tree in CONSUMERS.values():
        frontier.extend(_imports(tree))
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
    return reached


def test_every_module_is_reachable_from_an_entry_point():
    reached = _reachable()
    unreachable = sorted(
        name for name in MODULES if not _is_package(name) and name not in reached
    )
    assert unreachable == []


# -- members ----------------------------------------------------------------------


def _name(node):
    """``x`` of ``x`` and of ``a.b.x``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(cls):
    return any(
        _name(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass"
        for decorator in cls.decorator_list
    )


def _members(cls):
    """The name of every member of ``cls`` the rule covers; a keyword ends in ``=``."""
    dataclass = _is_dataclass(cls)
    for node in cls.body:
        if dataclass and isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif isinstance(node, ast.Assign) and _name(node.targets[0]) == "__slots__":
            yield from (slot.value for slot in node.value.elts)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name
            elif node.name == "__init__":
                arguments = node.args
                positional = arguments.posonlyargs + arguments.args
                defaulted = positional[len(positional) - len(arguments.defaults):] + [
                    argument
                    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                    if default is not None
                ]
                yield from (f"{argument.arg}=" for argument in defaulted)


class _Reads(ast.NodeVisitor):
    """Every read of a name in one module, with the scope it happened in.

    ``names[name]`` is a set of scopes: ``None`` for a plain read, the class
    name ``C`` for a read inside ``C``'s own serialisers, and ``C.m`` for a
    read inside the body of ``C``'s member ``m``.  ``calls`` holds
    ``(callee, scope, enclosing class, positional count, keywords)`` per
    call; ``positional`` is ``inf`` under ``*args`` and ``keywords`` is
    ``None`` under ``**mapping``.  ``loads[name]`` is the set of
    module-level statements that load ``name``: a name or attribute load,
    or a string constant naming it.
    """

    def __init__(self, names, calls, loads):
        self.names = names
        self.calls = calls
        self.loads = loads
        self.classes = []
        self.scope = None
        self.statement = None

    def visit_Module(self, node):
        for statement in node.body:
            self.statement = statement
            self.visit(statement)

    def _load(self, name):
        self.loads.setdefault(name, set()).add(self.statement)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        for statement in node.body:
            assign = isinstance(statement, ast.Assign)
            if not (assign and _name(statement.targets[0]) == "__slots__"):
                self.visit(statement)
        self.classes.pop()
        for decorator in node.decorator_list + node.bases + node.keywords:
            self.visit(decorator)

    def visit_FunctionDef(self, node):
        scope = self.scope
        if self.classes and self.scope is None:
            owner = self.classes[-1]
            self.scope = owner if node.name in OWN_SERIALISERS else f"{owner}.{node.name}"
        self.generic_visit(node)
        self.scope = scope

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        if not any(_name(target) == "__all__" for target in node.targets):
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.setdefault(node.attr, set()).add(self.scope)
            self._load(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.names.setdefault(node.value, set()).add(self.scope)
            self._load(node.value)

    def visit_Call(self, node):
        callee = node.func
        if (
            isinstance(callee, ast.Attribute) and callee.attr == "__init__"
            and isinstance(callee.value, ast.Call) and _name(callee.value.func) == "super"
        ):
            callee = "super"
        else:
            callee = _name(callee)
        starred = any(isinstance(argument, ast.Starred) for argument in node.args)
        keywords = {keyword.arg for keyword in node.keywords}
        self.calls.append((
            callee, self.scope, self.classes[-1] if self.classes else None,
            float("inf") if starred else len(node.args),
            None if None in keywords else keywords,
        ))
        self.generic_visit(node)


def _unread(definitions, readers):
    """Every definition of ``definitions`` with no read in ``readers``.

    ``definitions`` maps a module name to its parsed module, ``readers`` is
    an iterable of parsed modules.  Three sorted lists: members
    ``Class.member`` (a keyword ``Class.keyword=``), module-level names
    ``module.name`` and ``__init__`` attributes ``Class.attribute``.
    """
    names, calls, loads = {}, [], {}
    for tree in readers:
        _Reads(names, calls, loads).visit(tree)
    classes = {
        node.name: node
        for tree in definitions.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    bases = {name: {_name(base) for base in cls.bases} for name, cls in classes.items()}
    members = []
    for name, cls in classes.items():
        for member in _members(cls):
            if member.endswith("="):
                read = _keyword_read(name, cls, member[:-1], classes, bases, calls)
            else:
                read = bool(names.get(member, set()) - {name, f"{name}.{member}"})
            if not read:
                members.append(f"{name}.{member}")
    module_level = [
        f"{module}.{name}"
        for module, tree in definitions.items()
        for name, statement in _module_level(tree)
        if not (_registered(statement) or loads.get(name, set()) - {statement})
    ]
    attributes = {
        f"{name}.{attribute}"
        for name, cls in classes.items() if _init(cls) is not None
        for attribute in _self_attributes(_init(cls)) if attribute not in names
    }
    return sorted(members), sorted(module_level), sorted(attributes)


def _module_level(tree):
    """``(name, statement)`` of every function, class and constant ``tree`` defines."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield statement.name, statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for node in (node for target in targets for node in ast.walk(target)):
                if isinstance(node, ast.Name) and not node.id.startswith("__"):
                    yield node.id, statement


def _registered(statement):
    """Whether ``statement`` is a ``@scenario`` factory, which the registry reads by name."""
    return any(
        isinstance(decorator, ast.Call) and _name(decorator.func) == "scenario"
        for decorator in getattr(statement, "decorator_list", ())
    )


def _self_attributes(init):
    """The name of every attribute ``init`` assigns on ``self``."""
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                yield node.attr


def _init(cls):
    """The ``__init__`` defined in the body of ``cls``, or None."""
    inits = (node for node in cls.body if isinstance(node, ast.FunctionDef))
    return next((node for node in inits if node.name == "__init__"), None)


def _keyword_read(name, cls, keyword, classes, bases, calls):
    """Whether a call of class ``name`` passes its ``__init__`` keyword ``keyword``."""
    constructors, grown = {name}, True
    while grown:  # and every subclass that inherits this __init__
        inheriting = {
            other for other, node in classes.items()
            if bases[other] & constructors and _init(node) is None
        }
        grown = not inheriting <= constructors
        constructors |= inheriting
    arguments = _init(cls).args
    positional = [argument.arg for argument in arguments.posonlyargs + arguments.args][1:]
    position = positional.index(keyword) if keyword in positional else float("inf")
    for callee, scope, enclosing, count, keywords in calls:
        if scope == name:
            continue
        if callee == "super":
            called = bool(bases.get(enclosing, set()) & constructors)
        elif callee == "cls":
            called = enclosing in constructors
        else:
            called = callee in constructors
        if called and (keywords is None or keyword in keywords or count > position):
            return True
    return False


def _readers(trees):
    """The parsed files of ``trees`` (path → tree) that hold reads: none under ``tests``."""
    return [tree for path, tree in trees.items() if "tests" not in Path(path).parts]


@functools.cache
def _unread_in_repro():
    reached = _reachable() | {name for name in MODULES if _is_package(name)}
    corpus = [TREES[name] for name in sorted(reached)] + _readers(CONSUMERS)
    return _unread(TREES, corpus)


def test_every_member_has_a_reader():
    members, _, _ = _unread_in_repro()
    assert [member for member in members if member not in ALLOWED] == []


def test_every_module_level_name_has_a_reader():
    _, names, _ = _unread_in_repro()
    assert [name for name in names if name not in ALLOWED] == []


def test_every_init_attribute_has_a_reader():
    _, _, attributes = _unread_in_repro()
    assert [attribute for attribute in attributes if attribute not in ALLOWED] == []


def test_the_allowlist_names_only_unread_members():
    unread = {definition for found in _unread_in_repro() for definition in found}
    assert sorted(set(ALLOWED) - unread) == []
    assert len(ALLOWED) <= 30
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())


SYNTHETIC = {
    "src/shapes/__init__.py": """
from shapes.point import Point, reexported
""",
    "src/shapes/point.py": """
from dataclasses import dataclass

from registry import scenario

__all__ = ["Point", "exported"]

_ORIGIN = 0.0
_UNUSED = 1.0


@dataclass
class Point:
    x: float
    serialised: float
    tested: float
    named: float

    def to_dict(self):
        return {"x": self.x - _ORIGIN, "serialised": self.serialised}

    def uncalled(self):
        return self.x


class Server:
    def __init__(self, port=0):
        self.address = ("", port)


class Client:
    def __init__(self, timeout_s=1.0):
        self.timeout_s = timeout_s


def exported():
    return exported()


def reexported():
    return Point(0.0, 0.0, 0.0, 0.0)


def unused():
    return Server()


@scenario("shapes")
def shapes_configuration():
    return Client()
""",
    "examples/draw.py": """
from shapes.point import Client, Point, Server

point = Point(1.0, 2.0, 3.0, 4.0)
print(point.x, getattr(point, "named"), point.to_dict())
options = {"port": 8080}
print(Server(**options).address)
Client()
""",
    "tests/test_point.py": """
from shapes import reexported
from shapes.point import exported, unused


def test_tested(point, client):
    assert point.tested == 3.0
    assert client.timeout_s == 1.0
    assert exported() and reexported() and unused()
""",
}


def test_the_member_walk_on_a_synthetic_module():
    trees = {path: ast.parse(text) for path, text in SYNTHETIC.items()}
    definitions = {"shapes": trees["src/shapes/__init__.py"], "shapes.point": trees["src/shapes/point.py"]}
    members, names, attributes = _unread(definitions, _readers(trees))
    assert members == ["Client.timeout_s=", "Point.serialised", "Point.tested", "Point.uncalled"]
    assert names == [
        "shapes.point._UNUSED", "shapes.point.exported", "shapes.point.reexported", "shapes.point.unused",
    ]
    assert attributes == ["Client.timeout_s"]
