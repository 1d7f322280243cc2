"""One reader and one writer for every table a run reads.

The configuration file, an experiment spec and every ``params`` table are
bound to a *schema* — a dataclass's fields or a function's signature, with
annotations and defaults.  An unknown key, a missing required one or a
value of the wrong type is an error naming its dotted path and the type it
must have.  Only what the file format writes differently is converted: an
integer to a float (never a bool), a list to a tuple, a table to a nested
dataclass, an ISO string to an :class:`~repro.orbits.Epoch`, and the keys
of a :data:`FLAT` field (a ground station's location) sit in its parent's.

:func:`write` is the inverse of :func:`read` and :func:`render` its one TOML
writer: a :class:`Table` (the configuration, a spec) gets ``to_dict`` /
``to_toml`` / ``from_dict`` / ``from_path`` from them, so what is written is read.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import tomllib
import types
import typing
from datetime import datetime
from pathlib import Path
from typing import Any, Literal, Mapping, Union

from repro.orbits import Epoch


class ConfigurationError(ValueError):
    """Raised when a configuration is inconsistent or incomplete."""


#: Field metadata of a nested dataclass whose keys sit in its parent's table.
FLAT = {"flat": True}

_HOSTS = ("inter_host_latency_ms", "coordinator_cores", "coordinator_memory_mib")
_NO_OVERLAY = (
    "hosts are an accounting construct (placement and usage only, no overlay "
    "between them and no coordinator machine)"
)
_MACHINE = "a machine is its vCPUs, memory, CPU quota and idle CPU share"
#: Keys earlier versions read, by dotted path, with why they went.
REMOVED = {
    **{f"hosts.{key}": _NO_OVERLAY for key in _HOSTS},
    **dict.fromkeys(("shells.compute.disk_mib", "ground_stations.compute.disk_mib"), _MACHINE),
    "runtime.transport": "worker processes are always reached over TCP "
    "(loopback for the ones the run spawns)",
    "serve.all_pairs": "every path row is solved on demand",
}

#: How an error names the type a value must have.
_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}
_NAMES |= {dict: "a table", tuple: "a list", Epoch: "an ISO 8601 date-time string"}


class Table:
    """A dataclass that is one whole file, read and written by this module."""

    error = ConfigurationError  # what a malformed table or file raises

    def to_dict(self) -> dict[str, Any]:
        """The plain table of every field (:func:`write`); ``None`` is ``null``."""
        return write(self)

    def to_toml(self) -> str:
        """The TOML text of :meth:`to_dict`, a ``None`` field left out (:func:`render`)."""
        return render(write(self, nulls=False), self.error)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """The value ``data`` holds, every key and type checked (:func:`read`)."""
        return read(cls, data, error=cls.error)

    @classmethod
    def from_path(cls, path) -> Any:
        """The value a ``.toml`` or ``.json`` file holds (by suffix)."""
        return cls.from_dict(load(path, cls.error))


def load(path, error: type = ConfigurationError) -> Any:
    """The table a ``.toml`` or ``.json`` file holds, the format chosen by suffix."""
    parse = {".toml": tomllib.load, ".json": json.load}.get(Path(path).suffix)
    if parse is None:
        raise error(f"unsupported file suffix: {str(path)!r} (expected .toml or .json)")
    with open(path, "rb") as handle:
        return parse(handle)


def read(cls: type, table: Any, path: str = "", error: type = ConfigurationError) -> Any:
    """The dataclass ``cls`` built from ``table``; a ``ValueError`` it raises names ``path``."""
    arguments = bind(cls, table, path, error)
    try:
        return cls(**arguments)
    except ValueError as failure:
        raise error(f"{path}: {failure}" if path else str(failure)) from failure


def bind(
    schema: Any, table: Any, path: str = "", error: type = ConfigurationError, given=()
) -> dict[str, Any]:
    """The keyword arguments ``table`` gives ``schema``, each checked and converted.

    ``schema`` is a dataclass or a callable; ``given`` names the parameters
    its caller passes itself, which the table may not set.  A key absent
    from the table is absent from the result: the schema's default holds.
    """
    if not isinstance(table, Mapping):
        raise error(f"{path or 'the top level'} must be a table, not {table!r}")
    parameters = _parameters(schema, given)
    known = [
        key
        for name, (annotation, _, flat) in parameters.items()
        for key in (_parameters(annotation) if flat else [name])
    ]
    for key in table:
        dotted = f"{path}.{key}" if path else key
        if dotted in REMOVED:
            raise error(f"{dotted} was removed: {REMOVED[dotted]}; delete the key")
        if key not in known:
            raise error(f"unknown key {dotted!r} (known: {', '.join(known) or 'none'})")
    arguments = {}
    for name, (annotation, required, flat) in parameters.items():
        dotted = f"{path}.{name}" if path else name
        if flat:
            inner = {key: table[key] for key in _parameters(annotation) if key in table}
            arguments[name] = read(annotation, inner, path, error)
        elif name in table:
            arguments[name] = _value(annotation, table[name], dotted, error)
        elif required:
            raise error(f"{dotted} is required")
    return arguments


def _parameters(schema: Any, given=()) -> dict[str, tuple[Any, bool, bool]]:
    """``name -> (annotation, required, flat)`` of each parameter a table may set."""
    hints = typing.get_type_hints(schema)
    fields = dataclasses.fields(schema) if dataclasses.is_dataclass(schema) else ()
    flat = {spec.name for spec in fields if spec.metadata.get("flat")}
    return {
        name: (hints.get(name, Any), parameter.default is parameter.empty, name in flat)
        for name, parameter in inspect.signature(schema).parameters.items()
        if name not in given
        and parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
    }


def _value(annotation: Any, value: Any, path: str, error: type) -> Any:
    """``value`` read as an ``annotation``; a mismatch is an ``error`` naming ``path``."""
    origin, arguments = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation is Any:
        return value
    if origin in (Union, types.UnionType):  # Optional[X]
        if value is None and type(None) in arguments:
            return None
        (inner,) = [argument for argument in arguments if argument is not type(None)]
        return _value(inner, value, path, error)
    if origin is Literal:
        if any(value == choice and type(value) is type(choice) for choice in arguments):
            return value
        choices = ", ".join(repr(choice) for choice in arguments)
        raise error(f"{path} must be one of {choices}, not {value!r}")
    expected = _NAMES.get(origin or annotation) or (
        "a table" if dataclasses.is_dataclass(annotation) else f"a {annotation.__name__}"
    )
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_value(arguments[0], item, path, error) for item in value)
    elif isinstance(value, bool) and annotation is not bool:
        pass  # true is not 1
    elif annotation is float and isinstance(value, int):
        return float(value)
    elif isinstance(value, origin or annotation):
        return dict(value) if annotation is dict or origin is dict else value
    elif annotation is Epoch and isinstance(value, str):
        try:
            return Epoch(datetime.fromisoformat(value))
        except ValueError:
            pass
    elif dataclasses.is_dataclass(annotation) and isinstance(value, Mapping):
        return read(annotation, value, path, error)
    raise error(f"{path} must be {expected}, not {value!r}")


def write(value: Any, nulls: bool = True) -> Any:
    """The plain table :func:`read` turns back into ``value``.

    Every field is written, in field order (a :data:`FLAT` field's keys in
    its parent's table); an :class:`Epoch` becomes its ISO string, a tuple a
    list, and a mapping's keys are sorted.  ``nulls=False`` leaves out a
    field whose value is ``None``; a ``None`` in a mapping or a list stays.
    """
    if isinstance(value, Epoch):
        return value.start.isoformat()
    if dataclasses.is_dataclass(value):
        table = {}
        for spec in dataclasses.fields(value):
            item = getattr(value, spec.name)
            if item is not None or nulls:
                flat = spec.metadata.get("flat")
                table.update(write(item, nulls) if flat else {spec.name: write(item, nulls)})
        return table
    if isinstance(value, Mapping):
        return {key: write(value[key], nulls) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [write(item, nulls) for item in value]
    return value


def render(table: Mapping[str, Any], error: type = ConfigurationError, path: str = "") -> str:
    """TOML text that :mod:`tomllib` parses back to ``table`` exactly.

    A table's values come first, then its tables and lists of tables under
    dotted headers.  TOML has no null: a ``None`` is an ``error`` naming its
    dotted path, as is a value of a type TOML cannot hold.
    """
    lines, nested = [], []
    for key, value in table.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, Mapping):
            nested.append((f"[{dotted}]", dotted, value))
        elif value and isinstance(value, list) and all(isinstance(row, Mapping) for row in value):
            nested += [(f"[[{dotted}]]", dotted, item) for item in value]
        else:
            lines.append(f"{key} = {_toml(value, dotted, error)}\n")
    for header, dotted, inner in nested:
        lines.append(f"\n{header}\n{render(inner, error, dotted)}")
    return "".join(lines).lstrip("\n")


def _toml(value: Any, path: str, error: type) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):  # repr: the shortest float that reads back
        return (int if isinstance(value, int) else float).__repr__(value)
    if isinstance(value, str):
        return json.dumps(value)  # JSON's escapes are TOML basic-string escapes
    if isinstance(value, list):
        return "[" + ", ".join(_toml(item, path, error) for item in value) + "]"
    if value is None:
        raise error(f"{path} is None, and TOML has no null")
    raise error(f"{path}: cannot write {type(value).__name__} as TOML")
