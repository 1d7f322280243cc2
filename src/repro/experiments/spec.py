"""Typed, declarative experiment specifications.

An :class:`ExperimentSpec` captures everything one emulation run needs —
which scenario builds the :class:`~repro.core.config.Configuration`, which
fault program runs against it, which application workload drives traffic,
how the run executes (duration, fan-out backend, worker count, seed) and which
analysis outputs to emit — as one frozen value that round-trips through
TOML and JSON byte-stably.  This extends the paper's single-configuration
principle (§3.1) from the testbed to the *experiment*: parameter sweeps and
ablations become data files interpreted by one runner
(:class:`~repro.experiments.runner.ExperimentRunner`), in the spirit of the
RAFDA line of work that keeps application logic policy-free and pushes
placement/workload/fault policy into declarative configuration.

Example (``experiment.toml``)::

    name = "dart-smoke"

    [scenario]
    name = "pacific-dart"
    [scenario.params]
    buoy_count = 4
    sink_count = 8
    duration_s = 30.0

    [[fault_program]]
    kind = "operator-degradation"
    target = "iridium"

    [workload]
    app = "dart"
    [workload.params]
    deployment = "central"

    [runtime]
    parallelism = "processes"
    workers = 2

    [metrics]
    outputs = ["summary", "latency-csv"]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.core.config import ConfigurationError
from repro.core.fault_injection import FAULT_OP_KINDS


class ExperimentSpecError(ConfigurationError):
    """Raised when an experiment specification is inconsistent."""


#: Application workloads the runner knows how to execute.
KNOWN_WORKLOADS = ("meetup", "dart", "handover", "none")
#: Analysis outputs a spec may request in ``metrics.outputs``.
KNOWN_METRIC_OUTPUTS = ("summary", "latency-csv", "resource-traces", "fault-events")


#: Keys a spec no longer has, with what replaced them.
_REMOVED = {
    "runtime.transport": "worker processes are always reached over TCP "
    "(loopback for the ones the run spawns)",
    "serve.all_pairs": "every path row is solved on demand",
}


def _table(data: Any, spec_class: type, where: str) -> Mapping[str, Any]:
    """``data``, the ``where`` table of a ``spec_class``; a key that is not
    one of its fields is an :class:`ExperimentSpecError` naming it."""
    if not isinstance(data, Mapping):
        raise ExperimentSpecError(f"{where} must be a table, not {type(data).__name__}")
    known = [spec_field.name for spec_field in fields(spec_class)]
    for key in data:
        replaced = _REMOVED.get(f"{where}.{key}")
        if replaced:
            raise ExperimentSpecError(f"{where}.{key} was removed: {replaced}; delete the key")
        if key not in known:
            raise ExperimentSpecError(
                f"unknown key {key!r} in {where} (known: {', '.join(known)})"
            )
    return data


#: How an error names the type a field must have, by the type checked.
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", dict: "a table", list: "a list"}
_REQUIRED = object()


def _field(table: Mapping[str, Any], key: str, kind: type, where: str, default: Any = None) -> Any:
    """``table[key]``, ``default`` when absent, checked to be a ``kind``.

    A ``float`` field takes an integer too and is returned as a float; a
    ``dict`` field is any table, returned as a new dict.  A value of another
    type — a bool for a number included — or a missing ``_REQUIRED`` field
    is an :class:`ExperimentSpecError` naming ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    if key not in table:
        if default is _REQUIRED:
            raise ExperimentSpecError(f"{name} is required")
        return default
    value = table[key]
    accepted = {float: (int, float), dict: Mapping}.get(kind, kind)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ExperimentSpecError(f"{name} must be {_TYPE_NAMES[kind]}, not {value!r}")
    if kind is float:
        return float(value)
    return dict(value) if kind is dict else value


@dataclass(frozen=True)
class ScenarioSpec:
    """Which configuration to build: a registered scenario or a config file."""

    name: str = ""
    path: Optional[str] = None
    params: dict[str, Any] = field(default_factory=dict)
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if bool(self.name) == (self.path is not None):
            raise ExperimentSpecError(
                "scenario must set exactly one of 'name' (registry) or "
                "'path' (configuration file)"
            )
        if self.path is not None and self.params:
            raise ExperimentSpecError(
                "scenario params apply to registry factories; a configuration "
                "file takes overrides only"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """The application workload driving traffic through the testbed."""

    app: str = "none"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.app not in KNOWN_WORKLOADS:
            raise ExperimentSpecError(
                f"unknown workload app {self.app!r} "
                f"(known: {', '.join(KNOWN_WORKLOADS)})"
            )


@dataclass(frozen=True)
class FaultOp:
    """One declarative fault-injection operation of the fault program."""

    kind: str
    at_s: float = 0.0
    target: str = ""
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAULT_OP_KINDS:
            raise ExperimentSpecError(
                f"unknown fault op kind {self.kind!r} (known: {', '.join(FAULT_OP_KINDS)})"
            )
        if self.at_s < 0:
            raise ExperimentSpecError("fault op time must be non-negative")


@dataclass(frozen=True)
class RuntimeSpec:
    """How the run executes; ``None`` fields defer to the configuration."""

    duration_s: Optional[float] = None
    parallelism: str = "threads"
    workers: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.parallelism not in ("threads", "processes"):
            raise ExperimentSpecError(
                f"unknown parallelism {self.parallelism!r} "
                "(expected 'threads' or 'processes')"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise ExperimentSpecError("runtime duration must be positive")
        if self.workers is not None and self.workers < 1:
            raise ExperimentSpecError(
                f"runtime workers must be at least 1, got {self.workers}"
            )


@dataclass(frozen=True)
class ServeSpec:
    """The streaming serving tier attached to a run (``[serve]`` table).

    When present, the runner starts a
    :class:`~repro.serve.gateway.GatewayServer` on the testbed's
    constellation database for the duration of the run: every published
    epoch is encoded once through the shared codec and fanned out to all
    subscribed clients, and path queries are answered from the current
    state, which solves the rows it is asked for.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 64
    ack_timeout_s: float = 5.0
    auth_secret: str = ""

    def __post_init__(self):
        if self.queue_limit <= 0:
            raise ExperimentSpecError("serve queue limit must be positive")
        if self.ack_timeout_s <= 0:
            raise ExperimentSpecError("serve ack timeout must be positive")
        if not 0 <= self.port <= 65535:
            raise ExperimentSpecError("serve port must be within [0, 65535]")


@dataclass(frozen=True)
class MetricsSpec:
    """Which analysis outputs the runner should emit."""

    outputs: tuple[str, ...] = ("summary",)

    def __post_init__(self):
        unknown = [name for name in self.outputs if name not in KNOWN_METRIC_OUTPUTS]
        if unknown:
            raise ExperimentSpecError(
                f"unknown metrics outputs {unknown!r} "
                f"(known: {', '.join(KNOWN_METRIC_OUTPUTS)})"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, declarative description of one experiment."""

    name: str
    scenario: ScenarioSpec
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fault_program: tuple[FaultOp, ...] = ()
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    serve: Optional[ServeSpec] = None

    def __post_init__(self):
        if not self.name:
            raise ExperimentSpecError("experiment name must not be empty")

    # -- convenience ---------------------------------------------------------

    def with_runtime(self, **changes: Any) -> "ExperimentSpec":
        """A copy with runtime fields replaced (CLI override hook)."""
        return replace(self, runtime=replace(self.runtime, **changes))

    def with_serve(self, address: str = "") -> "ExperimentSpec":
        """A copy with the serving tier attached (CLI ``--serve`` hook).

        ``address`` is ``"host:port"``, ``"host"``, ``":port"`` or empty
        (bind 127.0.0.1 on an ephemeral port); other serve fields keep the
        spec's existing ``[serve]`` values, if any.
        """
        base = self.serve if self.serve is not None else ServeSpec()
        host, port = base.host, base.port
        if address:
            head, _, tail = address.rpartition(":")
            if head:
                host, port = head, int(tail)
            elif address.startswith(":"):
                port = int(tail)
            else:
                host = tail
        return replace(self, serve=replace(base, host=host, port=port))

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form; ``None``/empty fields are omitted so the
        dictionary (and its TOML/JSON renderings) round-trip byte-stably."""
        data: dict[str, Any] = {"name": self.name}
        scenario: dict[str, Any] = {}
        if self.scenario.name:
            scenario["name"] = self.scenario.name
        if self.scenario.path is not None:
            scenario["path"] = self.scenario.path
        if self.scenario.params:
            scenario["params"] = _sorted_dict(self.scenario.params)
        if self.scenario.overrides:
            scenario["overrides"] = _sorted_dict(self.scenario.overrides)
        data["scenario"] = scenario
        workload: dict[str, Any] = {"app": self.workload.app}
        if self.workload.params:
            workload["params"] = _sorted_dict(self.workload.params)
        data["workload"] = workload
        if self.fault_program:
            ops = []
            for op in self.fault_program:
                entry: dict[str, Any] = {"kind": op.kind, "at_s": float(op.at_s)}
                if op.target:
                    entry["target"] = op.target
                if op.params:
                    entry["params"] = _sorted_dict(op.params)
                ops.append(entry)
            data["fault_program"] = ops
        runtime: dict[str, Any] = {}
        if self.runtime.duration_s is not None:
            runtime["duration_s"] = float(self.runtime.duration_s)
        runtime["parallelism"] = self.runtime.parallelism
        if self.runtime.workers is not None:
            runtime["workers"] = int(self.runtime.workers)
        if self.runtime.seed is not None:
            runtime["seed"] = int(self.runtime.seed)
        data["runtime"] = runtime
        data["metrics"] = {"outputs": list(self.metrics.outputs)}
        if self.serve is not None:
            # Only non-default fields are emitted (an all-default serving
            # tier renders as a bare ``[serve]`` table), keeping the
            # TOML/JSON round-trip byte-stable.
            serve: dict[str, Any] = {}
            defaults = ServeSpec()
            if self.serve.host != defaults.host:
                serve["host"] = self.serve.host
            if self.serve.port != defaults.port:
                serve["port"] = int(self.serve.port)
            if self.serve.queue_limit != defaults.queue_limit:
                serve["queue_limit"] = int(self.serve.queue_limit)
            if self.serve.ack_timeout_s != defaults.ack_timeout_s:
                serve["ack_timeout_s"] = float(self.serve.ack_timeout_s)
            if self.serve.auth_secret:
                serve["auth_secret"] = self.serve.auth_secret
            data["serve"] = serve
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from its plain-dictionary form.

        A key this form does not have, at any level, is an
        :class:`ExperimentSpecError` naming it: a misspelled table or field
        is refused instead of running without it.  So is a value of the
        wrong type (a bool is not a number) or a missing ``name`` or fault
        ``kind``: the error names the field and the type it must have.
        """
        _table(data, cls, "the experiment spec")
        scenario_data = _table(data.get("scenario", {}), ScenarioSpec, "scenario")
        scenario = ScenarioSpec(
            name=_field(scenario_data, "name", str, "scenario", ""),
            path=_field(scenario_data, "path", str, "scenario"),
            params=_field(scenario_data, "params", dict, "scenario", {}),
            overrides=_field(scenario_data, "overrides", dict, "scenario", {}),
        )
        workload_data = _table(data.get("workload", {}), WorkloadSpec, "workload")
        workload = WorkloadSpec(
            app=_field(workload_data, "app", str, "workload", "none"),
            params=_field(workload_data, "params", dict, "workload", {}),
        )
        ops = [
            _table(op, FaultOp, "fault_program")
            for op in _field(data, "fault_program", list, "", [])
        ]
        fault_program = tuple(
            FaultOp(
                kind=_field(op, "kind", str, "fault_program", _REQUIRED),
                at_s=_field(op, "at_s", float, "fault_program", 0.0),
                target=_field(op, "target", str, "fault_program", ""),
                params=_field(op, "params", dict, "fault_program", {}),
            )
            for op in ops
        )
        runtime_data = _table(data.get("runtime", {}), RuntimeSpec, "runtime")
        runtime = RuntimeSpec(
            duration_s=_field(runtime_data, "duration_s", float, "runtime"),
            parallelism=_field(runtime_data, "parallelism", str, "runtime", "threads"),
            workers=_field(runtime_data, "workers", int, "runtime"),
            seed=_field(runtime_data, "seed", int, "runtime"),
        )
        metrics_data = _table(data.get("metrics", {}), MetricsSpec, "metrics")
        outputs = _field(metrics_data, "outputs", list, "metrics", ["summary"])
        if not all(isinstance(output, str) for output in outputs):
            raise ExperimentSpecError(f"metrics.outputs must be a list of strings, not {outputs!r}")
        serve: Optional[ServeSpec] = None
        if "serve" in data:
            serve_data = _table(data["serve"], ServeSpec, "serve")
            serve = ServeSpec(
                host=_field(serve_data, "host", str, "serve", "127.0.0.1"),
                port=_field(serve_data, "port", int, "serve", 0),
                queue_limit=_field(serve_data, "queue_limit", int, "serve", 64),
                ack_timeout_s=_field(serve_data, "ack_timeout_s", float, "serve", 5.0),
                auth_secret=_field(serve_data, "auth_secret", str, "serve", ""),
            )
        return cls(
            name=_field(data, "name", str, "", _REQUIRED),
            scenario=scenario,
            workload=workload,
            fault_program=fault_program,
            runtime=runtime,
            metrics=MetricsSpec(outputs=tuple(outputs)),
            serve=serve,
        )

    def to_toml(self) -> str:
        """Deterministic TOML rendering of the spec.

        The standard library reads TOML (:mod:`tomllib`) but does not write
        it, so the fixed spec shape is emitted directly; the output parses
        back to :meth:`to_dict` exactly, making TOML round-trips byte-stable.
        """
        data = self.to_dict()
        lines: list[str] = [f"name = {_toml_value(data['name'])}", ""]
        _emit_table(lines, "scenario", data["scenario"])
        _emit_table(lines, "workload", data["workload"])
        for op in data.get("fault_program", []):
            lines.append("[[fault_program]]")
            _emit_pairs(lines, op, skip=("params",))
            if "params" in op:
                lines.append("")
                lines.append("[fault_program.params]")
                _emit_pairs(lines, op["params"])
            lines.append("")
        _emit_table(lines, "runtime", data["runtime"])
        _emit_table(lines, "metrics", data["metrics"])
        if "serve" in data:
            _emit_table(lines, "serve", data["serve"])
        while lines and lines[-1] == "":
            lines.pop()
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml_text(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from TOML source text."""
        import tomllib

        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def from_path(cls, path) -> "ExperimentSpec":
        """Load a spec from a ``.toml`` or ``.json`` file (by extension)."""
        path_str = str(path)
        if path_str.endswith(".toml"):
            with open(path) as handle:
                return cls.from_toml_text(handle.read())
        if path_str.endswith(".json"):
            with open(path) as handle:
                return cls.from_dict(json.load(handle))
        raise ExperimentSpecError(
            f"unsupported experiment spec suffix: {path_str!r} "
            "(expected .toml or .json)"
        )


# -- TOML emission helpers ---------------------------------------------------


def _sorted_dict(params: Mapping[str, Any]) -> dict[str, Any]:
    return {key: params[key] for key in sorted(params)}


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr() is the shortest round-trip form and always carries a '.'
        # or exponent, so tomllib reads the value back as a float.
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string escaping
        # for the characters configurations use.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise ExperimentSpecError(f"cannot render {type(value).__name__} as TOML")


def _emit_pairs(lines: list[str], table: Mapping[str, Any], skip: tuple[str, ...] = ()) -> None:
    for key, value in table.items():
        if key in skip or isinstance(value, Mapping):
            continue
        lines.append(f"{key} = {_toml_value(value)}")


def _emit_table(lines: list[str], name: str, table: Mapping[str, Any]) -> None:
    lines.append(f"[{name}]")
    _emit_pairs(lines, table)
    for key, value in table.items():
        if isinstance(value, Mapping):
            lines.append("")
            lines.append(f"[{name}.{key}]")
            _emit_pairs(lines, value)
    lines.append("")
