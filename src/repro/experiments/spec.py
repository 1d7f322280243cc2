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

A spec is read and written like the configuration file, by the one reader
and the one writer of :mod:`repro.core.tables`; what it writes names every
field, defaults too.  Its ``params`` tables are bound later, each against
the signature that consumes it, before the run starts.

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

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.fault_injection import FAULT_OP_KINDS
from repro.core.tables import ConfigurationError, Table


class ExperimentSpecError(ConfigurationError):
    """Raised when an experiment specification is inconsistent."""


#: Application workloads the runner knows how to execute.
KNOWN_WORKLOADS = ("meetup", "dart", "handover", "none")
#: Analysis outputs a spec may request in ``metrics.outputs``.
KNOWN_METRIC_OUTPUTS = ("summary", "latency-csv", "resource-traces", "fault-events")


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
    """One declarative fault-injection operation of the fault program.

    ``target`` is a machine, a pair ``"<machine>-><machine>"``, stations
    (``ground-outage``) or a shell (``operator-degradation``).  A machine is
    ``<shell>/<id>`` (shell index or name), or a name in the grammar of
    every surface (any case, optional ``.celestial`` and trailing dot):
    ``<id>.<shell>``, or a station's name, slug, ``<slug>.gst`` or ``gst.<slug>``.
    """

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
class ExperimentSpec(Table):
    """A complete, declarative description of one experiment."""

    error = ExperimentSpecError

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
        head, colon, tail = address.rpartition(":")
        if colon:
            host = head or host
            try:
                port = int(tail)
            except ValueError:
                raise ExperimentSpecError(
                    f"serve address {address!r} has no integer port (expected host:port)"
                ) from None
        elif address:
            host = address
        return replace(self, serve=replace(base, host=host, port=port))
