"""One runner for every declarative experiment.

:class:`ExperimentRunner` interprets an
:class:`~repro.experiments.spec.ExperimentSpec`: it builds the
:class:`~repro.core.config.Configuration` (registry scenario or config
file, plus overrides), constructs the :class:`~repro.core.testbed.Celestial`
testbed with the requested fan-out backend, schedules the declarative fault
program, runs the application workload and collects metrics — optionally
writing a structured result bundle (JSON summary + CSV traces) through
:func:`repro.analysis.bundle.write_experiment_bundle`.

The CLI experiment subcommands (``meetup``, ``dart``, ``handover``) are thin
spec-builders over this runner, and ``repro-celestial run experiment.toml``
executes any spec directly — so a parameter sweep is a directory of TOML
files, not a Python module.

Workload identity: the named RNG streams of :class:`~repro.sim.RandomStreams`
are keyed by ``(seed, name)`` and independent of creation order, so a run
driven through a spec draws exactly the same random sequences as the same
experiment wired by hand — spec-driven runs reproduce bespoke runs
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import dataclasses

from repro.analysis.metrics import LatencySeries
from repro.core.config import Configuration, ConfigurationError, HostConfig
from repro.core.constellation import MachineId
from repro.core.testbed import Celestial
from repro.experiments import registry
from repro.experiments.spec import ExperimentSpec, ExperimentSpecError, FaultOp

#: Configuration fields a scenario override may replace directly.
_OVERRIDABLE_FIELDS = ("duration_s", "update_interval_s", "seed")


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    spec: ExperimentSpec
    config: Configuration
    title: str
    #: ``[label, value]`` rows, ready for :func:`repro.analysis.render_table`.
    metrics: list[list[Any]]
    #: Named latency series for CSV export.
    series: dict[str, LatencySeries] = field(default_factory=dict)
    #: The workload's native results object (``MeetupResults`` etc.).
    raw: Any = None
    #: Fault-injector event log of the run.
    fault_events: list = field(default_factory=list)
    #: Stateful fault interpreters (e.g. ``OperatorDegradation`` instances).
    fault_interpreters: list = field(default_factory=list)
    #: Per-host resource traces (empty for testbed-less workloads).
    resource_traces: dict[int, Any] = field(default_factory=dict)
    #: Data-plane counters of the virtual network.
    network_statistics: dict[str, int] = field(default_factory=dict)
    #: Path-engine counters (``{"totals": {...}}``) — see
    #: :meth:`repro.core.testbed.Celestial.path_engine_statistics`.
    path_statistics: dict = field(default_factory=dict)
    #: Streaming-gateway counters when the spec attached a serving tier
    #: (``[serve]``): published epochs, encode count, per-client delivery.
    serve_statistics: dict = field(default_factory=dict)
    #: Files written by the result bundle (empty without an output dir).
    output_paths: list[Path] = field(default_factory=list)


# -- configuration building ---------------------------------------------------


def build_configuration(spec: ExperimentSpec) -> Configuration:
    """The testbed configuration of a spec: scenario + overrides + runtime."""
    if spec.scenario.name:
        config = registry.build(spec.scenario.name, **spec.scenario.params)
    else:
        config = Configuration.from_path(spec.scenario.path)
    changes: dict[str, Any] = {}
    for key, value in spec.scenario.overrides.items():
        if key in _OVERRIDABLE_FIELDS:
            changes[key] = value
        elif key == "hosts":
            merged = {**dataclasses.asdict(config.hosts), **value}
            changes["hosts"] = HostConfig(**merged)
        else:
            raise ExperimentSpecError(
                f"unknown scenario override {key!r} "
                f"(supported: {', '.join(_OVERRIDABLE_FIELDS)}, hosts)"
            )
    # Runtime duration/seed win over both the scenario and its overrides.
    if spec.runtime.duration_s is not None:
        changes["duration_s"] = spec.runtime.duration_s
    if spec.runtime.seed is not None:
        changes["seed"] = spec.runtime.seed
    return dataclasses.replace(config, **changes) if changes else config


# -- fault program -------------------------------------------------------------


def _resolve_machine(testbed: Celestial, target: str) -> MachineId:
    """A machine target: a ground-station name or ``"<shell>/<identifier>"``.

    The shell part may be a shell index or a shell name; satellite targets
    are created immediately (outside bounding-box logic) so the op can reach
    them.
    """
    if "/" in target:
        shell_part, identifier = target.split("/", 1)
        if shell_part.isdigit():
            shell_index = int(shell_part)
        else:
            names = [shell.name for shell in testbed.config.shells]
            if shell_part not in names:
                raise ConfigurationError(
                    f"fault target {target!r}: no shell named {shell_part!r}"
                )
            shell_index = names.index(shell_part)
        machine = testbed.satellite(shell_index, int(identifier))
        testbed.ensure_machine(machine)
        return machine
    return testbed.ground_station(target)


def _outage_stations(testbed: Celestial, config: Configuration, op: FaultOp) -> list[MachineId]:
    """The ground stations a ``ground-outage`` op takes down.

    Stations are selected either by comma-separated names in the op's
    target, or — when the target is empty — by a geographic region given
    as ``lat_min``/``lat_max``/``lon_min``/``lon_max`` params (a regional
    blackout: every configured station inside the box goes dark).
    """
    if op.target:
        names = [name.strip() for name in op.target.split(",") if name.strip()]
    else:
        bounds = ("lat_min", "lat_max", "lon_min", "lon_max")
        missing = [key for key in bounds if key not in op.params]
        if missing:
            raise ExperimentSpecError(
                "ground-outage needs station names in 'target' or a region "
                f"(missing params: {', '.join(missing)})"
            )
        from repro.core.bounding_box import BoundingBox

        box = BoundingBox(*(float(op.params[key]) for key in bounds))
        names = [
            gst.name
            for gst in config.ground_stations
            if box.contains(gst.station.latitude_deg, gst.station.longitude_deg)
        ]
    if not names:
        raise ExperimentSpecError("ground-outage selects no ground stations")
    return [testbed.ground_station(name) for name in names]


def _schedule_ground_outage(testbed: Celestial, config: Configuration, op: FaultOp) -> None:
    """Arm a ``ground-outage`` op: terminate a set of stations at once.

    The op expands to one ``terminate`` per selected station (and, when
    ``duration_s`` is given, one ``reboot`` per station at recovery time),
    routed through :meth:`FaultInjector.apply_op` — so the injector event
    log is identical to a run hand-wiring the same terminates and reboots.
    """
    injector = testbed.fault_injector
    stations = _outage_stations(testbed, config, op)
    duration_s = op.params.get("duration_s")

    def _down(now_s: float) -> None:
        for machine in stations:
            injector.apply_op("terminate", now_s, machine=machine)

    if op.at_s > 0:

        def _deferred():
            yield testbed.sim.timeout(op.at_s)
            _down(testbed.sim.now)

        testbed.sim.process(_deferred())
    else:
        _down(testbed.sim.now)
    if duration_s is not None:

        def _recovery():
            yield testbed.sim.timeout(op.at_s + float(duration_s))
            for machine in stations:
                injector.apply_op("reboot", testbed.sim.now, machine=machine)

        testbed.sim.process(_recovery())


def _schedule_op(testbed: Celestial, config: Configuration, op: FaultOp) -> Optional[object]:
    """Arm one fault op; returns its stateful interpreter, if any."""
    if op.kind == "ground-outage":
        _schedule_ground_outage(testbed, config, op)
        return None
    if op.kind == "operator-degradation":
        # Late import: repro.scenarios imports the registry from this package.
        from repro.scenarios.degraded import (
            DEFAULT_VICTIM_SHELL,
            OperatorDegradation,
            victim_shell_index,
        )

        shell_name = op.target or DEFAULT_VICTIM_SHELL
        degradation = OperatorDegradation(
            testbed,
            victim_shell_index(config, shell_name),
            **op.params,
        )
        if op.at_s > 0:

            def _delayed():
                yield testbed.sim.timeout(op.at_s)
                yield from degradation.process()

            testbed.sim.process(_delayed())
        else:
            testbed.sim.process(degradation.process())
        return degradation

    injector = testbed.fault_injector
    kwargs: dict[str, Any] = dict(op.params)
    if "->" in op.target:
        source_name, destination_name = op.target.split("->", 1)
        kwargs["source"] = _resolve_machine(testbed, source_name)
        kwargs["destination"] = _resolve_machine(testbed, destination_name)
    elif op.target:
        kwargs["machine"] = _resolve_machine(testbed, op.target)
    if op.at_s > 0:

        def _deferred():
            yield testbed.sim.timeout(op.at_s)
            injector.apply_op(op.kind, testbed.sim.now, **kwargs)

        testbed.sim.process(_deferred())
    else:
        injector.apply_op(op.kind, testbed.sim.now, **kwargs)
    return None


def schedule_fault_program(
    testbed: Celestial, config: Configuration, program: tuple[FaultOp, ...]
) -> list[object]:
    """Arm every op of a fault program; returns the stateful interpreters.

    The testbed must be started: immediate ops (``at_s == 0``) are applied
    on the spot, timed ops and progressive cascades are registered as
    simulation processes — exactly the sequence a user hand-wiring the
    fault-injection API would produce.
    """
    interpreters = []
    for op in program:
        interpreter = _schedule_op(testbed, config, op)
        if interpreter is not None:
            interpreters.append(interpreter)
    return interpreters


# -- workloads -----------------------------------------------------------------


def _run_meetup(testbed: Celestial, config: Configuration, params: dict[str, Any]):
    from repro.apps import MeetupExperiment, VideoStreamParams

    mode = params.get("mode", "satellite")
    stream_kwargs = {
        key: params[key]
        for key in ("bitrate_kbps", "packet_interval_s")
        if key in params
    }
    experiment = MeetupExperiment(
        testbed,
        mode=mode,
        stream=VideoStreamParams(**stream_kwargs),
        tracking_interval_s=params.get("tracking_interval_s", 5.0),
    )
    results = experiment.run()
    return (
        f"Meetup experiment ({mode} bridge, {config.duration_s:.0f}s)",
        results.summary_metrics(),
        {"meetup": results.all_measurements()},
        results,
    )


def _run_dart(testbed: Celestial, config: Configuration, params: dict[str, Any]):
    from repro.apps import DartExperiment

    deployment = params.get("deployment", "central")
    experiment = DartExperiment(
        testbed,
        deployment=deployment,
        group_count=params.get("group_count", 20),
        reading_interval_s=params.get("reading_interval_s", 1.0),
    )
    results = experiment.run()
    return (
        f"DART experiment ({deployment} deployment, {config.duration_s:.0f}s)",
        results.summary_metrics(),
        {"dart": results.all_latencies(), "processing": results.processing_ms},
        results,
    )


def _run_none(testbed: Celestial, config: Configuration, params: dict[str, Any]):
    testbed.run()
    statistics = testbed.network_statistics()
    metrics = [
        ["booted machines", testbed.booted_machines()],
        ["messages sent", statistics["sent"]],
        ["messages delivered", statistics["delivered"]],
        ["messages dropped", statistics["dropped"]],
    ]
    return (
        f"Emulation run ({config.duration_s:.0f}s, no workload)",
        metrics,
        {},
        None,
    )


_TESTBED_WORKLOADS = {
    "meetup": _run_meetup,
    "dart": _run_dart,
    "none": _run_none,
}


def _run_handover(spec: ExperimentSpec, config: Configuration) -> ExperimentResult:
    """The testbed-less analysis workload (pure constellation calculation)."""
    from repro.analysis.handover import analyze_handovers
    from repro.core.constellation import ConstellationCalculation

    params = spec.workload.params
    if "station" not in params:
        raise ExperimentSpecError("the handover workload requires params.station")
    station = params["station"]
    duration_s = params.get("duration_s", config.duration_s)
    interval_s = params.get("interval_s", 10.0)
    calculation = ConstellationCalculation(config)
    analysis = analyze_handovers(calculation, station, duration_s, interval_s)
    metrics = [
        ["handovers", analysis.handover_count],
        ["handovers per minute", analysis.handover_rate_per_minute],
        ["mean uplink duration [s]", analysis.mean_uplink_duration_s()],
        ["coverage fraction", analysis.coverage_fraction],
    ]
    return ExperimentResult(
        spec=spec,
        config=config,
        title=f"Uplink handovers of {station} over {duration_s:.0f}s",
        metrics=metrics,
        raw=analysis,
        path_statistics={"totals": calculation.path_engine.stats.snapshot()},
    )


# -- the runner ----------------------------------------------------------------


class ExperimentRunner:
    """Executes one :class:`ExperimentSpec` end to end."""

    def __init__(self, spec: ExperimentSpec, output_dir: Optional[str | Path] = None):
        self.spec = spec
        self.output_dir = Path(output_dir) if output_dir is not None else None

    def run(self) -> ExperimentResult:
        """Build, fault-inject, drive and measure; returns the result."""
        spec = self.spec
        config = build_configuration(spec)
        if spec.workload.app == "handover":
            if spec.fault_program:
                raise ExperimentSpecError(
                    "the handover workload is a pure calculation; "
                    "it cannot host a fault program"
                )
            result = _run_handover(spec, config)
        else:
            result = self._run_on_testbed(spec, config)
        if self.output_dir is not None:
            from repro.analysis.bundle import write_experiment_bundle

            result.output_paths = write_experiment_bundle(result, self.output_dir)
        return result

    def _run_on_testbed(
        self, spec: ExperimentSpec, config: Configuration
    ) -> ExperimentResult:
        serve = spec.serve
        testbed = Celestial(
            config,
            parallelism=spec.runtime.parallelism,
            worker_count=spec.runtime.workers,
        )
        gateway = None
        try:
            interpreters: list[object] = []
            if spec.fault_program or serve is not None:
                # Arm faults (and the serving tier) before the workload
                # starts its processes — the order a user hand-wiring the
                # fault API and gateway would use.
                testbed.start()
            if spec.fault_program:
                interpreters = schedule_fault_program(
                    testbed, config, spec.fault_program
                )
            if serve is not None:
                from repro.serve.gateway import GatewayServer

                gateway = GatewayServer(
                    testbed.database,
                    host=serve.host,
                    port=serve.port,
                    queue_limit=serve.queue_limit,
                    ack_timeout_s=serve.ack_timeout_s,
                    auth_secret=serve.auth_secret,
                ).start()
            workload = _TESTBED_WORKLOADS[spec.workload.app]
            title, metrics, series, raw = workload(testbed, config, spec.workload.params)
            return ExperimentResult(
                spec=spec,
                config=config,
                title=title,
                metrics=metrics,
                series=series,
                raw=raw,
                fault_events=list(testbed.fault_injector.events),
                fault_interpreters=interpreters,
                resource_traces=testbed.resource_traces(),
                network_statistics=testbed.network_statistics(),
                path_statistics=testbed.path_engine_statistics(),
                serve_statistics=gateway.statistics() if gateway is not None else {},
            )
        finally:
            if gateway is not None:
                gateway.stop()
            testbed.close()
