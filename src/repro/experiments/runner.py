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
byte-identically.  Machine seeds and usage-sample noise are keyed the same
way, by the ``"machines"`` stream's seed and the machine's identity or the
host's sample index (:func:`repro.sim.rng.keyed`), so the ``[hosts]`` count
and the worker count move no boot time and no application latency.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Literal, Mapping, Optional

from repro.analysis.metrics import LatencySeries
from repro.core.config import Configuration
from repro.core.constellation import MachineId, machine_from_name
from repro.core.fault_injection import OP_METHODS, FaultInjector
from repro.core.tables import bind, read
from repro.core.testbed import Celestial
from repro.experiments import registry
from repro.experiments.spec import ExperimentSpec, ExperimentSpecError, FaultOp

#: Configuration fields no override sets (one sets duration_s, update_interval_s, seed or hosts).
_FIXED_FIELDS = ("shells", "ground_stations", "bounding_box", "epoch")


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
    #: Fault-injector event log of the run.
    fault_events: list = field(default_factory=list)
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
    overrides = dict(spec.scenario.overrides)
    if isinstance(overrides.get("hosts"), Mapping):
        overrides["hosts"] = {**asdict(config.hosts), **overrides["hosts"]}
    changes = bind(
        Configuration, overrides, "scenario.overrides", ExperimentSpecError, _FIXED_FIELDS
    )
    # Runtime duration/seed win over both the scenario and its overrides.
    if spec.runtime.duration_s is not None:
        changes["duration_s"] = spec.runtime.duration_s
    if spec.runtime.seed is not None:
        changes["seed"] = spec.runtime.seed
    return replace(config, **changes) if changes else config


# -- fault program -------------------------------------------------------------


def _named(testbed: Celestial, name: str) -> MachineId:
    """The machine a fault op names, read as every surface reads a name
    (:func:`~repro.core.constellation.machine_from_name`); an unknown one is
    an :class:`ExperimentSpecError`."""
    try:
        return machine_from_name(name, testbed.calculation.node_index)
    except LookupError as error:
        raise ExperimentSpecError(f"fault target: {error}") from error


def _resolve_machine(testbed: Celestial, target: str) -> MachineId:
    """A machine target: a name (:func:`_named`) or ``"<shell>/<identifier>"``.

    The shell part may be a shell index or a shell name.  The machine is
    created at once if it is not yet (a satellite outside the bounding box)
    so the op can reach it.  A target naming no machine is an
    :class:`ExperimentSpecError`.
    """
    if "/" not in target:
        machine = _named(testbed, target)
    else:
        shell_part, identifier = target.split("/", 1)
        names = [shell.name for shell in testbed.config.shells]
        if not shell_part.isdigit() and shell_part not in names:
            raise ExperimentSpecError(f"fault target {target!r}: no shell named {shell_part!r}")
        shell_index = int(shell_part) if shell_part.isdigit() else names.index(shell_part)
        try:
            machine = testbed.satellite(shell_index, int(identifier))
        except (ValueError, IndexError) as error:  # not a number, or out of range
            raise ExperimentSpecError(f"fault target {target!r}: {error}") from error
    testbed.ensure_machine(machine)
    return machine


def _at(testbed: Celestial, at_s: float, action) -> None:
    """Run ``action(now_s)`` at ``at_s``: on the spot at 0, else from a simulation process."""
    if at_s <= 0:
        action(testbed.sim.now)
        return

    def _deferred():
        yield testbed.sim.timeout(at_s)
        action(testbed.sim.now)

    testbed.sim.process(_deferred())


def _schedule_ground_outage(
    testbed: Celestial,
    config: Configuration,
    op: FaultOp,
    lat_min: Optional[float] = None,
    lat_max: Optional[float] = None,
    lon_min: Optional[float] = None,
    lon_max: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> None:
    """Arm a ``ground-outage`` op: terminate a set of stations at once.

    Stations are selected either by comma-separated names in the op's
    target, or — when the target is empty — by the region its
    ``lat_min``/``lat_max``/``lon_min``/``lon_max`` params span (a regional
    blackout: every configured station inside the box goes dark).  The op
    expands to one ``terminate`` per station (and, when ``duration_s`` is
    given, one ``reboot`` per station at recovery time), routed through
    :meth:`FaultInjector.apply_op` — so the injector event log is identical
    to a run hand-wiring the same terminates and reboots.
    """
    region = {"lat_min": lat_min, "lat_max": lat_max, "lon_min": lon_min, "lon_max": lon_max}
    if op.target:
        names = [name.strip() for name in op.target.split(",") if name.strip()]
    elif None in region.values():
        missing = [key for key, bound in region.items() if bound is None]
        raise ExperimentSpecError(
            "ground-outage needs station names in 'target' or a region "
            f"(missing params: {', '.join(missing)})"
        )
    else:
        from repro.core.bounding_box import BoundingBox

        box = read(BoundingBox, region, "fault_program.params", ExperimentSpecError)
        names = [
            gst.name
            for gst in config.ground_stations
            if box.contains(gst.station.latitude_deg, gst.station.longitude_deg)
        ]
    if not names:
        raise ExperimentSpecError("ground-outage selects no ground stations")
    stations = [_named(testbed, name) for name in names]
    if not all(station.is_ground_station for station in stations):
        raise ExperimentSpecError(f"fault target: ground-outage takes stations, not {names}")
    injector = testbed.fault_injector

    def _all(kind: str, now_s: float) -> None:
        for machine in stations:
            injector.apply_op(kind, now_s, machine=machine)

    _at(testbed, op.at_s, partial(_all, "terminate"))
    if duration_s is not None:
        _at(testbed, op.at_s + duration_s, partial(_all, "reboot"))


def _schedule_op(testbed: Celestial, config: Configuration, op: FaultOp) -> Optional[object]:
    """Arm one fault op, its params read against the call that consumes them;
    returns its stateful interpreter, if any."""
    where = "fault_program.params"
    if op.kind == "ground-outage":
        given = ("testbed", "config", "op")
        params = bind(_schedule_ground_outage, op.params, where, ExperimentSpecError, given)
        _schedule_ground_outage(testbed, config, op, **params)
        return None
    if op.kind == "operator-degradation":
        # Late import: repro.scenarios imports the registry from this package.
        from repro.scenarios.degraded import (
            DEFAULT_VICTIM_SHELL,
            OperatorDegradation,
            victim_shell_index,
        )

        given = ("testbed", "shell_index", "rng")
        params = bind(OperatorDegradation, op.params, where, ExperimentSpecError, given)
        try:
            shell_index = victim_shell_index(config, op.target or DEFAULT_VICTIM_SHELL)
            degradation = OperatorDegradation(testbed, shell_index, **params)
        except ValueError as error:
            raise ExperimentSpecError(f"fault_program: {error}") from error

        def _cascade():
            if op.at_s > 0:
                yield testbed.sim.timeout(op.at_s)
            yield from degradation.process()

        testbed.sim.process(_cascade())
        return degradation

    injector = testbed.fault_injector
    kwargs = injector.bind_op(op.kind, op.params, where, ExperimentSpecError)
    # The method an op runs takes one machine or a directed pair.
    link = "source" in inspect.signature(getattr(FaultInjector, OP_METHODS[op.kind][0])).parameters
    if not op.target or ("->" in op.target) != link:
        shape = '"<machine>-><machine>"' if link else 'one machine ("<station>" or "<shell>/<id>")'
        raise ExperimentSpecError(
            f"fault_program.target: a {op.kind} op targets {shape}, not {op.target!r}"
        )
    if link:
        source_name, destination_name = op.target.split("->", 1)
        kwargs["source"] = _resolve_machine(testbed, source_name)
        kwargs["destination"] = _resolve_machine(testbed, destination_name)
    else:
        kwargs["machine"] = _resolve_machine(testbed, op.target)
    _at(testbed, op.at_s, lambda now_s: injector.apply_op(op.kind, now_s, **kwargs))
    return None


def schedule_fault_program(
    testbed: Celestial, config: Configuration, program: tuple[FaultOp, ...]
) -> list[object]:
    """Arm every op of a fault program; returns the stateful interpreters.

    The testbed must be started: immediate ops (``at_s == 0``) are applied
    on the spot, timed ops and progressive cascades are registered as
    simulation processes — exactly the sequence a user hand-wiring the
    fault-injection API would produce.  Every op's target is looked up
    here, timed ones too, so a target naming no machine is an
    :class:`ExperimentSpecError` before the run starts.
    """
    interpreters = [_schedule_op(testbed, config, op) for op in program]
    return [interpreter for interpreter in interpreters if interpreter is not None]


# -- workloads -----------------------------------------------------------------


def _run_meetup(
    testbed: Celestial,
    config: Configuration,
    mode: Literal["satellite", "cloud"] = "satellite",
    # VideoStreamParams' defaults (repro.apps is imported only when a run needs it):
    bitrate_kbps: float = 2600.0,
    packet_interval_s: float = 0.02,
    tracking_interval_s: float = 5.0,
):
    from repro.apps import MeetupExperiment, VideoStreamParams

    experiment = MeetupExperiment(
        testbed,
        mode=mode,
        stream=VideoStreamParams(bitrate_kbps, packet_interval_s),
        tracking_interval_s=tracking_interval_s,
    )
    results = experiment.run()
    return (
        f"Meetup experiment ({mode} bridge, {config.duration_s:.0f}s)",
        results.summary_metrics(),
        {"meetup": results.all_measurements()},
    )


def _run_dart(
    testbed: Celestial,
    config: Configuration,
    deployment: Literal["central", "satellite"] = "central",
    group_count: int = 20,
    reading_interval_s: float = 1.0,
):
    from repro.apps import DartExperiment

    experiment = DartExperiment(
        testbed,
        deployment=deployment,
        group_count=group_count,
        reading_interval_s=reading_interval_s,
    )
    results = experiment.run()
    return (
        f"DART experiment ({deployment} deployment, {config.duration_s:.0f}s)",
        results.summary_metrics(),
        {"dart": results.all_latencies(), "processing": results.processing_ms},
    )


def _run_none(testbed: Celestial, config: Configuration):
    testbed.run()
    statistics = testbed.network_statistics()
    metrics = [
        ["booted machines", testbed.booted_machines()],
        ["messages sent", statistics["sent"]],
        ["messages delivered", statistics["delivered"]],
        ["messages dropped", statistics["dropped"]],
    ]
    return f"Emulation run ({config.duration_s:.0f}s, no workload)", metrics, {}


def _run_handover(
    spec: ExperimentSpec,
    config: Configuration,
    station: str,
    duration_s: Optional[float] = None,
    interval_s: float = 10.0,
) -> ExperimentResult:
    """The testbed-less analysis workload (pure constellation calculation)."""
    from repro.analysis.handover import analyze_handovers
    from repro.core.constellation import ConstellationCalculation

    duration_s = config.duration_s if duration_s is None else duration_s
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
        path_statistics={"totals": calculation.path_engine.stats.snapshot()},
    )


#: Each workload app's runner; its keyword parameters are the app's params.
_WORKLOADS = {
    "meetup": _run_meetup,
    "dart": _run_dart,
    "none": _run_none,
    "handover": _run_handover,
}


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
        # Read before anything is built: a misspelled param runs nothing.
        workload, given = _WORKLOADS[spec.workload.app], ("testbed", "spec", "config")
        params = bind(workload, spec.workload.params, "workload.params", ExperimentSpecError, given)
        if spec.workload.app == "handover":
            if spec.fault_program:
                raise ExperimentSpecError(
                    "the handover workload is a pure calculation; "
                    "it cannot host a fault program"
                )
            result = _run_handover(spec, config, **params)
        else:
            result = self._run_on_testbed(spec, config, workload, params)
        if self.output_dir is not None:
            from repro.analysis.bundle import write_experiment_bundle

            result.output_paths = write_experiment_bundle(result, self.output_dir)
        return result

    def _run_on_testbed(
        self, spec: ExperimentSpec, config: Configuration, workload, params: dict[str, Any]
    ) -> ExperimentResult:
        serve = spec.serve
        runtime = spec.runtime
        testbed = Celestial(config, parallelism=runtime.parallelism, worker_count=runtime.workers)
        gateway = None
        try:
            if spec.fault_program or serve is not None:
                # Arm faults (and the serving tier) before the workload
                # starts its processes — the order a user hand-wiring the
                # fault API and gateway would use.
                testbed.start()
            if spec.fault_program:
                schedule_fault_program(testbed, config, spec.fault_program)
            if serve is not None:
                from repro.serve.gateway import GatewayServer

                gateway = GatewayServer(testbed.database, **asdict(serve)).start()
            title, metrics, series = workload(testbed, config, **params)
            return ExperimentResult(
                spec=spec,
                config=config,
                title=title,
                metrics=metrics,
                series=series,
                fault_events=list(testbed.fault_injector.events),
                resource_traces=testbed.resource_traces(),
                network_statistics=testbed.network_statistics(),
                path_statistics=testbed.path_engine_statistics(),
                serve_statistics=gateway.statistics() if gateway is not None else {},
            )
        finally:
            if gateway is not None:
                gateway.stop()
            testbed.close()
