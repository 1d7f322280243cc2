"""Tests for the declarative experiment harness: registry, specs, runner."""

import inspect
import json
import tomllib

import pytest

from repro.core import (
    ComputeParams,
    Configuration,
    ConfigurationError,
    GroundStationConfig,
    HostConfig,
    NetworkParams,
    ShellConfig,
)
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ExperimentSpecError,
    FaultOp,
    MetricsSpec,
    RuntimeSpec,
    ScenarioSpec,
    UnknownScenarioError,
    WorkloadSpec,
    build,
    build_configuration,
    entry,
    list_scenarios,
    scenario,
)
from repro.experiments import runner as runner_module
from repro.experiments.registry import _REGISTRY
from repro.orbits import GroundStation, ShellGeometry


def _small_two_operator_configuration(duration_s: float = 240.0) -> Configuration:
    """A scaled-down two-operator configuration for fault-program tests."""
    compute = ComputeParams(vcpu_count=1, memory_mib=256)
    return Configuration(
        shells=(
            ShellConfig(
                name="healthy",
                geometry=ShellGeometry(6, 11, 780.0, 86.4, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=compute,
            ),
            ShellConfig(
                name="oneweb",
                geometry=ShellGeometry(6, 6, 1200.0, 87.9, 180.0),
                network=NetworkParams(min_elevation_deg=15.0),
                compute=compute,
            ),
        ),
        ground_stations=(
            GroundStationConfig(
                station=GroundStation("hawaii", 21.3, -157.9), compute=compute
            ),
        ),
        hosts=HostConfig(count=2, cpu_cores=32, memory_mib=64 * 1024),
        update_interval_s=30.0,
        duration_s=duration_s,
    )


class TestRegistry:
    def test_all_registered_scenarios_build(self):
        names = list_scenarios()
        assert len(names) >= 9
        for name in names:
            config = build(name)
            assert isinstance(config, Configuration)
            assert config.total_satellites > 0

    def test_factory_parameters_pass_through(self):
        config = build("iridium", duration_s=42.0, update_interval_s=7.0)
        assert config.duration_s == 42.0
        assert config.update_interval_s == 7.0
        assert config.total_satellites == 66

    def test_unknown_parameter_names_the_ones_the_scenario_takes(self):
        with pytest.raises(ConfigurationError, match="shell_limit") as error:
            build("oneweb", shell_limit=1)
        assert "duration_s, update_interval_s, seed, epoch" in str(error.value)

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(UnknownScenarioError, match="iridium"):
            entry("no-such-scenario")

    def test_entries_carry_descriptions(self):
        item = entry("pacific-dart")
        assert item.name == "pacific-dart"
        assert item.description
        assert "scenarios" in item.module

    def test_duplicate_registration_rejected(self):
        @scenario("tmp-duplicate-check")
        def factory():
            return _small_two_operator_configuration()

        try:
            with pytest.raises(ValueError, match="already registered"):
                scenario("tmp-duplicate-check")(factory)
        finally:
            _REGISTRY.pop("tmp-duplicate-check")
        with pytest.raises(UnknownScenarioError):
            entry("tmp-duplicate-check")

    def test_build_type_checks_the_factory_result(self):
        @scenario("tmp-bad-factory")
        def factory():
            return {"not": "a configuration"}

        try:
            with pytest.raises(TypeError, match="Configuration"):
                build("tmp-bad-factory")
        finally:
            _REGISTRY.pop("tmp-bad-factory")


class TestSpecValidation:
    def test_scenario_requires_exactly_one_source(self):
        with pytest.raises(ExperimentSpecError):
            ScenarioSpec()
        with pytest.raises(ExperimentSpecError):
            ScenarioSpec(name="iridium", path="config.toml")
        with pytest.raises(ExperimentSpecError):
            ScenarioSpec(path="config.toml", params={"duration_s": 1.0})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentSpecError, match="unknown workload"):
            WorkloadSpec(app="warp-drive")

    def test_runtime_validation(self):
        with pytest.raises(ExperimentSpecError, match="parallelism"):
            RuntimeSpec(parallelism="fibers")
        # A request for pipes is refused, not silently run over TCP.
        stale = {"name": "x", "scenario": {"name": "iridium"}, "runtime": {"transport": "pipe"}}
        with pytest.raises(ExperimentSpecError, match="transport was removed"):
            ExperimentSpec.from_dict(stale)
        with pytest.raises(ExperimentSpecError, match="duration"):
            RuntimeSpec(duration_s=-1.0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        # Not silently one worker: the count the user asked for cannot run.
        with pytest.raises(ExperimentSpecError, match="workers must be at least 1"):
            RuntimeSpec(parallelism="processes", workers=workers)
        spec = ExperimentSpec(name="x", scenario=ScenarioSpec(name="iridium"))
        with pytest.raises(ExperimentSpecError, match="workers"):
            spec.with_runtime(parallelism="processes", workers=workers)
        assert RuntimeSpec(parallelism="processes", workers=1).workers == 1

    def test_metrics_outputs_validated(self):
        with pytest.raises(ExperimentSpecError, match="unknown metrics"):
            MetricsSpec(outputs=("summary", "holograms"))

    def test_fault_op_validation(self):
        with pytest.raises(ExperimentSpecError):
            FaultOp(kind="")
        with pytest.raises(ExperimentSpecError):
            FaultOp(kind="reboot", at_s=-5.0)
        with pytest.raises(ExperimentSpecError, match="unknown fault op kind 'explode'"):
            FaultOp(kind="explode", at_s=5.0)

    @pytest.mark.parametrize(
        "table", ["", "scenario", "workload", "fault_program", "runtime", "metrics", "serve"]
    )
    def test_an_unknown_key_is_refused_at_every_level(self, table):
        data = {
            "name": "x",
            "scenario": {"name": "iridium"},
            "workload": {"app": "none"},
            "fault_program": [{"kind": "terminate", "target": "hawaii"}],
            "runtime": {"parallelism": "threads"},
            "metrics": {"outputs": ["summary"]},
            "serve": {"port": 0},
        }
        assert ExperimentSpec.from_dict(data).fault_program[0].target == "hawaii"
        level = data if not table else data[table]
        (level[0] if table == "fault_program" else level)["colour"] = "blue"
        dotted = f"{table}.colour" if table else "colour"
        with pytest.raises(ExperimentSpecError, match=f"unknown key '{dotted}'.*known: "):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        "table, key, value, message",
        [
            ("fault_program", "at_s", "soon", "fault_program.at_s must be a number, not 'soon'"),
            ("fault_program", "kind", None, "fault_program.kind is required"),
            ("runtime", "duration_s", "long", "runtime.duration_s must be a number, not 'long'"),
            ("runtime", "workers", 1.5, "runtime.workers must be an integer, not 1.5"),
            ("runtime", "seed", "7", "runtime.seed must be an integer, not '7'"),
            ("metrics", "outputs", "summary", "metrics.outputs must be a list, not 'summary'"),
            ("serve", "port", "8080", "serve.port must be an integer, not '8080'"),
            ("serve", "queue_limit", True, "serve.queue_limit must be an integer, not True"),
            ("serve", "ack_timeout_s", False, "serve.ack_timeout_s must be a number, not False"),
            ("scenario", "params", [1], "scenario.params must be a table, not \\[1\\]"),
            ("", "name", 7, "name must be a string, not 7"),
        ],
    )
    def test_a_value_of_the_wrong_type_names_its_field_and_type(self, table, key, value, message):
        data = {
            "name": "x",
            "scenario": {"name": "iridium"},
            "fault_program": [{"kind": "terminate", "at_s": 5, "target": "hawaii"}],
            "runtime": {"parallelism": "processes", "workers": 2, "seed": 7, "duration_s": 60},
            "metrics": {"outputs": ["summary"]},
            "serve": {"port": 8080, "queue_limit": 8, "ack_timeout_s": 2},
        }
        spec = ExperimentSpec.from_dict(data)  # an integer is a number: 5 s, 60 s, 2 s
        assert (spec.fault_program[0].at_s, spec.runtime.duration_s) == (5.0, 60.0)
        level = data if not table else data[table]
        level = level[0] if table == "fault_program" else level
        if value is None:
            del level[key]
        else:
            level[key] = value
        with pytest.raises(ExperimentSpecError, match=f"^{message}$"):
            ExperimentSpec.from_dict(data)

    def test_name_required(self):
        with pytest.raises(ExperimentSpecError):
            ExperimentSpec(name="", scenario=ScenarioSpec(name="iridium"))


def _full_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="round-trip",
        scenario=ScenarioSpec(
            name="pacific-dart",
            params={"sink_count": 8, "buoy_count": 4, "duration_s": 30.0},
            overrides={"update_interval_s": 10.0},
        ),
        workload=WorkloadSpec(app="dart", params={"deployment": "central"}),
        fault_program=(
            FaultOp(kind="terminate", at_s=10.0, target="hawaii"),
            FaultOp(
                kind="operator-degradation",
                target="oneweb",
                params={"isls_per_step": 5, "interval_s": 30.0},
            ),
        ),
        runtime=RuntimeSpec(parallelism="processes", workers=2, seed=7),
        metrics=MetricsSpec(outputs=("summary", "latency-csv")),
    )


class TestSpecSerialisation:
    def test_toml_round_trip_is_byte_stable(self):
        spec = _full_spec()
        text = spec.to_toml()
        reparsed = ExperimentSpec.from_dict(tomllib.loads(text))
        assert reparsed == spec
        assert reparsed.to_toml() == text

    def test_json_round_trip_is_byte_stable(self):
        spec = _full_spec()
        text = json.dumps(spec.to_dict(), indent=2)
        reparsed = ExperimentSpec.from_dict(json.loads(text))
        assert reparsed == spec
        assert json.dumps(reparsed.to_dict(), indent=2) == text

    def test_dict_round_trip(self):
        spec = _full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_toml_refuses_a_none_in_params(self):
        """TOML has no null: a ``None`` parameter is refused, not dropped for its default."""
        spec = ExperimentSpec(
            name="all-kuiper",
            scenario=ScenarioSpec(name="mixed-operator", params={"kuiper_shell_limit": None}),
        )
        with pytest.raises(
            ExperimentSpecError, match="scenario.params.kuiper_shell_limit is None"
        ):
            spec.to_toml()
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_path_toml_and_json(self, tmp_path):
        spec = _full_spec()
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(spec.to_toml())
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_path(toml_path) == spec
        assert ExperimentSpec.from_path(json_path) == spec

    def test_from_path_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(ExperimentSpecError, match="suffix"):
            ExperimentSpec.from_path(path)

    def test_with_runtime_overrides(self):
        spec = _full_spec().with_runtime(parallelism="threads", workers=None)
        assert spec.runtime.parallelism == "threads"
        assert spec.runtime.workers is None
        assert spec.runtime.seed == 7  # untouched fields survive


class TestBuildConfiguration:
    def test_registry_scenario_with_params(self):
        spec = ExperimentSpec(
            name="cfg",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 50.0, "update_interval_s": 25.0}
            ),
        )
        config = build_configuration(spec)
        assert config.duration_s == 50.0
        assert config.total_satellites == 66

    def test_config_file_scenario(self, tmp_path):
        config = _small_two_operator_configuration()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        spec = ExperimentSpec(name="cfg", scenario=ScenarioSpec(path=str(path)))
        loaded = build_configuration(spec)
        assert loaded.total_satellites == config.total_satellites
        assert loaded.ground_station_names == ["hawaii"]

    def test_overrides_and_runtime_precedence(self):
        spec = ExperimentSpec(
            name="cfg",
            scenario=ScenarioSpec(
                name="iridium",
                params={"duration_s": 50.0},
                overrides={"duration_s": 70.0, "hosts": {"count": 5}},
            ),
            runtime=RuntimeSpec(duration_s=90.0, seed=3),
        )
        config = build_configuration(spec)
        assert config.duration_s == 90.0  # runtime wins over the override
        assert config.seed == 3
        assert config.hosts.count == 5
        assert config.hosts.cpu_cores == 32  # merged, not replaced

    def test_unknown_override_rejected(self):
        spec = ExperimentSpec(
            name="cfg",
            scenario=ScenarioSpec(name="iridium", overrides={"warp": 9}),
        )
        with pytest.raises(ExperimentSpecError, match="unknown key 'scenario.overrides.warp'"):
            build_configuration(spec)

    def test_unsupported_config_suffix(self):
        with pytest.raises(ConfigurationError, match="suffix"):
            Configuration.from_path("config.yaml")


def _no_testbed(*args, **kwargs):
    raise AssertionError("the testbed was built before the params were read")


class TestParamsAreReadBeforeTheRun:
    """Every params table is read against the call that consumes it, and a
    mistake is an error naming its dotted path before anything runs."""

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"duration_s": "long"}, "scenario.overrides.duration_s must be a number, not 'long'"),
            ({"hosts": {"cnt": 3}},
             "unknown key 'scenario.overrides.hosts.cnt' (known: count, cpu_cores, memory_mib)"),
            ({"seed": True}, "scenario.overrides.seed must be an integer, not True"),
        ],
    )
    def test_a_bad_override(self, overrides, message):
        spec = ExperimentSpec(
            name="x", scenario=ScenarioSpec(name="iridium", overrides=overrides)
        )
        with pytest.raises(ExperimentSpecError) as error:
            build_configuration(spec)
        assert str(error.value) == message

    def test_a_scenario_param_of_the_wrong_type(self):
        spec = ExperimentSpec(
            name="x", scenario=ScenarioSpec(name="pacific-dart", params={"buoy_count": "four"})
        )
        with pytest.raises(ConfigurationError) as error:
            build_configuration(spec)
        assert str(error.value) == "scenario.params.buoy_count must be an integer, not 'four'"

    @pytest.mark.parametrize(
        ("app", "params", "message"),
        [
            ("dart", {"deploymnet": "satellite"}, "unknown key 'workload.params.deploymnet' "
             "(known: deployment, group_count, reading_interval_s)"),
            ("dart", {"group_count": 2.5}, "workload.params.group_count must be an integer, not 2.5"),
            ("meetup", {"mode": "orbit"},
             "workload.params.mode must be one of 'satellite', 'cloud', not 'orbit'"),
            ("none", {"duration_s": 5.0}, "unknown key 'workload.params.duration_s' (known: none)"),
            ("handover", {"interval_s": 5.0}, "workload.params.station is required"),
        ],
    )
    def test_a_bad_workload_param_is_refused_before_the_testbed_is_built(
        self, app, params, message, monkeypatch
    ):
        monkeypatch.setattr(runner_module, "Celestial", _no_testbed)
        spec = ExperimentSpec(
            name="x",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app=app, params=params),
        )
        with pytest.raises(ExperimentSpecError) as error:
            ExperimentRunner(spec).run()
        assert str(error.value) == message

    def test_the_meetup_stream_params_default_to_the_stream_defaults(self):
        from repro.apps import VideoStreamParams

        defaults = inspect.signature(runner_module._run_meetup).parameters
        stream = VideoStreamParams()
        assert defaults["bitrate_kbps"].default == stream.bitrate_kbps
        assert defaults["packet_interval_s"].default == stream.packet_interval_s

    @pytest.mark.parametrize(
        ("kind", "target", "params", "message"),
        [
            ("packet-loss", "hawaii->0/0", {"probabilty": 0.1},
             "unknown key 'fault_program.params.probabilty' (known: probability)"),
            ("terminate", "hawaii", {"duration_s": 5.0},
             "unknown key 'fault_program.params.duration_s' (known: none)"),
            ("degrade-cpu", "hawaii", {}, "fault_program.params.quota_fraction is required"),
            ("degrade-cpu", "hawaii", {"quota_fraction": "half"},
             "fault_program.params.quota_fraction must be a number, not 'half'"),
            ("bandwidth-cap", "hawaii->0/0", {"bandwidth_kbps": True},
             "fault_program.params.bandwidth_kbps must be a number, not True"),
            ("operator-degradation", "iridium", {"event_rate": 2.0},
             "unknown key 'fault_program.params.event_rate' "
             "(known: isls_per_step, interval_s, target_fraction)"),
            ("ground-outage", "", {"lat_min": "south"},
             "fault_program.params.lat_min must be a number, not 'south'"),
            ("ground-outage", "hawaii", {"duration_s": "5 s"},
             "fault_program.params.duration_s must be a number, not '5 s'"),
            ("ground-outage", "", {"lat_min": 30, "lat_max": 10, "lon_min": 0, "lon_max": 10},
             "fault_program.params: lat_min must be below lat_max"),
            ("ground-outage", "hawaii, 3.0", {},
             "fault target: ground-outage takes stations, not ['hawaii', '3.0']"),
            # The injector method an op runs takes one machine or a directed pair.
            ("packet-loss", "hawaii", {},
             "fault_program.target: a packet-loss op targets \"<machine>-><machine>\", "
             "not 'hawaii'"),
            ("terminate", "hawaii->0/0", {},
             "fault_program.target: a terminate op targets one machine "
             "(\"<station>\" or \"<shell>/<id>\"), not 'hawaii->0/0'"),
            ("terminate", "", {},
             "fault_program.target: a terminate op targets one machine "
             "(\"<station>\" or \"<shell>/<id>\"), not ''"),
        ],
    )
    def test_a_bad_fault_param_is_refused_when_the_program_is_scheduled(
        self, kind, target, params, message
    ):
        # A timed op: its params are read when the program is armed, not
        # when the op fires mid-run.
        spec = ExperimentSpec(
            name="x",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 30.0, "update_interval_s": 30.0}
            ),
            fault_program=(FaultOp(kind=kind, at_s=5.0, target=target, params=params),),
        )
        with pytest.raises(ExperimentSpecError) as error:
            ExperimentRunner(spec).run()
        assert str(error.value) == message

    def test_a_packet_loss_op_without_a_probability_drops_everything(self):
        spec = ExperimentSpec(
            name="x",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 30.0, "update_interval_s": 30.0}
            ),
            fault_program=(FaultOp(kind="packet-loss", target="hawaii->0/0"),),
        )
        (event,) = ExperimentRunner(spec).run().fault_events
        assert (event.kind, event.detail) == ("packet-loss", "p=1.0")


class TestRunnerEquivalence:
    def test_spec_run_matches_hand_wired_dart(self):
        from repro.apps import DartExperiment
        from repro.core.testbed import Celestial
        from repro.scenarios import dart_configuration

        config = dart_configuration(
            deployment="central", buoy_count=4, sink_count=8, duration_s=30.0
        )
        testbed = Celestial(config)
        try:
            direct = DartExperiment(testbed, deployment="central", group_count=2).run()
        finally:
            testbed.close()

        spec = ExperimentSpec(
            name="dart-equivalence",
            scenario=ScenarioSpec(
                name="pacific-dart",
                params={
                    "deployment": "central",
                    "buoy_count": 4,
                    "sink_count": 8,
                    "duration_s": 30.0,
                },
            ),
            workload=WorkloadSpec(
                app="dart", params={"deployment": "central", "group_count": 2}
            ),
        )
        result = ExperimentRunner(spec).run()
        assert result.metrics == direct.summary_metrics()

    def test_fault_program_reproduces_operator_degradation(self, monkeypatch):
        from repro.core.testbed import Celestial
        from repro.experiments import runner
        from repro.scenarios.degraded import OperatorDegradation

        # Hand-wired: construct the cascade against the victim shell and run.
        testbed = Celestial(_small_two_operator_configuration())
        try:
            manual = OperatorDegradation(
                testbed, 1, isls_per_step=5, interval_s=30.0, target_fraction=0.4
            )
            testbed.start()
            testbed.sim.process(manual.process())
            testbed.run()
            manual_events = list(testbed.fault_injector.events)
        finally:
            testbed.close()
        assert manual.severed  # the cascade actually ran

        # Declarative: the same schedule as one fault-program op.
        @scenario("tmp-small-degraded")
        def factory():
            return _small_two_operator_configuration()

        interpreters = []
        schedule = runner.schedule_fault_program
        monkeypatch.setattr(
            runner,
            "schedule_fault_program",
            lambda *args: interpreters.extend(schedule(*args)),
        )
        try:
            spec = ExperimentSpec(
                name="degradation-equivalence",
                scenario=ScenarioSpec(name="tmp-small-degraded"),
                workload=WorkloadSpec(app="none"),
                fault_program=(
                    FaultOp(
                        kind="operator-degradation",
                        target="oneweb",
                        params={
                            "isls_per_step": 5,
                            "interval_s": 30.0,
                            "target_fraction": 0.4,
                        },
                    ),
                ),
            )
            result = ExperimentRunner(spec).run()
        finally:
            _REGISTRY.pop("tmp-small-degraded")

        declarative = interpreters[0]
        assert isinstance(declarative, OperatorDegradation)
        # The link-severing sequence is reproduced exactly: same severed
        # pairs in the same order, same step progression, and an identical
        # fault-injector event log.
        assert declarative.severed == manual.severed
        assert [step.total_severed for step in declarative.steps] == [
            step.total_severed for step in manual.steps
        ]
        assert result.fault_events == manual_events

    def test_handover_workload_requires_station(self):
        spec = ExperimentSpec(
            name="handover-bad",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app="handover"),
        )
        with pytest.raises(ExperimentSpecError, match="station"):
            ExperimentRunner(spec).run()

    def test_handover_rejects_fault_program(self):
        spec = ExperimentSpec(
            name="handover-faulted",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app="handover", params={"station": "hawaii"}),
            fault_program=(FaultOp(kind="reboot", target="hawaii"),),
        )
        with pytest.raises(ExperimentSpecError, match="fault program"):
            ExperimentRunner(spec).run()

    def test_handover_workload_runs(self):
        spec = ExperimentSpec(
            name="handover-ok",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 120.0, "update_interval_s": 60.0}
            ),
            workload=WorkloadSpec(
                app="handover",
                params={"station": "hawaii", "duration_s": 120.0, "interval_s": 60.0},
            ),
        )
        result = ExperimentRunner(spec).run()
        assert result.title.startswith("Uplink handovers of hawaii")
        assert [row[0] for row in result.metrics] == [
            "handovers",
            "handovers per minute",
            "mean uplink duration [s]",
            "coverage fraction",
        ]


class TestResultBundle:
    def test_bundle_written_for_none_workload(self, tmp_path):
        spec = ExperimentSpec(
            name="bundle-smoke",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 60.0, "update_interval_s": 30.0}
            ),
            workload=WorkloadSpec(app="none"),
            fault_program=(FaultOp(kind="reboot", at_s=30.0, target="hawaii"),),
            metrics=MetricsSpec(outputs=("summary", "resource-traces", "fault-events")),
        )
        output_dir = tmp_path / "bundle"
        result = ExperimentRunner(spec, output_dir=output_dir).run()
        names = {path.name for path in result.output_paths}
        assert "result.json" in names
        assert "fault_events.json" in names
        assert any(name.startswith("resources_host") for name in names)
        summary = json.loads((output_dir / "result.json").read_text())
        assert summary["spec"]["name"] == "bundle-smoke"
        assert summary["fault_events"] == 1
        events = json.loads((output_dir / "fault_events.json").read_text())
        assert events[0]["machine"] == "hawaii"
        assert events[0]["kind"] == "reboot"


class TestTransportLatency:
    def test_process_backend_reports_per_worker_ack_latency(self):
        from repro.core.testbed import Celestial

        config = build("iridium", duration_s=40.0, update_interval_s=20.0)
        testbed = Celestial(config, parallelism="processes", worker_count=2)
        try:
            testbed.start()
            testbed.run()
            stats = testbed.coordinator.stats
            assert sorted(stats.worker_ack_seconds) == [0, 1]
            for samples in stats.worker_ack_seconds.values():
                assert samples
                assert all(latency > 0 for latency in samples)
        finally:
            testbed.close()

    def test_thread_backend_has_no_transport_latency(self):
        from repro.core.testbed import Celestial

        config = build("iridium", duration_s=40.0, update_interval_s=20.0)
        testbed = Celestial(config)
        try:
            testbed.start()
            testbed.run()
            assert testbed.coordinator.stats.worker_ack_seconds == {}
        finally:
            testbed.close()
