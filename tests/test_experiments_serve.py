"""Harness-layer tests of the serving tier and the new fault-op kinds.

Covers :class:`ServeSpec` (validation, byte-stable round-trips, the CLI's
``--serve`` address parser), the runner attaching a
:class:`~repro.serve.gateway.GatewayServer` to a run and recording its
statistics in the result bundle, the tunable table-cache value function
surfacing in ``result.json``, and — for the ``bandwidth-cap`` and
``ground-outage`` fault ops — injector event logs identical to hand-wired
runs of the same schedule.
"""

import json

import pytest

from repro.core import (
    ComputeParams,
    Configuration,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.core.testbed import Celestial
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ExperimentSpecError,
    FaultOp,
    ScenarioSpec,
    ServeSpec,
    WorkloadSpec,
    build,
    scenario,
    unregister,
)
from repro.orbits import GroundStation, ShellGeometry


class TestServeSpec:
    def test_validation(self):
        with pytest.raises(ExperimentSpecError, match="queue"):
            ServeSpec(queue_limit=0)
        with pytest.raises(ExperimentSpecError, match="timeout"):
            ServeSpec(ack_timeout_s=0.0)
        with pytest.raises(ExperimentSpecError, match="port"):
            ServeSpec(port=70000)

    def test_removed_all_pairs_key_is_refused(self):
        stale = {"name": "x", "scenario": {"name": "iridium"}, "serve": {"all_pairs": True}}
        with pytest.raises(
            ExperimentSpecError, match="serve.all_pairs was removed: every path row"
        ):
            ExperimentSpec.from_dict(stale)

    def test_round_trips_are_byte_stable(self):
        spec = ExperimentSpec(
            name="serve-round-trip",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app="none"),
            serve=ServeSpec(port=9099, queue_limit=16, auth_secret="orbital"),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        toml = spec.to_toml()
        again = ExperimentSpec.from_toml_text(toml)
        assert again == spec
        assert again.to_toml() == toml

    def test_default_serve_table_round_trips(self):
        spec = ExperimentSpec(
            name="serve-defaults",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app="none"),
            serve=ServeSpec(),
        )
        again = ExperimentSpec.from_toml_text(spec.to_toml())
        assert again.serve == ServeSpec()

    def test_with_serve_parses_addresses(self):
        spec = ExperimentSpec(
            name="serve-cli",
            scenario=ScenarioSpec(name="iridium"),
            workload=WorkloadSpec(app="none"),
        )
        assert spec.with_serve("").serve == ServeSpec()
        assert spec.with_serve("0.0.0.0:9099").serve == ServeSpec(
            host="0.0.0.0", port=9099
        )
        assert spec.with_serve(":9099").serve == ServeSpec(port=9099)
        assert spec.with_serve("10.0.0.7").serve == ServeSpec(host="10.0.0.7")


class TestRunnerServe:
    def test_gateway_serves_the_run_and_lands_in_the_bundle(self, tmp_path):
        spec = ExperimentSpec(
            name="serve-run",
            scenario=ScenarioSpec(
                name="iridium", params={"duration_s": 20.0, "update_interval_s": 5.0}
            ),
            workload=WorkloadSpec(app="none"),
            serve=ServeSpec(),
        )
        output_dir = tmp_path / "bundle"
        result = ExperimentRunner(spec, output_dir=output_dir).run()
        stats = result.serve_statistics
        assert stats["published_epochs"] >= 3
        assert stats["encode_count"] >= stats["published_epochs"]
        summary = json.loads((output_dir / "result.json").read_text())
        assert summary["serve"]["published_epochs"] == stats["published_epochs"]


class TestBandwidthCapEquivalence:
    def test_spec_run_matches_hand_wired_event_log(self):
        params = {"duration_s": 60.0, "update_interval_s": 30.0}
        config = build("iridium", **params)
        testbed = Celestial(config)
        try:
            testbed.start()
            injector = testbed.fault_injector
            hawaii = testbed.ground_station("hawaii")
            satellite = testbed.satellite(0, 0)
            testbed.ensure_machine(satellite)

            def cap():
                yield testbed.sim.timeout(30.0)
                injector.apply_op(
                    "bandwidth-cap",
                    testbed.sim.now,
                    source=hawaii,
                    destination=satellite,
                    bandwidth_kbps=256.0,
                )

            def clear():
                yield testbed.sim.timeout(45.0)
                injector.apply_op(
                    "clear-bandwidth-cap",
                    testbed.sim.now,
                    source=hawaii,
                    destination=satellite,
                )

            testbed.sim.process(cap())
            testbed.sim.process(clear())
            testbed.run()
            manual_events = list(injector.events)
        finally:
            testbed.close()
        assert [event.kind for event in manual_events] == [
            "bandwidth-cap",
            "bandwidth-cap-cleared",
        ]

        spec = ExperimentSpec(
            name="bandwidth-cap-equivalence",
            scenario=ScenarioSpec(name="iridium", params=params),
            workload=WorkloadSpec(app="none"),
            fault_program=(
                FaultOp(
                    kind="bandwidth-cap",
                    at_s=30.0,
                    target="hawaii->0/0",
                    params={"bandwidth_kbps": 256.0},
                ),
                FaultOp(kind="clear-bandwidth-cap", at_s=45.0, target="hawaii->0/0"),
            ),
        )
        result = ExperimentRunner(spec).run()
        assert result.fault_events == manual_events


def _two_station_configuration(duration_s: float = 60.0) -> Configuration:
    compute = ComputeParams(vcpu_count=1, memory_mib=256)
    return Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=compute,
            ),
        ),
        ground_stations=(
            GroundStationConfig(
                station=GroundStation("hawaii", 21.3, -157.9), compute=compute
            ),
            GroundStationConfig(
                station=GroundStation("reykjavik", 64.1, -21.9), compute=compute
            ),
        ),
        update_interval_s=30.0,
        duration_s=duration_s,
    )


class TestGroundOutageEquivalence:
    def test_named_stations_match_hand_wired_event_log(self):
        config = _two_station_configuration()
        testbed = Celestial(config)
        try:
            testbed.start()
            injector = testbed.fault_injector
            stations = [
                testbed.ground_station("hawaii"),
                testbed.ground_station("reykjavik"),
            ]

            def down():
                yield testbed.sim.timeout(20.0)
                for machine in stations:
                    injector.apply_op("terminate", testbed.sim.now, machine=machine)

            def recover():
                yield testbed.sim.timeout(20.0 + 25.0)
                for machine in stations:
                    injector.apply_op("reboot", testbed.sim.now, machine=machine)

            testbed.sim.process(down())
            testbed.sim.process(recover())
            testbed.run()
            manual_events = list(injector.events)
        finally:
            testbed.close()
        assert [event.kind for event in manual_events] == [
            "terminate",
            "terminate",
            "reboot",
            "reboot",
        ]

        @scenario("tmp-serve-outage")
        def factory():
            return _two_station_configuration()

        try:
            spec = ExperimentSpec(
                name="ground-outage-equivalence",
                scenario=ScenarioSpec(name="tmp-serve-outage"),
                workload=WorkloadSpec(app="none"),
                fault_program=(
                    FaultOp(
                        kind="ground-outage",
                        at_s=20.0,
                        target="hawaii,reykjavik",
                        params={"duration_s": 25.0},
                    ),
                ),
            )
            result = ExperimentRunner(spec).run()
        finally:
            unregister("tmp-serve-outage")
        assert result.fault_events == manual_events

    def test_regional_blackout_selects_stations_by_bounding_box(self):
        @scenario("tmp-serve-region")
        def factory():
            return _two_station_configuration()

        try:
            spec = ExperimentSpec(
                name="regional-blackout",
                scenario=ScenarioSpec(name="tmp-serve-region"),
                workload=WorkloadSpec(app="none"),
                fault_program=(
                    FaultOp(
                        kind="ground-outage",
                        at_s=20.0,
                        params={
                            # Only hawaii sits inside this box.
                            "lat_min": 15.0,
                            "lat_max": 25.0,
                            "lon_min": -165.0,
                            "lon_max": -150.0,
                            "duration_s": 10.0,
                        },
                    ),
                ),
            )
            result = ExperimentRunner(spec).run()
        finally:
            unregister("tmp-serve-region")
        assert [(e.time_s, e.machine, e.kind) for e in result.fault_events] == [
            (20.0, "hawaii", "terminate"),
            (30.0, "hawaii", "reboot"),
        ]

    def test_empty_selection_rejected(self):
        @scenario("tmp-serve-empty")
        def factory():
            return _two_station_configuration()

        try:
            spec = ExperimentSpec(
                name="empty-outage",
                scenario=ScenarioSpec(name="tmp-serve-empty"),
                workload=WorkloadSpec(app="none"),
                fault_program=(
                    FaultOp(
                        kind="ground-outage",
                        params={
                            "lat_min": -5.0,
                            "lat_max": 5.0,
                            "lon_min": 0.0,
                            "lon_max": 5.0,
                        },
                    ),
                ),
            )
            with pytest.raises(ExperimentSpecError, match="no ground stations"):
                ExperimentRunner(spec).run()
        finally:
            unregister("tmp-serve-empty")

    def test_region_requires_all_bounds(self):
        @scenario("tmp-serve-bounds")
        def factory():
            return _two_station_configuration()

        try:
            spec = ExperimentSpec(
                name="missing-bounds",
                scenario=ScenarioSpec(name="tmp-serve-bounds"),
                workload=WorkloadSpec(app="none"),
                fault_program=(
                    FaultOp(kind="ground-outage", params={"lat_min": 0.0}),
                ),
            )
            with pytest.raises(ExperimentSpecError, match="missing params"):
                ExperimentRunner(spec).run()
        finally:
            unregister("tmp-serve-bounds")
