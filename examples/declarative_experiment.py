#!/usr/bin/env python3
"""Declarative experiments: specs, the scenario registry and fault programs.

This example shows the experiment harness end to end:

* listing the registered scenarios and building one by name,
* composing an :class:`~repro.experiments.ExperimentSpec` in Python,
* round-tripping it through TOML (the `repro-celestial run` file format),
* running it — including a declarative fault program — with the one
  :class:`~repro.experiments.ExperimentRunner`.

Run with:  python examples/declarative_experiment.py
"""

import tomllib

from repro.analysis import render_table
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    FaultOp,
    MetricsSpec,
    RuntimeSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
    entries,
    list_scenarios,
)


def main() -> None:
    print("=== Registered scenarios ===")
    rows = [[item.name, item.description] for item in entries()]
    print(render_table(["scenario", "description"], rows))

    # Any scenario builds a plain Configuration, with factory parameters.
    config = build("iridium", duration_s=120.0, update_interval_s=30.0)
    print(f"\niridium: {config.total_satellites} satellites, "
          f"{config.ground_station_names} ground stations")

    # A spec names a scenario, a workload, the runtime and a fault program.
    # The fault program is data: each op is interpreted by the runner, so the
    # same schedule can be replayed, versioned and swept like any other
    # parameter.  Here the Hawaii ground station reboots mid-run.
    spec = ExperimentSpec(
        name="iridium-reboot",
        scenario=ScenarioSpec(
            name="iridium",
            params={"duration_s": 120.0, "update_interval_s": 30.0},
        ),
        workload=WorkloadSpec(app="none"),
        fault_program=(
            FaultOp(kind="terminate", at_s=45.0, target="hawaii"),
            FaultOp(kind="reboot", at_s=75.0, target="hawaii"),
        ),
        runtime=RuntimeSpec(parallelism="threads"),
        metrics=MetricsSpec(outputs=("summary", "fault-events")),
    )

    # A spec is written by the one writer of repro.core.tables, the inverse
    # of the reader that loads it (the configuration file's too): the TOML
    # names every field, defaults included, and reads back byte-stably —
    # what you run is what you can check in next to the paper's figures.
    text = spec.to_toml()
    assert ExperimentSpec.from_dict(tomllib.loads(text)).to_toml() == text
    print("\n=== Spec as TOML (repro-celestial run <file>) ===")
    print(text)

    result = ExperimentRunner(spec).run()
    print(render_table(["metric", "value"], result.metrics, title=result.title))
    print("\nfault events:")
    for event in result.fault_events:
        print(f"  t={event.time_s:6.1f}s  {event.machine}: {event.kind} {event.detail}")

    assert list_scenarios()  # the registry is never empty once imported


if __name__ == "__main__":
    main()
