"""Declarative experiments: scenario registry, typed specs, one runner.

This package extends the paper's single-configuration principle (§3.1) from
the testbed to the experiment.  Three pieces:

* :mod:`repro.experiments.registry` — a ``@scenario("name")`` decorator
  registry over the scenario modules, so configurations are discoverable by
  name (``get``, ``list_scenarios``) instead of by import.
* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, a frozen
  dataclass composing scenario, fault program, workload, runtime and metrics
  selection, with byte-stable TOML/JSON round-trips.
* :mod:`repro.experiments.runner` — :class:`ExperimentRunner`, the one code
  path that builds the testbed from a spec, schedules the fault program,
  drives the workload and writes the result bundle.

Parameter sweeps and ablations thus become data (a directory of TOML
files driven by ``repro-celestial run``), not new Python modules.
"""

from repro.experiments.registry import (
    ScenarioEntry,
    UnknownScenarioError,
    build,
    entries,
    entry,
    get,
    list_scenarios,
    scenario,
)
from repro.experiments.spec import (
    ExperimentSpec,
    ExperimentSpecError,
    FaultOp,
    MetricsSpec,
    RuntimeSpec,
    ScenarioSpec,
    ServeSpec,
    WorkloadSpec,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    build_configuration,
    schedule_fault_program,
)

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "ExperimentSpecError",
    "FaultOp",
    "MetricsSpec",
    "RuntimeSpec",
    "ScenarioEntry",
    "ScenarioSpec",
    "ServeSpec",
    "UnknownScenarioError",
    "WorkloadSpec",
    "build",
    "build_configuration",
    "entries",
    "entry",
    "get",
    "list_scenarios",
    "scenario",
    "schedule_fault_program",
]
