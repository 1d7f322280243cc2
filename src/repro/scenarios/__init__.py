"""Ready-made scenario configurations from the paper's evaluation and beyond.

Every configuration constructor is registered with the scenario registry
(:mod:`repro.experiments.registry`) under a stable name, so experiments can
reference it declaratively (``repro.scenarios.get("pacific-dart")``,
``list_scenarios()``) as well as import it directly.  A constellation's
satellite count is ``sum(build(name).shell_sizes)``.

:mod:`repro.scenarios.operators` is the operator catalogue: one ``SHELLS``
table of every operator's shells, :func:`operator_shells` to build them and
six constellations registered over them:

* ``starlink-phase1`` — the planned phase I Starlink constellation (five
  shells, 4,409 satellites; Fig. 1).
* ``kuiper`` — the Project Kuiper system (three shells, 3,236 satellites).
* ``oneweb`` — the OneWeb constellation (648 satellites, near-polar
  Walker-star, exercising the +GRID seam at scale).
* ``telesat-lightspeed`` — the Telesat Lightspeed hybrid (a polar
  Walker-star shell plus an inclined Walker-delta shell, 298 satellites).
* ``iridium`` — the Iridium constellation of the DART case study (66
  satellites, 180° arc of ascending nodes; Fig. 10).
* ``mixed-operator`` — Starlink + Kuiper + OneWeb shells together, stressing
  multi-shell uplink selection.

Three scenarios put a ground segment or a fault program on the catalogue:

* :mod:`repro.scenarios.degraded` — the mixed-operator sky whose OneWeb
  shell progressively loses ISLs through the fault-injection API —
  ``degraded-operator``.
* :mod:`repro.scenarios.west_africa` — the §4 meetup/video-conference
  deployment with clients in Accra, Abuja and Yaoundé and a cloud data centre
  in Johannesburg (Fig. 3) — ``west-africa-meetup``.
* :mod:`repro.scenarios.pacific` — the §5 real-time ocean environment alert
  system with 100 DART buoys and 200 data sinks in the Pacific (Figs. 9-11) —
  ``pacific-dart``.
"""

from repro.experiments.registry import (
    ScenarioEntry,
    UnknownScenarioError,
    build,
    entries,
    get,
    list_scenarios,
    scenario,
)
from repro.scenarios.operators import (
    iridium_configuration,
    iridium_shell,
    kuiper_configuration,
    mixed_operator_configuration,
    oneweb_configuration,
    operator_shells,
    starlink_phase1_configuration,
    telesat_configuration,
)
from repro.scenarios.degraded import (
    DEFAULT_VICTIM_SHELL,
    OperatorDegradation,
    degraded_mixed_configuration,
    victim_shell_index,
)
from repro.scenarios.west_africa import (
    CLIENT_LOCATIONS,
    CLOUD_LOCATION,
    west_africa_bounding_box,
    west_africa_configuration,
)
from repro.scenarios.pacific import (
    PACIFIC_TSUNAMI_WARNING_CENTER,
    dart_configuration,
    generate_buoys,
    generate_sinks,
)

__all__ = [
    "CLIENT_LOCATIONS",
    "CLOUD_LOCATION",
    "DEFAULT_VICTIM_SHELL",
    "OperatorDegradation",
    "PACIFIC_TSUNAMI_WARNING_CENTER",
    "ScenarioEntry",
    "UnknownScenarioError",
    "build",
    "dart_configuration",
    "degraded_mixed_configuration",
    "entries",
    "generate_buoys",
    "generate_sinks",
    "get",
    "iridium_configuration",
    "iridium_shell",
    "kuiper_configuration",
    "list_scenarios",
    "mixed_operator_configuration",
    "oneweb_configuration",
    "operator_shells",
    "scenario",
    "starlink_phase1_configuration",
    "telesat_configuration",
    "victim_shell_index",
    "west_africa_bounding_box",
    "west_africa_configuration",
]
