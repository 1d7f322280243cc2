"""Ready-made scenario configurations from the paper's evaluation and beyond.

Every configuration constructor is registered with the scenario registry
(:mod:`repro.experiments.registry`) under a stable name, so experiments can
reference it declaratively (``repro.scenarios.get("pacific-dart")``,
``list_scenarios()``) as well as import it directly.  A constellation's
satellite count is ``sum(build(name).shell_sizes)``:

* :mod:`repro.scenarios.starlink` — the planned phase I Starlink constellation
  (five shells, 4,409 satellites; Fig. 1) — ``starlink-phase1``.
* :mod:`repro.scenarios.iridium` — the Iridium constellation used by the DART
  case study (66 satellites, 180° arc of ascending nodes; Fig. 10) —
  ``iridium``.
* :mod:`repro.scenarios.kuiper` — the Project Kuiper system (three shells,
  3,236 satellites) — ``kuiper``.
* :mod:`repro.scenarios.oneweb` — the OneWeb constellation (648 satellites,
  near-polar Walker-star, exercising the +GRID seam at scale) — ``oneweb``.
* :mod:`repro.scenarios.mixed` — a mixed-operator Starlink + Kuiper + OneWeb
  configuration stressing multi-shell uplink selection — ``mixed-operator``.
* :mod:`repro.scenarios.telesat` — the Telesat Lightspeed hybrid (a polar
  Walker-star shell plus an inclined Walker-delta shell, 298 satellites) —
  ``telesat-lightspeed``.
* :mod:`repro.scenarios.degraded` — a degraded-operator scenario on top of
  the mixed configuration: one operator's shell progressively loses ISLs
  through the fault-injection API — ``degraded-operator``.
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
from repro.scenarios.starlink import (
    starlink_first_shell,
    starlink_phase1_configuration,
    starlink_phase1_shells,
)
from repro.scenarios.iridium import iridium_configuration, iridium_shell
from repro.scenarios.kuiper import kuiper_configuration, kuiper_shells
from repro.scenarios.oneweb import oneweb_configuration, oneweb_shell
from repro.scenarios.mixed import (
    MIXED_GROUND_STATIONS,
    mixed_operator_configuration,
)
from repro.scenarios.telesat import (
    TELESAT_GROUND_STATIONS,
    telesat_configuration,
    telesat_inclined_shell,
    telesat_polar_shell,
    telesat_shells,
)
from repro.scenarios.degraded import (
    DEFAULT_VICTIM_SHELL,
    OperatorDegradation,
    degraded_mixed_configuration,
    degraded_operator_configuration,
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
    "MIXED_GROUND_STATIONS",
    "OperatorDegradation",
    "PACIFIC_TSUNAMI_WARNING_CENTER",
    "ScenarioEntry",
    "TELESAT_GROUND_STATIONS",
    "UnknownScenarioError",
    "build",
    "dart_configuration",
    "degraded_mixed_configuration",
    "degraded_operator_configuration",
    "entries",
    "generate_buoys",
    "generate_sinks",
    "get",
    "iridium_configuration",
    "iridium_shell",
    "kuiper_configuration",
    "kuiper_shells",
    "list_scenarios",
    "mixed_operator_configuration",
    "oneweb_configuration",
    "oneweb_shell",
    "scenario",
    "starlink_first_shell",
    "starlink_phase1_configuration",
    "starlink_phase1_shells",
    "telesat_configuration",
    "telesat_inclined_shell",
    "telesat_polar_shell",
    "telesat_shells",
    "victim_shell_index",
    "west_africa_bounding_box",
    "west_africa_configuration",
]
