"""Celestial host substrate: physical servers that run microVMs.

Celestial runs on an arbitrary number of standard Linux servers ("hosts"),
each running a Machine Manager that boots microVMs, shapes their network and
reports resource usage (§3).  Here a host is an accounting construct: it
holds the microVMs placed on it and the CPU/memory usage accounting behind
Figs. 7 and 8, and nothing an application observes depends on it.
Placement is one rule — least reserved memory
(``Coordinator._least_loaded_manager``); :class:`MigrationScheduler` plans
moves between hosts for the migration ablation.
"""

from repro.hosts.host import Host, HostError
from repro.hosts.resources import ResourceTrace, UsageSample
from repro.hosts.migration import MigrationEvent, MigrationPlanEntry, MigrationScheduler

__all__ = [
    "Host",
    "HostError",
    "MigrationEvent",
    "MigrationPlanEntry",
    "MigrationScheduler",
    "ResourceTrace",
    "UsageSample",
]
