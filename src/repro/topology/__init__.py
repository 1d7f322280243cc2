"""Constellation network topology: ISLs, uplinks, link parameters, shortest paths."""

from repro.topology.graph import LinkType, NetworkGraph, NodeIndex, TopologyDiff
from repro.topology.isl import grid_plus_isl_pairs
from repro.topology.linkparams import (
    link_delay_ms,
    propagation_delay_ms,
    serialization_delay_ms,
)
from repro.topology.paths import (
    PathEngine,
    PathEngineStats,
    PathResult,
    PathRows,
    ShortestPaths,
)
from repro.topology.uplinks import visible_satellites, visible_satellites_batch

__all__ = [
    "LinkType",
    "NetworkGraph",
    "NodeIndex",
    "PathEngine",
    "PathEngineStats",
    "PathResult",
    "PathRows",
    "ShortestPaths",
    "TopologyDiff",
    "grid_plus_isl_pairs",
    "link_delay_ms",
    "propagation_delay_ms",
    "serialization_delay_ms",
    "visible_satellites",
    "visible_satellites_batch",
]
