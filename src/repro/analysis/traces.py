"""Export measurement results to CSV.

Celestial experiments typically store their measurements in a central
location for later analysis (§3.1 notes emulated servers can reach the
Internet through the host for exactly this purpose).  These helpers write
latency series and host resource traces to plain CSV files so the paper's
figures can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.analysis.metrics import LatencySeries
from repro.hosts.resources import ResourceTrace


def latency_series_to_csv(series: LatencySeries, path: str | Path) -> Path:
    """Write a latency series to CSV (time_s, latency_ms, source, destination)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "latency_ms", "source", "destination"])
        for sample in series.samples:
            writer.writerow([sample.time_s, sample.latency_ms, sample.source, sample.destination])
    return path


def resource_trace_to_csv(trace: ResourceTrace, path: str | Path) -> Path:
    """Write a host resource trace to CSV (one row per sample)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "time_s",
                "machine_manager_cpu_percent",
                "microvm_cpu_percent",
                "machine_manager_memory_percent",
                "microvm_memory_percent",
                "firecracker_processes",
            ]
        )
        for sample in trace.samples:
            writer.writerow(
                [
                    sample.time_s,
                    sample.machine_manager_cpu_percent,
                    sample.microvm_cpu_percent,
                    sample.machine_manager_memory_percent,
                    sample.microvm_memory_percent,
                    sample.firecracker_processes,
                ]
            )
    return path
