"""Structured result bundles for declarative experiment runs.

One :class:`~repro.experiments.runner.ExperimentResult` becomes one output
directory: a ``result.json`` summary (spec, headline metrics, network
counters, per-series statistics) plus the CSV traces the spec's
``metrics.outputs`` requested — the §3.1 pattern of shipping measurements to
a central location for later analysis, applied to the runner.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from repro.analysis.traces import latency_series_to_csv, resource_trace_to_csv


def _json_value(value):
    """A JSON-safe rendering of one metrics/summary value."""
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def write_experiment_bundle(result, output_dir: str | Path) -> list[Path]:
    """Write one experiment's result bundle; returns the files written.

    ``result.json`` is always emitted; ``latency-csv``, ``resource-traces``
    and ``fault-events`` are emitted when the spec's ``metrics.outputs``
    request them (``summary`` only affects what the CLI prints).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    outputs = result.spec.metrics.outputs
    written: list[Path] = []

    spec = result.spec.to_dict()
    if spec["serve"] is not None:
        del spec["serve"]["auth_secret"]  # the gateway's shared secret stays out
    summary = {
        "spec": spec,
        "title": result.title,
        "metrics": [[label, _json_value(value)] for label, value in result.metrics],
        "network": result.network_statistics,
        "path_engine": result.path_statistics,
        "series": {
            name: {
                "samples": len(series),
                "mean_ms": _json_value(series.mean()),
                "median_ms": _json_value(series.median()),
            }
            for name, series in result.series.items()
        },
        "fault_events": len(result.fault_events),
    }
    if getattr(result, "serve_statistics", None):
        summary["serve"] = result.serve_statistics
    result_path = output_dir / "result.json"
    result_path.write_text(json.dumps(summary, indent=2) + "\n")
    written.append(result_path)

    if "latency-csv" in outputs:
        for name, series in result.series.items():
            written.append(
                latency_series_to_csv(series, output_dir / f"latency_{name}.csv")
            )
    if "resource-traces" in outputs:
        for host_index, trace in result.resource_traces.items():
            written.append(
                resource_trace_to_csv(
                    trace, output_dir / f"resources_host{host_index}.csv"
                )
            )
    if "fault-events" in outputs:
        events_path = output_dir / "fault_events.json"
        events_path.write_text(
            json.dumps(
                [dataclasses.asdict(event) for event in result.fault_events],
                indent=2,
            )
            + "\n"
        )
        written.append(events_path)
    return written
