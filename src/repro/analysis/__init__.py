"""Measurement analysis: latency series, repetitions, handovers, cost model, CSV export, reports."""

from repro.analysis.metrics import LatencySample, LatencySeries
from repro.analysis.experiments import RepetitionResult, run_repetitions
from repro.analysis.cost import (
    GCPPriceTable,
    celestial_experiment_cost,
    cost_comparison,
    per_satellite_vm_cost,
)
from repro.analysis.report import render_table
from repro.analysis.bundle import write_experiment_bundle
from repro.analysis.handover import HandoverAnalysis, HandoverEvent, analyze_handovers
from repro.analysis.traces import latency_series_to_csv, resource_trace_to_csv

__all__ = [
    "GCPPriceTable",
    "HandoverAnalysis",
    "HandoverEvent",
    "LatencySample",
    "LatencySeries",
    "RepetitionResult",
    "analyze_handovers",
    "celestial_experiment_cost",
    "cost_comparison",
    "latency_series_to_csv",
    "per_satellite_vm_cost",
    "render_table",
    "resource_trace_to_csv",
    "run_repetitions",
    "write_experiment_bundle",
]
