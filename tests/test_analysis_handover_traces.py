"""Unit tests for handover analysis and measurement trace export."""

import csv

import pytest

from repro.analysis import (
    LatencySeries,
    analyze_handovers,
    latency_series_to_csv,
    resource_trace_to_csv,
)
from repro.core import ComputeParams, Configuration, ConstellationCalculation, GroundStationConfig, NetworkParams, ShellConfig
from repro.hosts import ResourceTrace, UsageSample
from repro.orbits import GroundStation, ShellGeometry


def _calculation():
    config = Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
        ),
        update_interval_s=5.0,
    )
    return ConstellationCalculation(config)


class TestHandoverAnalysis:
    def test_handover_counts_and_rate(self):
        analysis = analyze_handovers(_calculation(), "hawaii", duration_s=1800.0, interval_s=30.0)
        # Iridium satellites pass overhead in minutes: the uplink must change
        # several times in half an hour, and the station stays covered.
        assert analysis.handover_count >= 2
        assert analysis.handover_rate_per_minute > 0.0
        assert 0.0 < analysis.mean_uplink_duration_s() <= 1800.0
        assert analysis.coverage_fraction > 0.9

    def test_events_record_transitions(self):
        analysis = analyze_handovers(_calculation(), "hawaii", duration_s=600.0, interval_s=30.0)
        assert analysis.events[0].previous is None
        for earlier, later in zip(analysis.events, analysis.events[1:]):
            assert later.time_s > earlier.time_s
            assert later.current != earlier.current

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_handovers(_calculation(), "hawaii", duration_s=0.0)
        with pytest.raises(ValueError):
            analyze_handovers(_calculation(), "hawaii", duration_s=10.0, interval_s=-1.0)


class TestTraceExport:
    def _series(self):
        series = LatencySeries("pair")
        series.add(0.0, 10.0, "a", "b")
        series.add(1.0, 12.5, "a", "b")
        series.add(2.0, 11.0, "b", "a")
        return series

    def test_latency_csv_roundtrip(self, tmp_path):
        series = self._series()
        path = latency_series_to_csv(series, tmp_path / "latency.csv")
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["latency_ms"]) for row in rows] == series.values().tolist()
        assert [row["source"] for row in rows] == ["a", "a", "b"]

    def test_resource_trace_csv(self, tmp_path):
        trace = ResourceTrace()
        trace.record(UsageSample(0.0, 0.2, 10.0, 4.0, 12.0, 30))
        trace.record(UsageSample(5.0, 0.3, 11.0, 4.0, 12.5, 31))
        path = resource_trace_to_csv(trace, tmp_path / "host.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("time_s,")
        assert lines[1].startswith("0.0,")
