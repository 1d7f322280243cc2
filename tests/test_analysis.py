"""Unit tests for latency metrics, repetition helpers, cost model and reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    GCPPriceTable,
    LatencySeries,
    celestial_experiment_cost,
    cost_comparison,
    per_satellite_vm_cost,
    render_table,
    run_repetitions,
)


class TestLatencySeries:
    def _series(self, values, start=0.0, step=1.0):
        series = LatencySeries("test")
        for index, value in enumerate(values):
            series.add(start + index * step, value)
        return series

    def test_basic_statistics(self):
        series = self._series([10.0, 20.0, 30.0, 40.0])
        assert series.mean() == 25.0
        assert series.median() == 25.0
        assert series.percentile(75) == pytest.approx(32.5)
        assert len(series) == 4

    def test_fraction_below(self):
        series = self._series([10.0, 12.0, 14.0, 50.0, 60.0])
        assert series.fraction_below(16.0) == pytest.approx(0.6)
        assert series.fraction_below(100.0) == 1.0

    def test_cdf_monotone(self):
        series = self._series([30.0, 10.0, 20.0])
        fractions = [series.fraction_below(value) for value in (10.0, 20.0, 30.0)]
        assert fractions == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_rolling_median(self):
        series = LatencySeries()
        for t in np.arange(0.0, 10.0, 0.25):
            series.add(float(t), 10.0 if t < 5.0 else 30.0)
        centres, medians = series.rolling_median(window_s=1.0)
        assert medians[0] == 10.0
        assert medians[-1] == 30.0
        assert len(centres) == len(medians)

    def test_merged_with(self):
        first, second = LatencySeries("a"), LatencySeries()
        first.add(0.0, 10.0, "a", "b")
        second.add(1.0, 20.0, "b", "a")
        merged = first.merged_with(second)
        assert merged.name == "a"
        assert merged.values().tolist() == [10.0, 20.0]

    def test_empty_series(self):
        series = LatencySeries()
        assert np.isnan(series.mean())
        assert np.isnan(series.fraction_below(10.0))
        times, medians = series.rolling_median()
        assert times.size == 0 and medians.size == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencySeries().add(0.0, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50))
    def test_property_percentiles_bounded_by_extremes(self, values):
        series = self._series(values)
        assert series.percentile(0) == pytest.approx(min(values))
        assert series.percentile(100) == pytest.approx(max(values))
        assert min(values) <= series.mean() <= max(values)


class TestRepetitions:
    def test_run_repetitions_default_seeds(self):
        results = run_repetitions(lambda seed: seed * 10, repetitions=3)
        assert [r.result for r in results] == [0, 10, 20]
        assert [r.seed for r in results] == [0, 1, 2]

    def test_run_repetitions_custom_seeds(self):
        results = run_repetitions(lambda seed: seed, repetitions=2, seeds=[7, 9])
        assert [r.result for r in results] == [7, 9]
        with pytest.raises(ValueError):
            run_repetitions(lambda seed: seed, repetitions=2, seeds=[1])
        with pytest.raises(ValueError):
            run_repetitions(lambda seed: seed, repetitions=0)


class TestCostModel:
    def test_celestial_cheaper_than_per_satellite_vms(self):
        celestial = celestial_experiment_cost()
        naive = per_satellite_vm_cost()
        assert celestial < naive
        assert naive / celestial > 5.0

    def test_cost_scales_with_duration_and_count(self):
        table = GCPPriceTable()
        assert table.cost("f1-micro", 10, 30.0) == pytest.approx(2 * table.cost("f1-micro", 10, 15.0))
        assert table.cost("f1-micro", 20, 15.0) == pytest.approx(2 * table.cost("f1-micro", 10, 15.0))

    def test_minimum_billing(self):
        table = GCPPriceTable()
        assert table.cost("f1-micro", 1, 0.1) == table.cost("f1-micro", 1, 1.0)

    def test_unknown_machine_type(self):
        with pytest.raises(KeyError):
            GCPPriceTable().hourly("quantum-mega-128")
        with pytest.raises(ValueError):
            GCPPriceTable().cost("f1-micro", -1, 10.0)

    def test_comparison_structure(self):
        comparison = cost_comparison()
        assert comparison["celestial_usd"] < comparison["per_satellite_vm_usd"]
        assert comparison["savings_factor"] > 1.0
        assert comparison["paper_celestial_usd"] == 3.30
        assert comparison["paper_per_satellite_vm_usd"] == 539.66


class TestReport:
    def test_render_table(self):
        text = render_table(
            ["pair", "median [ms]"],
            [["accra->abuja", 9.02], ["abuja->yaounde", 10.5]],
            title="Fig. 4",
        )
        lines = text.splitlines()
        assert lines[0] == "Fig. 4"
        assert "pair" in lines[1]
        assert "accra->abuja" in lines[3]
        assert "9.02" in text

    def test_render_table_validates_row_length(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])
