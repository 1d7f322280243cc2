"""Integration tests for the §5 DART ocean environment alert experiment."""

import pytest

from repro import Celestial
from repro.apps import DartExperiment
from repro.scenarios import dart_configuration


def _run(deployment, buoy_count=20, sink_count=40, duration_s=60.0, seed=0, **kwargs):
    config = dart_configuration(
        deployment=deployment,
        buoy_count=buoy_count,
        sink_count=sink_count,
        duration_s=duration_s,
        seed=seed,
    )
    with Celestial(config) as testbed:
        experiment = DartExperiment(testbed, deployment=deployment, group_count=5, **kwargs)
        return experiment.run()


@pytest.fixture(scope="module")
def central_results():
    return _run("central")


@pytest.fixture(scope="module")
def satellite_results():
    return _run("satellite")


class TestDartExperiment:
    def test_readings_flow_end_to_end(self, central_results):
        assert central_results.readings_sent > 1000
        assert central_results.results_delivered > 1000
        assert len(central_results.mean_latency_per_sink()) > 20

    def test_satellite_deployment_reduces_latency(self, central_results, satellite_results):
        central_mean = central_results.all_latencies().mean()
        satellite_mean = satellite_results.all_latencies().mean()
        # Paper: 22-183 ms centrally vs 13-90 ms on satellites — roughly halved.
        assert satellite_mean < central_mean
        assert central_mean / satellite_mean > 1.5

    def test_latency_ranges_have_paper_shape(self, central_results, satellite_results):
        central_low, central_high = central_results.latency_range_ms()
        satellite_low, satellite_high = satellite_results.latency_range_ms()
        assert satellite_low < central_low
        assert satellite_high < central_high
        assert central_high > 2 * central_low

    def test_processing_latency_about_two_ms(self, central_results, satellite_results):
        for results in (central_results, satellite_results):
            assert 1.0 <= results.processing_ms.mean() <= 5.0

    def test_west_pacific_penalty_in_central_deployment(self, central_results):
        regions = central_results.mean_latency_by_region()
        # Requests from the West Pacific cross the Iridium seam towards Hawaii
        # more often, so their latency is higher (Fig. 11a).
        assert regions["west_pacific"] > regions["americas"]

    def test_satellite_deployment_uses_many_inference_sites(self, satellite_results):
        sites = {
            sample.source
            for series in satellite_results.sink_latencies.values()
            for sample in series.samples
        }
        assert len(sites) >= 5

    def test_run_with_real_inference(self):
        results = _run("central", buoy_count=3, sink_count=6, duration_s=10.0, run_inference=True)
        assert results.results_delivered > 0

    def test_unknown_deployment_rejected(self):
        config = dart_configuration(buoy_count=3, sink_count=3, duration_s=10.0)
        with Celestial(config) as testbed, pytest.raises(ValueError):
            DartExperiment(testbed, deployment="edge-of-tomorrow")
