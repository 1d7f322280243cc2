"""Integration tests for the §4 meetup/video-conference experiment."""

import numpy as np
import pytest

from repro import Celestial
from repro.apps import MeetupExperiment, VideoStreamParams
from repro.scenarios import west_africa_configuration

# A coarser stream than the paper's 20 ms pacing keeps the test suite fast
# while preserving the latency statistics.
_TEST_STREAM = VideoStreamParams(bitrate_kbps=2600.0, packet_interval_s=0.1)


def _run(mode, duration_s=60.0, seed=0, shells="lowest"):
    config = west_africa_configuration(duration_s=duration_s, shells=shells, seed=seed)
    with Celestial(config) as testbed:
        experiment = MeetupExperiment(testbed, mode=mode, stream=_TEST_STREAM)
        return experiment.run()


@pytest.fixture(scope="module")
def satellite_results():
    return _run("satellite")


@pytest.fixture(scope="module")
def cloud_results():
    return _run("cloud")


class TestMeetupExperiment:
    def test_all_pairs_measured(self, satellite_results):
        assert len(satellite_results.measured) == 6
        for series in satellite_results.measured.values():
            assert len(series) > 100

    def test_satellite_bridge_latency_shape(self, satellite_results):
        # Paper: end-to-end latency below ~16 ms for at least 80% of the call.
        merged = satellite_results.all_measurements()
        assert merged.fraction_below(16.0) >= 0.8
        assert merged.median() < 16.0

    def test_cloud_bridge_latency_shape(self, cloud_results):
        # Paper: cloud bridge RTT around 46 ms for the most distant client.
        merged = cloud_results.all_measurements()
        assert 30.0 < merged.median() < 55.0
        assert merged.fraction_below(46.0) >= 0.6

    def test_satellite_beats_cloud(self, satellite_results, cloud_results):
        satellite = satellite_results.all_measurements().median()
        cloud = cloud_results.all_measurements().median()
        assert satellite < cloud
        # The paper's headline: 16 ms vs 46 ms RTT, roughly a 3x improvement.
        assert cloud / satellite > 2.0

    def test_cloud_bridge_never_changes(self, cloud_results):
        assert cloud_results.bridge_history[0][1] == "johannesburg-cloud"
        assert len(cloud_results.bridge_history) == 1

    def test_satellite_bridge_handovers_happen(self, satellite_results):
        assert len(satellite_results.bridge_history) >= 2
        assert all(name.endswith(".celestial") for _, name in satellite_results.bridge_history)

    def test_only_low_shells_selected(self):
        results = _run("satellite", duration_s=40.0, shells="two-lowest", seed=3)
        # Paper §4.2: only satellites of the lowest, densest shells are selected.
        assert set(results.selected_shells) <= {0, 1}
        assert 0 in set(results.selected_shells)

    def test_expected_latency_tracks_measured(self, cloud_results):
        for pair, expected_series in cloud_results.expected.items():
            measured_series = cloud_results.measured[pair]
            if len(expected_series) == 0 or len(measured_series) == 0:
                continue
            # Expected (network + median processing) should be within a few
            # milliseconds of the measured median (Fig. 5 agreement).
            assert abs(expected_series.mean() - measured_series.median()) < 6.0

    def test_reproducible_across_identical_runs(self):
        first = _run("cloud", duration_s=30.0, seed=7)
        second = _run("cloud", duration_s=30.0, seed=7)
        a = first.all_measurements().values()
        b = second.all_measurements().values()
        assert len(a) == len(b)
        np.testing.assert_allclose(a, b)

    def test_invalid_mode_rejected(self):
        config = west_africa_configuration(duration_s=10.0, shells="lowest")
        with Celestial(config) as testbed, pytest.raises(ValueError):
            MeetupExperiment(testbed, mode="balloon")
