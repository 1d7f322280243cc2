"""Unit tests for application building blocks: processing model, LSTM, workload."""

import numpy as np
import pytest

from repro.apps import ProcessingDelayModel, StackedLSTM, VideoStreamParams
from repro.apps.dart.workload import SensorGroups, SensorReadingGenerator
from repro.apps.video import BridgeSelector
from repro.core.constellation import MachineId
from repro.orbits import GroundStation


class TestProcessingDelayModel:
    def test_median_and_std_match_configuration(self):
        model = ProcessingDelayModel(np.random.default_rng(0))
        samples = np.array([model.sample_ms() for _ in range(40000)])
        assert np.median(samples) == pytest.approx(1.37, rel=0.05)
        assert np.std(samples) == pytest.approx(3.86, rel=0.25)
        assert np.all(samples >= 0.0)

    def test_expected_is_median(self):
        assert ProcessingDelayModel(np.random.default_rng(0)).expected_ms() == 1.37

    def test_floor_applies(self):
        model = ProcessingDelayModel(np.random.default_rng(1))
        samples = [model.sample_ms() for _ in range(1000)]
        assert min(samples) == 0.05


class TestVideoStreamParams:
    def test_packet_size_from_bitrate(self):
        stream = VideoStreamParams(bitrate_kbps=2600.0, packet_interval_s=0.02)
        # 2.6 Mb/s * 20 ms = 52 kbit = 6,500 bytes per packet.
        assert stream.packet_size_bytes == 6500

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoStreamParams(bitrate_kbps=0.0)


class TestBridgeSelector:
    def test_history_tracks_changes_only(self):
        selector = BridgeSelector()
        a = MachineId(0, 1, "1.0.celestial")
        b = MachineId(0, 2, "2.0.celestial")
        assert selector.select(0.0, a)
        assert not selector.select(5.0, a)
        assert selector.select(10.0, b)
        assert selector.distinct_bridges == ["1.0.celestial", "2.0.celestial"]
        assert selector.current == b


class TestStackedLSTM:
    def test_output_shape_and_determinism(self):
        lstm = StackedLSTM(input_size=3, hidden_sizes=(8, 8))
        sequence = np.random.default_rng(0).normal(size=(12, 3))
        out_a = lstm.forward(sequence)
        out_b = StackedLSTM(input_size=3, hidden_sizes=(8, 8)).forward(sequence)
        assert out_a.shape == (1,)
        np.testing.assert_allclose(out_a, out_b)

    def test_one_dimensional_input_promoted(self):
        lstm = StackedLSTM(input_size=1, hidden_sizes=(4,))
        assert lstm.forward(np.arange(6.0)).shape == (1,)

    def test_input_size_checked(self):
        lstm = StackedLSTM(input_size=2, hidden_sizes=(4,))
        with pytest.raises(ValueError):
            lstm.forward(np.ones((5, 3)))
        with pytest.raises(ValueError):
            StackedLSTM(input_size=0)

    def test_parameter_count(self):
        lstm = StackedLSTM(input_size=1, hidden_sizes=(4,))
        # Layer: 4H*(in+H) weights + 4H bias = 16*(1+4)+16 = 96; output: 4 + 1.
        assert lstm.parameter_count() == 96 + 5

    def test_output_depends_on_sequence_history(self):
        lstm = StackedLSTM(input_size=1, hidden_sizes=(8,))
        rising = lstm.forward(np.linspace(0.0, 1.0, 10))
        falling = lstm.forward(np.linspace(1.0, 0.0, 10))
        assert not np.allclose(rising, falling)

    def test_inference_nominal_seconds_about_two_ms(self):
        lstm = StackedLSTM(input_size=1, hidden_sizes=(16, 16))
        assert 0.001 <= lstm.inference_nominal_seconds() <= 0.01

    def test_outputs_bounded_for_bounded_inputs(self):
        lstm = StackedLSTM(input_size=1, hidden_sizes=(8, 8))
        out = lstm.forward(np.random.default_rng(1).uniform(-1, 1, size=(50, 1)))
        # tanh-bounded hidden state keeps the read-out small for unit inputs.
        assert np.all(np.abs(out) < 10.0)


class TestSensorWorkload:
    def test_reading_generator_tide_and_anomaly(self):
        generator = SensorReadingGenerator(noise_std_hpa=0.0, anomaly_start_s=100.0)
        assert generator.reading(0.0) == pytest.approx(1013.0, abs=0.5)
        assert generator.reading(150.0) > generator.reading(50.0) + 10.0

    def _stations(self, buoy_count=10, sink_count=20):
        buoys = [GroundStation(f"buoy-{i}", float(i), 150.0 + 2.0 * i) for i in range(buoy_count)]
        sinks = [GroundStation(f"sink-{i}", float(i % buoy_count), 150.5 + 2.0 * (i % buoy_count))
                 for i in range(sink_count)]
        return buoys, sinks

    def test_groups_cover_all_buoys_and_sinks(self):
        buoys, sinks = self._stations()
        groups = SensorGroups(buoys, sinks, group_count=4)
        assert set(groups.group_of_buoy) == {b.name for b in buoys}
        assert set(groups.group_of_sink) == {s.name for s in sinks}
        assert sum(len(v) for v in groups.sinks_of_group.values()) == len(sinks)

    def test_sinks_subscribe_to_nearby_group(self):
        buoys, sinks = self._stations()
        groups = SensorGroups(buoys, sinks, group_count=5)
        # A sink co-located with a buoy must subscribe to that buoy's group.
        assert groups.group_of_sink["sink-0"] == groups.group_of_buoy["buoy-0"]
        assert "sink-0" in groups.subscribers("buoy-0")

    def test_group_count_clamped_and_validated(self):
        buoys, sinks = self._stations(buoy_count=3)
        groups = SensorGroups(buoys, sinks, group_count=10)
        assert groups.group_count == 3
        with pytest.raises(ValueError):
            SensorGroups(buoys, sinks, group_count=0)
        with pytest.raises(ValueError):
            SensorGroups([], sinks, group_count=1)

    def test_centroid_within_buoy_spread(self):
        buoys, sinks = self._stations()
        groups = SensorGroups(buoys, sinks, group_count=2)
        lat, lon = groups._centroids[0]
        assert 0.0 <= lat <= 10.0
        assert 150.0 <= lon <= 170.0
