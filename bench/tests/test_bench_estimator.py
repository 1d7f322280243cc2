"""The estimator and the span arithmetic, on synthetic data (no timing asserts)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from bench import estimator  # noqa: E402
from bench import trace as tracing  # noqa: E402


def _bimodal_replays(truth, replays, slow_share, rng):
    """Identical work per operation, each sample 37 % slower with ``slow_share``."""
    return [
        truth * np.where(rng.random(truth.size) < slow_share, 1.37, 1.0)
        * (1.0 + 0.01 * rng.random(truth.size))
        for _ in range(replays)
    ]


def test_per_op_min_recovers_the_fast_mode_where_a_pooled_median_does_not():
    rng = np.random.default_rng(1)
    truth = rng.uniform(4.0, 6.0, size=200)
    estimates, pooled = [], []
    for slow_share in (0.3, 0.6):
        replays = _bimodal_replays(truth, 5, slow_share, rng)
        estimates.append(np.median(estimator.per_op_min(replays)))
        pooled.append(np.median(np.concatenate(replays)))
    assert abs(estimates[0] - estimates[1]) / estimates[0] < 0.02
    assert abs(pooled[0] - pooled[1]) / pooled[0] > 0.05
    assert abs(estimates[0] - np.median(truth)) / np.median(truth) < 0.03


def test_per_op_min_rejects_replays_that_do_not_align():
    with pytest.raises(ValueError):
        estimator.per_op_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        estimator.per_op_min([])


def test_repeats_exactly():
    assert estimator.repeats_exactly([[1, 2, 3], [1, 2, 3]])
    assert not estimator.repeats_exactly([[1, 2, 3], [1, 2, 4]])


def test_self_time_is_duration_minus_the_union_of_children():
    #            id name   start end parent epoch thread size
    spans = [
        [0, "outer", 0, 100, None, 1, "MainThread", 0],
        [1, "inner", 10, 30, 0, 1, "MainThread", 0],
        [2, "inner", 40, 60, 0, 1, "MainThread", 0],
        [3, "leaf", 45, 50, 2, 1, "MainThread", 0],
        # two pool threads working in parallel for the blocked parent:
        [4, "pool", 70, 90, 0, 1, "celestial-fanout_0", 0],
        [5, "pool", 75, 95, 0, 1, "celestial-fanout_1", 0],
        # started by the parent but finished after it: clipped to the parent
        [6, "late", 98, 140, 0, 1, "celestial-fanout_0", 0],
    ]
    own = tracing.self_times(spans)
    #      100 - (20 + 20 + union(70..95)=25 + clipped 2)
    assert own[0] == 100 - (20 + 20 + 25 + 2)
    assert own[1] == 20 and own[2] == 20 - 5 and own[3] == 5
    series = tracing.layer_series(spans, operations=2)
    assert series["inner"]["self"] == [35, 0]
    assert series["inner"]["inclusive"] == [40, 0]
    assert series["pool"]["calls"] == [2, 0]


def test_tracer_patches_records_nesting_and_restores():
    class Layer:
        def outer(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

        @classmethod
        def build(cls):
            return cls()

    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    original = vars(Layer)["outer"]
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    tracer.patch(Layer, "build", "layer.build")
    tracer.epoch = 1
    assert Layer.build().outer(3) == 7
    tracer.unpatch()
    assert vars(Layer)["outer"] is original
    assert isinstance(vars(Layer)["build"], classmethod)
    spans, _ = tracer.take()
    names = [span[tracing.NAME] for span in spans]
    assert names == ["layer.build", "layer.outer", "layer.inner"]
    outer, inner = spans[1], spans[2]
    assert inner[tracing.PARENT] == outer[tracing.ID] and outer[tracing.PARENT] is None
    assert tracing.self_times(spans)[1] == (outer[tracing.END] - outer[tracing.START]) - (
        inner[tracing.END] - inner[tracing.START]
    )
    assert Layer().outer(1) == 3 and tracer.take()[0] == []
    # A span opened and closed by hand (two listeners bracketing a third).
    tracer.begin("bracket")
    tracer.begin("inside")
    tracer.end()
    tracer.end()
    bracket, inside = tracer.take()[0]
    assert inside[tracing.PARENT] == bracket[tracing.ID]
    assert bracket[tracing.START] < inside[tracing.START] < inside[tracing.END] < bracket[tracing.END]
