"""The delay trend every state carries (:class:`DelayTrend`).

``diff_since`` advances it once per epoch from the previous state's trend
and the topology diff; ``state_at`` starts it at zero.  The oracle here
knows nothing of edge ids or diffs: it keys every link of three cold
states by its endpoints and takes the differences of the delay counts.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ConstellationCalculation, ConstellationDatabase
from repro.core.constellation import ConstellationState
from repro.scenarios import dart_configuration, west_africa_configuration


def _counts_by_pair(state) -> dict:
    graph = state.graph
    low, high = np.minimum(graph.node_a, graph.node_b), np.maximum(graph.node_a, graph.node_b)
    return dict(zip(zip(low.tolist(), high.tolist()), graph.delay_counts.tolist()))


def _steps(before: dict, after: dict) -> dict:
    return {pair: after[pair] - before[pair] for pair in after if before.get(pair, after[pair]) != after[pair]}


def _by_pair(state, values: np.ndarray) -> dict:
    graph = state.graph
    low, high = np.minimum(graph.node_a, graph.node_b), np.maximum(graph.node_a, graph.node_b)
    return {pair: value for pair, value in zip(zip(low.tolist(), high.tolist()), values.tolist()) if value}


class TestTrendOfThePipeline:
    @pytest.mark.parametrize(
        "config,interval_s,epochs",
        [
            pytest.param(dart_configuration(buoy_count=4, sink_count=4), 30.0, 12, id="iridium"),
            pytest.param(
                west_africa_configuration(shells="lowest", duration_s=600.0), 2.0, 12,
                id="starlink-lowest-shell",
            ),
        ],
    )
    def test_the_trend_is_the_differences_of_cold_counts(self, config, interval_s, epochs):
        """Every epoch's steps and curves equal the oracle's, the diff carries
        its predecessor's trend, and a cold state's trend is zero."""
        calculation = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        assert not state.trend.step.any() and not state.trend.curve.any()
        counts = [_counts_by_pair(state)]
        steps = [{}]
        curved = 0
        for step in range(1, epochs + 1):
            previous = state
            state, diff = calculation.diff_since(previous, step * interval_s)
            assert diff.previous_trend is previous.trend and diff.trend is state.trend
            cold = calculation.state_at(step * interval_s)
            assert not cold.trend.step.any() and not cold.trend.curve.any()
            counts.append(_counts_by_pair(cold))
            steps.append(_steps(counts[-2], counts[-1]))
            curves = {
                pair: value - steps[-2][pair]
                for pair, value in steps[-1].items()
                if steps[-2].get(pair, 0) and value - steps[-2][pair]
            }
            assert _by_pair(state, state.trend.step) == steps[-1], step
            assert _by_pair(state, state.trend.curve) == curves, step
            assert state.trend.step.shape == state.trend.curve.shape == (state.graph.total_links(),)
            curved += bool(curves)
        assert curved == epochs - 1  # a curve needs two steps

    def test_the_trend_is_outside_every_identity_check(self):
        field = {field.name: field for field in dataclasses.fields(ConstellationState)}["trend"]
        assert field.compare is False and field.repr is False
        calculation = ConstellationCalculation(dart_configuration(buoy_count=2, sink_count=2))
        state, _ = calculation.diff_since(calculation.state_at(0.0), 30.0)
        assert "trend" not in repr(state)


class TestPublication:
    def test_a_diff_must_follow_the_state_it_was_computed_from(self):
        """Subscribers predict a DIFF from the trend of the state they hold,
        so the database refuses a diff computed from any other state, or
        published with another state than its own — even one with the same
        bits — and publishes nothing."""
        calculation = ConstellationCalculation(dart_configuration(buoy_count=2, sink_count=2))
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        following, diff = calculation.diff_since(state, 30.0)
        with pytest.raises(ValueError, match="lead from the published state to the new one"):
            database.set_state(following, diff=diff)
        database.set_state(calculation.state_at(0.0))
        with pytest.raises(ValueError, match="lead from the published state to the new one"):
            database.set_state(following, diff=diff)
        assert database.epoch == 1 and database.latest_diff is None
        database.set_state(state)
        with pytest.raises(ValueError, match="lead from the published state to the new one"):
            database.set_state(calculation.state_at(30.0), diff=diff)  # not the diff's state
        database.set_state(following, diff=diff)
        assert database.epoch == 3 and database.latest_diff is diff
