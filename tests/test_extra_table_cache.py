"""The extra-table cache: bounding, eviction policy, stats.

``ConstellationState._paths_from`` lazily caches single-source tables
for satellite-to-satellite queries.  This suite pins the cache's two
contracts: the cap (``ConstellationCalculation.MAX_CARRIED_EXTRA_TABLES``,
patched down here so a handful of queries reaches it) is enforced at
*insert* time, and eviction ranks by usage — a table that earns query
hits survives a flood of one-shot queries, while an evicted table
re-solves cold on its next use.  Hits, misses and evictions are asserted all the
way through ``UpdateStats`` (the ``path_statistics`` plumbing).
"""

import numpy as np
import pytest

from repro.core import ConstellationCalculation
from repro.core.constellation import _ExtraTableScores
from repro.core.coordinator import UpdateStats
from repro.scenarios import dart_configuration


@pytest.fixture(scope="module")
def config():
    return dart_configuration(buoy_count=4, sink_count=4, duration_s=600.0)


def _capped(monkeypatch, config, cap):
    """A calculation whose extra-table cap is ``cap``."""
    monkeypatch.setattr(ConstellationCalculation, "MAX_CARRIED_EXTRA_TABLES", cap)
    return ConstellationCalculation(config)


def _query(state, calculation, identifier, probe_identifier=0):
    """A satellite-to-satellite delay query (forces an extra table)."""
    return state.delay_ms(
        calculation.satellite(0, identifier),
        calculation.satellite(0, probe_identifier),
    )


class TestInsertTimeBounding:
    def test_cap_enforced_on_every_insert(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 3)
        state = calculation.state_at(0.0)
        for i in range(1, 10):
            _query(state, calculation, i)
            # Never exceeds the cap intra-epoch, not just at the carry.
            assert len(state._extra_paths) <= 3
        assert len(state._extra_paths) == 3
        assert calculation.path_engine.stats.cache_evictions == 6
        assert calculation.path_engine.stats.cache_misses == 9


class TestSymmetricLookup:
    def test_destination_owned_table_answers_the_reverse_query(self, config):
        """A carried table serves queries *to* its source as well as from it."""
        calculation = ConstellationCalculation(config)
        state = calculation.state_at(0.0)
        a, b = calculation.satellite(0, 3), calculation.satellite(0, 40)
        node_a, node_b = state.node_for(a), state.node_for(b)
        stats = calculation.path_engine.stats
        forward = state.delay_ms(a, b)  # miss: creates a's table
        backward = state.delay_ms(b, a)  # hit on a's table, swapped
        assert list(state._extra_paths) == [node_a]
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1
        assert np.float64(forward).tobytes() == np.float64(backward).tobytes()
        # Like the main table, the swapped lookup reports the path from
        # the table's own source.
        reverse = state.path(b, a)
        assert (reverse.source, reverse.target) == (node_a, node_b)
        assert reverse.hops == state.path(a, b).hops
        assert stats.cache_misses == 1


class TestCostAwareEviction:
    """Eviction ranks by decayed hits, then least-recent use (cost is uniform)."""

    def test_hot_table_survives_one_shot_flood(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 3)
        state = calculation.state_at(0.0)
        # Table for satellite 1 becomes hot: repeated queries record hits.
        _query(state, calculation, 1)
        for _ in range(5):
            assert _query(state, calculation, 1) == pytest.approx(
                _query(state, calculation, 1)
            )
        hot_node = state.node_for(calculation.satellite(0, 1))
        # Flood of one-shot queries, each inserting (and evicting).
        for i in range(2, 12):
            _query(state, calculation, i)
        assert hot_node in state._extra_paths  # the hot table survived
        assert len(state._extra_paths) == 3
        assert calculation.path_engine.stats.cache_hits >= 5

    def test_hot_table_survives_the_epoch_carry(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 2)
        state = calculation.state_at(0.0)
        _query(state, calculation, 1)  # A: inserted first ...
        for _ in range(3):
            _query(state, calculation, 1)  # ... and hot
        _query(state, calculation, 2)  # B: more recent, never re-read
        hot_node = state.node_for(calculation.satellite(0, 1))
        state, _ = calculation.diff_since(state, 5.0)
        assert hot_node in state._extra_paths
        # A third table now evicts cold B, not hot A, despite B's recency.
        _query(state, calculation, 3)
        assert hot_node in state._extra_paths
        assert state.node_for(calculation.satellite(0, 2)) not in state._extra_paths

    def test_evicted_table_resolves_cold_on_next_use(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 1)
        state = calculation.state_at(0.0)
        _query(state, calculation, 1)
        _query(state, calculation, 2)  # evicts satellite 1's table
        stats = calculation.path_engine.stats
        assert stats.cache_evictions == 1
        cold_before = stats.cold_solves
        misses_before = stats.cache_misses
        reference = _query(state, calculation, 1)  # must re-solve cold
        assert stats.cold_solves == cold_before + 1
        assert stats.cache_misses == misses_before + 1
        # ... and the re-solved answer is the correct one.
        node = state.node_for(calculation.satellite(0, 1))
        probe = state.node_for(calculation.satellite(0, 0))
        assert reference == state._extra_paths[node].delay_ms(node, probe)

    def test_scores_decay_and_drop(self):
        scores = _ExtraTableScores()
        scores.record_insert(7)
        for _ in range(5):
            scores.record_hit(7)
        scores.record_insert(9)
        scores.record_insert(11)
        # 7 earned hits, so the untouched tables evict first — the less
        # recently inserted of the two before the other.
        assert scores.rank(9) < scores.rank(11) < scores.rank(7)
        scores.decay()
        assert scores.hits[7] == 2.5
        scores.drop(7)
        assert 7 not in scores.hits and 7 not in scores.last_used


class TestStatsPlumbing:
    def test_cache_counters_reach_update_stats(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 2)
        state = calculation.state_at(0.0)
        before = calculation.path_engine.stats.snapshot()
        for i in range(1, 5):
            _query(state, calculation, i)
        _query(state, calculation, 4)  # one hit
        after = calculation.path_engine.stats.snapshot()
        stats = UpdateStats()
        stats.record_path_engine(before, after)
        totals = stats.path_engine_totals
        assert totals["cache_misses"] == 4
        assert totals["cache_hits"] == 1
        assert totals["cache_evictions"] == 2
        assert stats.path_cache_events == {
            "hits": 1, "misses": 4, "evictions": 2,
        }
        # The advance attribution rides the same snapshot.
        assert "tables_advanced" in totals
        assert "rows_solved" in totals
        # Only cold single-source solves happened in this window.
        assert stats.path_regimes == {"cold": 1}

    def test_advanced_epochs_attribute_tables_and_batches(self, config, monkeypatch):
        calculation = _capped(monkeypatch, config, 8)
        state = calculation.state_at(0.0)
        for i in range(1, 5):
            _query(state, calculation, i)
        for step in range(1, 4):
            state, _ = calculation.diff_since(state, step * 5.0)
        totals = calculation.path_engine.stats.snapshot()
        # Each advanced epoch carried the main table plus four extras.
        assert totals["tables_advanced"] == 15
        # ... and all five shared one solve per epoch (after 1 + 4 cold ones).
        assert totals["solver_calls"] == 5 + 3
