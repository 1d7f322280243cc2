"""Tests for the shared epoch-update codec of the serving tier.

The acceptance property: a client that applies the keyframe+diff stream
through an :class:`EpochReplica` reconstructs the streamed state
projection **bit-for-bit** at every epoch, across at least 20 epochs, for
both an Iridium-style and a Starlink-style constellation.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.dist.wire import FrameKind
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import west_africa_configuration
from repro.serve import EpochReplica, EpochSnapshot, EpochUpdateCodec
from repro.serve.codec import (
    CodecError,
    EpochUpdate,
    _diff_arrays,
    changed_nodes,
    encode_skip_update,
)


def iridium_configuration() -> Configuration:
    return Configuration(
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
            GroundStationConfig(station=GroundStation("buoy-0", 10.0, -160.0)),
        ),
        update_interval_s=5.0,
    )


def advance(calculation, database, previous, now_s):
    """One coordinator-style epoch publication (diff path)."""
    state, diff = calculation.diff_since(previous, now_s)
    database.set_state(state, diff=diff)
    return state, diff


class TestByteIdentity:
    @pytest.mark.parametrize(
        "config_factory,epochs,step_s",
        [
            pytest.param(iridium_configuration, 24, 30.0, id="iridium"),
            pytest.param(
                lambda: west_africa_configuration(duration_s=120.0, shells="lowest"),
                21,
                4.0,
                id="starlink-lowest-shell",
            ),
        ],
    )
    def test_replica_reconstructs_every_epoch_bit_for_bit(
        self, config_factory, epochs, step_s
    ):
        config = config_factory()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase(keyframe_interval=7)
        state = calculation.state_at(0.0)
        database.set_state(state)

        replica = EpochReplica()
        replica.apply(database.codec.keyframe_update(database.epoch, state=state))
        assert replica.snapshot().same_bits(
            EpochSnapshot.from_state(state, database.epoch)
        )

        for step in range(1, epochs):
            state, diff = advance(calculation, database, state, step * step_s)
            replica.apply(database.codec.diff_update(database.epoch, diff=diff))
            assert replica.snapshot().same_bits(
                EpochSnapshot.from_state(state, database.epoch)
            ), f"replica diverged at epoch {database.epoch}"
        assert replica.applied_diffs == epochs - 1
        # Single-encode guarantee: one encode per epoch, however often the
        # cached updates are re-requested.
        database.codec.diff_update(database.epoch)
        assert database.codec.encode_count == epochs

    def test_snapshot_differs_when_state_differs(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        first = EpochSnapshot.from_state(calculation.state_at(0.0), 1)
        second = EpochSnapshot.from_state(calculation.state_at(120.0), 1)
        assert first.same_bits(first)
        assert not first.same_bits(second)


class TestReplicaChaining:
    def test_diff_before_keyframe_rejected(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        _, diff = advance(calculation, database, state, 30.0)
        update = database.codec.diff_update(2, diff=diff)
        with pytest.raises(CodecError, match="KEYFRAME"):
            EpochReplica().apply(update)

    def test_gapped_diff_rejected_until_keyframe_resync(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase(keyframe_interval=2)
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        replica.apply(database.codec.keyframe_update(1, state=state))
        diffs = []
        for step in range(1, 5):
            state, diff = advance(calculation, database, state, step * 30.0)
            diffs.append(database.codec.diff_update(database.epoch, diff=diff))
        replica.apply(diffs[0])  # epoch 2 chains
        with pytest.raises(CodecError, match="does not chain"):
            replica.apply(diffs[2])  # epoch 4 does not
        # Eviction protocol: a keyframe resets the replica, diffs resume.
        replica.apply(database.codec.keyframe_update(database.epoch, state=state))
        assert replica.snapshot().same_bits(
            EpochSnapshot.from_state(state, database.epoch)
        )

    def test_skip_marker_advances_the_chain_without_changes(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        replica.apply(database.codec.keyframe_update(1, state=state))
        before = replica.snapshot()
        _, diff = advance(calculation, database, state, 30.0)
        skip = EpochUpdate(FrameKind.DIFF, 2, encode_skip_update(diff, 2))
        meta, _arrays = skip.decoded()
        assert meta["skip"] is True
        replica.apply(skip)
        after = replica.snapshot()
        assert after.epoch == 2 and after.time_s == diff.time_s
        assert after.node_a.tobytes() == before.node_a.tobytes()
        assert after.delay_ms.tobytes() == before.delay_ms.tobytes()


    def test_diff_onto_a_skipped_link_addition_is_a_codec_error(self):
        """A replica that was sent a skip marker for an epoch that added
        links holds a stale link table: the next real diff moves the delay
        of a link it never received, which must surface as the typed
        resynchronise error, not a bare ``KeyError``."""
        config = west_africa_configuration(duration_s=120.0, shells="lowest")
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        replica.apply(database.codec.keyframe_update(1, state=state))
        state, diff = advance(calculation, database, state, 2.0)
        replica.apply(database.codec.diff_update(2, diff=diff))
        state, diff = advance(calculation, database, state, 4.0)
        assert diff.topology.added_endpoints().tolist() == [[1587, 723], [1588, 723]]
        replica.apply(EpochUpdate(FrameKind.DIFF, 3, encode_skip_update(diff, 3)))
        state, diff = advance(calculation, database, state, 6.0)
        with pytest.raises(CodecError, match="resynchronise from a keyframe"):
            replica.apply(database.codec.diff_update(4, diff=diff))
        # The keyframe the gateway sends next brings the replica back.
        replica.apply(database.codec.keyframe_update(4, state=state))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 4))


class TestCodecCacheAndViews:
    def test_json_record_matches_info_api_history(self):
        """`/diffs/<epoch>` must be a view of the same encoded update."""
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase(keyframe_interval=4)
        state = calculation.state_at(0.0)
        database.set_state(state)
        for step in range(1, 6):
            state, _ = advance(calculation, database, state, step * 30.0)
        history = database.diff_history_info(1)
        assert [r["epoch"] for r in history["diffs"]] == [2, 3, 4, 5, 6]
        for offset, record in enumerate(history["diffs"]):
            again = database.codec.diff_update(2 + offset).json_record()
            assert record == again
        # The JSON view is the diff history's; a keyframe has none.
        with pytest.raises(CodecError, match="KEYFRAME update has no JSON view"):
            database.codec.keyframe_update(6, state=state).json_record()

    def test_prune_tracks_database_history(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase(keyframe_interval=2, retained_keyframes=2)
        state = calculation.state_at(0.0)
        database.set_state(state)
        for step in range(1, 9):
            state, diff = advance(calculation, database, state, step * 30.0)
            database.codec.diff_update(database.epoch, diff=diff)
        oldest = min(database.keyframe_epochs())
        assert all(epoch > oldest for epoch in database.codec._diffs)
        assert all(epoch >= oldest for epoch in database.codec._keyframes)
        # Pruned epochs are no longer servable from history.
        with pytest.raises(KeyError):
            database.codec.diff_update(2)

    def test_codec_is_owned_by_the_database(self):
        database = ConstellationDatabase()
        assert isinstance(database.codec, EpochUpdateCodec)
        assert database.codec.encode_count == 0

    def test_publish_racing_a_prune_cannot_reinsert_pruned_epochs(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase(keyframe_interval=2, retained_keyframes=2)
        state = calculation.state_at(0.0)
        database.set_state(state)
        first_state = state
        first_diff = None
        for step in range(1, 9):
            state, diff = advance(calculation, database, state, step * 30.0)
            if first_diff is None:
                first_diff = diff
        oldest = min(database.keyframe_epochs())
        assert oldest > 2
        # A publish that lost the race against history pruning still gets a
        # usable update, but must not re-populate the cache with an epoch
        # that would then never be pruned again.
        keyframe = database.codec.keyframe_update(1, state=first_state)
        assert keyframe.epoch == 1 and keyframe.data
        diff_update = database.codec.diff_update(2, diff=first_diff)
        assert diff_update.epoch == 2 and diff_update.data
        assert 1 not in database.codec._keyframes
        assert 2 not in database.codec._diffs
        assert all(epoch >= oldest for epoch in database.codec._keyframes)
        assert all(epoch > oldest for epoch in database.codec._diffs)

    def test_concurrent_encodes_stay_exactly_once(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        codec = database.codec
        results: list[bytes] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(5):
                update = codec.keyframe_update(1, state=state)
                with lock:
                    results.append(update.data)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # The gateway's single-encode guarantee holds under contention:
        # everyone shares one encoding, counted once.
        assert codec.encode_count == 1
        assert len(results) == 40
        assert all(data is results[0] for data in results)


class TestScientificSanity:
    def test_streamed_delays_are_physical(self):
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        snapshot = EpochSnapshot.from_state(calculation.state_at(0.0), 1)
        assert snapshot.node_a.shape == snapshot.node_b.shape
        assert np.all(snapshot.node_a < snapshot.node_b)
        assert np.all(snapshot.delay_ms > 0)
        # ISL delays are bounded by a bent-pipe worst case of a few 100 ms.
        assert np.all(snapshot.delay_ms < 1000.0)


class TestChangedNodes:
    def test_equals_the_endpoints_of_the_decoded_frame(self):
        """The scope filter reads the touched nodes from the diff's own
        graphs; they must be the endpoints the DIFF frame carries — on an
        epoch that adds/removes links and on one that only moves delays."""
        config = iridium_configuration()
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        seen = set()
        for step in range(1, 25):
            state, diff = advance(calculation, database, state, step * 30.0)
            named = _diff_arrays(*database.codec.diff_update(database.epoch, diff=diff).decoded())
            expected = np.unique(
                np.concatenate(
                    [
                        named[field].reshape(-1)
                        for field in (
                            "added_endpoints",
                            "removed_endpoints",
                            "delay_changed_endpoints",
                            "bandwidth_changed_endpoints",
                        )
                    ]
                )
            )
            touched = changed_nodes(diff.topology)
            assert touched.dtype == np.int64
            assert np.array_equal(touched, expected)
            seen.add(diff.topology.is_structural_noop)
        assert seen == {True, False}
