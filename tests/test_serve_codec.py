"""Tests for the shared epoch-update codec of the serving tier.

The acceptance property: a client that applies the keyframe+diff stream
through an :class:`EpochReplica` reconstructs the streamed state
projection **bit-for-bit** at every epoch, across at least 20 epochs, for
both an Iridium-style and a Starlink-style constellation.
"""

import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.core.constellation import ConstellationDiff
from repro.dist import wire
from repro.dist.wire import FrameKind
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.serve import EpochReplica, EpochSnapshot, EpochUpdateCodec
from repro.serve.codec import (
    CodecError,
    EpochUpdate,
    encode_diff_update,
    encode_keyframe_update,
)
from repro.topology.graph import NetworkGraph, NodeIndex


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


HAND_BUILT_INDEX = NodeIndex([6], ["g0", "g1"])


def hand_built_state(links, time_s, active=(True,) * 6):
    """A stand-in state over eight nodes from ``{(a, b): (delay_ms,
    bandwidth_kbps, type_code)}`` — edge ids in the dict's order, endpoints
    as given — with what :meth:`EpochSnapshot.from_state` reads of a state."""
    nodes = np.array(list(links), dtype=np.int64).reshape(-1, 2)
    values = list(links.values())
    graph = NetworkGraph.from_edge_arrays(
        HAND_BUILT_INDEX,
        nodes[:, 0],
        nodes[:, 1],
        np.zeros(len(links)),
        np.array([value[0] for value in values], dtype=np.float64),
        np.array([value[1] for value in values], dtype=np.float64),
        np.array([value[2] for value in values], dtype=np.int8),
    )
    return SimpleNamespace(
        graph=graph, time_s=time_s, active_satellites={0: np.array(active, dtype=bool)}
    )


def hand_built_diff(previous, current) -> ConstellationDiff:
    was, now = previous.active_satellites[0], current.active_satellites[0]
    return ConstellationDiff(
        previous_time_s=previous.time_s,
        time_s=current.time_s,
        topology=current.graph.diff_from(previous.graph),
        activated={0: np.nonzero(now & ~was)[0]},
        deactivated={0: np.nonzero(was & ~now)[0]},
    )


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
        database = ConstellationDatabase()
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
        database = ConstellationDatabase()
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


    def test_diff_onto_a_skipped_link_addition_is_a_codec_error(self):
        """A replica that never saw the epoch that added links must not be
        patched by the next one: the chain rule is "epoch + 1 and the link
        count", and either half alone refuses the frame."""
        config = west_africa_configuration(duration_s=120.0, shells="lowest")
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        replica.apply(database.codec.keyframe_update(1, state=state))
        state, diff = advance(calculation, database, state, 2.0)
        replica.apply(database.codec.diff_update(2, diff=diff))
        held = replica.snapshot()
        state, diff = advance(calculation, database, state, 4.0)  # never delivered
        added = diff.topology.links_added
        assert diff.topology.current.node_a[added].tolist() == [1587, 1588]
        assert diff.topology.current.node_b[added].tolist() == [723, 723]
        state, diff = advance(calculation, database, state, 6.0)
        with pytest.raises(CodecError, match="does not chain onto replica epoch 2"):
            replica.apply(database.codec.diff_update(4, diff=diff))
        # The same changes under the epoch number the replica expects: the
        # link count it was computed against is not the one the replica holds.
        relabelled = EpochUpdate(FrameKind.DIFF, 3, encode_diff_update(diff, 3))
        with pytest.raises(CodecError, match="resynchronise from a keyframe"):
            replica.apply(relabelled)
        # A frame that was refused changed nothing.
        assert replica.epoch == 2 and replica.snapshot().same_bits(held)
        # The keyframe the gateway sends after an eviction brings it back.
        replica.apply(database.codec.keyframe_update(4, state=state))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 4))


class TestCodecCacheAndViews:
    def test_codec_is_owned_by_the_database(self):
        database = ConstellationDatabase()
        assert isinstance(database.codec, EpochUpdateCodec)
        assert database.codec.encode_count == 0

    def test_memo_holds_one_epoch_after_thirty_publications(self):
        calculation = ConstellationCalculation(iridium_configuration())
        database = ConstellationDatabase()
        codec = database.codec
        state = calculation.state_at(0.0)
        database.set_state(state)
        codec.keyframe_update(1, state=state)
        for step in range(1, 30):
            state, diff = advance(calculation, database, state, step * 30.0)
            update = codec.diff_update(database.epoch, diff=diff)
            resync = codec.keyframe_update(database.epoch, state=state)
            # One epoch's bytes, not a window of them.
            assert codec._epoch == database.epoch == step + 1
            assert codec._frames == {FrameKind.DIFF: update.data, FrameKind.KEYFRAME: resync.data}
        assert codec.encode_count == 1 + 2 * 29
        # Without state=/diff= the codec answers the current epoch (from the
        # memo) and no other: the database holds nothing to encode one from.
        assert codec.diff_update(30).data is update.data
        assert codec.keyframe_update().data is resync.data
        assert codec.encode_count == 1 + 2 * 29
        for epoch in (29, 31):
            with pytest.raises(KeyError):
                codec.diff_update(epoch)
            with pytest.raises(KeyError):
                codec.keyframe_update(epoch)
        database.set_state(calculation.state_at(0.0))  # full state: no diff to encode
        with pytest.raises(KeyError):
            codec.diff_update(31)
        assert codec.keyframe_update().epoch == 31 and list(codec._frames) == [FrameKind.KEYFRAME]

    def test_late_request_for_an_older_epoch_is_not_memoised(self):
        """A publication can still be queued on the gateway's loop when a
        SUBSCRIBE has already asked for a newer epoch's keyframe."""
        calculation = ConstellationCalculation(iridium_configuration())
        database = ConstellationDatabase()
        codec = database.codec
        first_state = calculation.state_at(0.0)
        database.set_state(first_state)
        second_state, first_diff = advance(calculation, database, first_state, 30.0)
        state, diff = advance(calculation, database, second_state, 60.0)
        newest = codec.keyframe_update(3, state=state)
        newest_diff = codec.diff_update(3, diff=diff)
        assert codec.encode_count == 2
        late = codec.keyframe_update(1, state=first_state)
        assert late.epoch == 1 and late.data == encode_keyframe_update(first_state, 1)
        late_diff = codec.diff_update(2, diff=first_diff)
        assert late_diff.epoch == 2 and late_diff.data == encode_diff_update(first_diff, 2)
        assert codec.encode_count == 4
        # Asked again, encoded again: only the newest epoch is remembered ...
        codec.keyframe_update(1, state=first_state)
        assert codec.encode_count == 5
        # ... and it was not displaced.
        assert codec._epoch == 3
        assert codec.keyframe_update(3, state=state).data is newest.data
        assert codec.diff_update(3, diff=diff).data is newest_diff.data
        assert codec.encode_count == 5

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


# -- bit-exactness where the pipeline never goes --------------------------------

PAIRS = [(a, b) for a in range(8) for b in range(8) if a != b]
GRID = 2.0**-20
DELAYS = st.one_of(
    # Off the grid, exactly zero, at and beyond the uint32 range.  (-0.0 has
    # its own case below: `diff_from` compares values, and -0.0 == 0.0.)
    st.sampled_from([0.0, 0.1, 1 / 3, 12.5, 4096.0 - GRID, 4096.0, 5000.5, 1e308]),
    st.integers(0, 2**32 - 1).map(lambda steps: steps * GRID),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)
LINKS = st.dictionaries(
    st.sampled_from(PAIRS), st.tuples(DELAYS, st.sampled_from([1e4, 2.5e6, 1e7])), max_size=10
).map(
    # One link per undirected pair; either orientation and any edge order
    # stay.  A link's type follows from its endpoints, as in the pipeline (a
    # TopologyDiff does not report a surviving pair that changed type).
    lambda links: {
        pair: (*value, int(max(pair) >= HAND_BUILT_INDEX.satellite_count))
        for pair, value in links.items()
        if pair[0] < pair[1] or pair[::-1] not in links
    }
)
EPOCHS = st.lists(
    st.tuples(LINKS, st.tuples(*[st.booleans()] * 6)), min_size=2, max_size=6
)


class TestHandBuiltSequences:
    @settings(max_examples=150, deadline=None)
    @given(EPOCHS)
    def test_replica_is_bit_exact_on_and_off_the_delay_grid(self, epochs):
        """Random link additions, removals, delay and bandwidth changes over
        hand-built graphs — delays no pipeline produces included — must
        reconstruct bit for bit, without a NumPy cast warning."""
        states = [
            hand_built_state(links, float(step), active)
            for step, (links, active) in enumerate(epochs)
        ]
        replica = EpochReplica()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, encode_keyframe_update(states[0], 1)))
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(states[0], 1))
            for epoch, (previous, current) in enumerate(zip(states, states[1:]), start=2):
                diff = hand_built_diff(previous, current)
                replica.apply(EpochUpdate(FrameKind.DIFF, epoch, encode_diff_update(diff, epoch)))
                assert replica.snapshot().same_bits(EpochSnapshot.from_state(current, epoch))

    def test_the_data_alone_chooses_the_delay_coding(self):
        on_grid = {(0, 1): (3 * GRID, 1e4, 0), (1, 2): (4096.0 - GRID, 1e4, 0)}
        cases = {
            "on-grid": (on_grid, np.uint32),
            "mixed": ({**on_grid, (2, 3): (0.1, 1e4, 0)}, np.float64),
            "out of range": ({**on_grid, (2, 3): (4096.0, 1e4, 0)}, np.float64),
            "negative zero": ({**on_grid, (2, 3): (-0.0, 1e4, 0)}, np.float64),
        }
        for name, (links, dtype) in cases.items():
            state = hand_built_state(links, 0.0)
            keyframe = EpochUpdate(FrameKind.KEYFRAME, 1, encode_keyframe_update(state, 1))
            arrays = keyframe.decoded()[1]
            assert arrays[2].dtype == dtype, name
            assert arrays[0].dtype == arrays[1].dtype == np.int32
            assert np.all(arrays[0] < arrays[1])
            replica = EpochReplica()
            replica.apply(keyframe)
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 1)), name


class TestForgedFrames:
    """A frame that does not fit the replica raises ``CodecError`` — never an
    ``IndexError`` or a bare ``ValueError`` — and leaves the replica alone."""

    #: Ten links, so a mask is two bytes and can be truncated to a wrong length.
    LINKED = [(a, b) for a in range(3) for b in range(a + 1, 6)][:10]
    FIRST = {pair: (1.0 + pair[1], 1e4, 0) for pair in LINKED}
    SECOND = {
        **{pair: (1.5 + pair[1], 1e4, 0) for pair in LINKED[:9]},
        LINKED[0]: (1.0 + LINKED[0][1], 2e4, 0),
        (3, 7): (0.1, 1e4, 1),
    }

    def _replica_and_diff(self):
        first = hand_built_state(self.FIRST, 0.0)
        second = hand_built_state(self.SECOND, 1.0, active=(True, False) * 3)
        replica = EpochReplica()
        replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, encode_keyframe_update(first, 1)))
        _, meta, arrays = wire.decode_frame(encode_diff_update(hand_built_diff(first, second), 2))
        assert all(array.size for array in arrays[:11])  # every kind of change occurs
        return replica, second, meta, arrays

    def test_the_honest_frame_applies(self):
        replica, second, meta, arrays = self._replica_and_diff()
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        replica.apply(EpochUpdate(FrameKind.DIFF, 2, data))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(second, 2))

    @pytest.mark.parametrize(
        "position,forge",
        [
            pytest.param(7, lambda mask: mask[:-1], id="truncated-mask"),
            pytest.param(0, lambda mask: np.append(mask, 0).astype(np.uint8), id="long-mask"),
            pytest.param(7, lambda mask: mask[:0], id="empty-mask-values-left"),
            pytest.param(9, lambda mask: mask.astype(np.int8), id="mask-dtype"),
            pytest.param(
                8, lambda values: np.append(values, values[-1:]), id="extra-trailing-value"
            ),
            pytest.param(10, lambda values: values[:-1], id="missing-value"),
            pytest.param(5, lambda values: values[:0], id="added-rows-short"),
            pytest.param(8, lambda values: values.astype(np.float32), id="delay-dtype"),
            pytest.param(2, lambda nodes: nodes.reshape(-1, 1), id="endpoint-shape"),
            pytest.param(12, lambda ids: ids + 6, id="flip-out-of-range"),
            pytest.param("links", lambda links: [links[0] + 1, links[1]], id="links-before"),
            pytest.param("links", lambda links: [links[0], links[1] + 8], id="links-after"),
            pytest.param("shells", lambda shells: [], id="array-count"),
        ],
    )
    def test_forged_frames_are_codec_errors(self, position, forge):
        replica, _, meta, arrays = self._replica_and_diff()
        before = replica.snapshot()
        if isinstance(position, str):
            meta = {**meta, position: forge(meta[position])}
        else:
            arrays[position] = forge(arrays[position])
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        with pytest.raises(CodecError):
            replica.apply(EpochUpdate(FrameKind.DIFF, 2, data))
        assert replica.epoch == 1 and replica.snapshot().same_bits(before)

    def test_forged_keyframes_are_codec_errors(self):
        state = hand_built_state({(0, 1): (1.0, 1e4, 0), (1, 2): (0.1, 1e4, 0)}, 0.0)
        _, meta, arrays = wire.decode_frame(encode_keyframe_update(state, 1))
        forgeries = [
            (meta, [arrays[0][:-1], *arrays[1:]]),
            (meta, [*arrays[:5], arrays[5][:0]]),
            (meta, arrays[:5]),
            ({**meta, "satellites": [2**40]}, arrays),
        ]
        for forged_meta, forged_arrays in forgeries:
            data = wire.encode_frame(FrameKind.KEYFRAME, forged_meta, tuple(forged_arrays))
            replica = EpochReplica()
            with pytest.raises(CodecError):
                replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, data))
            assert replica.epoch is None

    def test_truncated_bytes_are_wire_errors(self):
        data = encode_diff_update(
            hand_built_diff(
                hand_built_state({(0, 1): (1.0, 1e4, 0)}, 0.0),
                hand_built_state({(0, 1): (2.0, 1e4, 0)}, 1.0),
            ),
            2,
        )
        for cut in (1, 5, len(data) // 2):
            with pytest.raises(wire.WireError):
                EpochUpdate(FrameKind.DIFF, 2, data[:-cut]).decoded()


class TestFrameBudget:
    """Exact byte counts (no wall clock): the frame is what every subscriber
    receives, so its size is the fan-out's unit cost."""

    @pytest.mark.parametrize(
        "config_factory,step_s,diff_budget,keyframe_budget",
        [
            pytest.param(
                lambda: west_africa_configuration(shells="all"), 2.0, 25_000, 200_000,
                id="starlink-all-shells",
            ),
            pytest.param(
                lambda: dart_configuration("central", 40, 80), 1.0, 2_000, 10_000,
                id="iridium-dart",
            ),
        ],
    )
    def test_frames_stay_within_budget(self, config_factory, step_s, diff_budget, keyframe_budget):
        calculation = ConstellationCalculation(config_factory())
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        keyframe = database.codec.keyframe_update(1, state=state)
        replica.apply(keyframe)
        sizes = []
        for step in range(1, 11):
            state, diff = advance(calculation, database, state, step * step_s)
            update = database.codec.diff_update(database.epoch, diff=diff)
            replica.apply(update)
            sizes.append(len(update.data))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, database.epoch))
        assert max(sizes) <= diff_budget, sizes
        resync = database.codec.keyframe_update(database.epoch, state=state)
        assert max(len(keyframe.data), len(resync.data)) <= keyframe_budget
