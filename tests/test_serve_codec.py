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
from hypothesis import assume, example, given, settings, strategies as st

from repro.core import (
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.core.constellation import ConstellationDiff, DelayTrend
from repro.dist import wire
from repro.dist.wire import FrameKind
from repro.orbits import GroundStation, ShellGeometry
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.serve import EpochReplica, EpochSnapshot, EpochUpdateCodec
from repro.serve.codec import (
    CodecError,
    EpochUpdate,
    _merge,
    _pack_mask,
    _unpack_mask,
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
GRID = 2.0**-20


def hand_built_state(links, time_s, active=(True,) * 6, index=HAND_BUILT_INDEX, previous=None):
    """A stand-in state over ``index``'s nodes (eight by default) from
    ``{(a, b): (delay_ms, bandwidth_kbps, type_code)}`` — in any order and
    orientation (the graph stores them in the canonical one), delays on the
    grid — with what :meth:`EpochSnapshot.from_state` reads of a state and
    the delay trend: zero, or advanced from the ``previous`` state's as
    ``diff_since`` does."""
    nodes = np.array(list(links), dtype=np.int64).reshape(-1, 2)
    values = list(links.values())
    graph = NetworkGraph.from_edge_arrays(
        index,
        nodes[:, 0],
        nodes[:, 1],
        np.zeros(len(links)),
        np.rint(np.array([value[0] for value in values]) / GRID).astype(np.uint32),
        np.array([value[1] for value in values], dtype=np.float64),
        np.array([value[2] for value in values], dtype=np.int8),
    )
    trend = (
        DelayTrend.cold(graph)
        if previous is None
        else previous.trend.after(graph.diff_from(previous.graph))
    )
    return SimpleNamespace(
        graph=graph,
        time_s=time_s,
        active_satellites={0: np.array(active, dtype=bool)},
        trend=trend,
    )


def hand_built_chain(epochs, index=HAND_BUILT_INDEX):
    """The states of ``[(links, active), ...]``, each trend from the last."""
    states = []
    for step, (links, active) in enumerate(epochs):
        states.append(
            hand_built_state(links, float(step), active, index, states[-1] if states else None)
        )
    return states


def hand_built_diff(previous, current) -> ConstellationDiff:
    was, now = previous.active_satellites[0], current.active_satellites[0]
    return ConstellationDiff(
        time_s=current.time_s,
        topology=current.graph.diff_from(previous.graph),
        activated={0: np.nonzero(now & ~was)[0]},
        deactivated={0: np.nonzero(was & ~now)[0]},
        previous_trend=previous.trend,
        trend=current.trend,
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
        database.codec.diff_update(database.epoch, diff=diff)
        assert database.codec.encode_count == epochs

    def test_every_diff_carries_residual_fields(self):
        """A cold-started Iridium stream: the first DIFF predicts from the
        keyframe's zero trend and, like every later one, carries ``bits`` in
        1…8 and ``uint8`` fields; the replica stays bit-exact."""
        calculation = ConstellationCalculation(iridium_configuration())
        codec = EpochUpdateCodec()
        state = calculation.state_at(0.0)
        replica = EpochReplica()
        replica.apply(codec.keyframe_update(1, state))
        for epoch in range(2, 14):
            state, diff = calculation.diff_since(state, (epoch - 1) * 30.0)
            update = codec.diff_update(epoch, diff)
            meta, arrays = update.decoded()
            assert type(meta["bits"]) is int and 1 <= meta["bits"] <= 8, epoch
            assert arrays[8].dtype == np.uint8 and arrays[8].size, epoch
            replica.apply(update)
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, epoch)), epoch

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
        # Two uplinks of one satellite, stored lower node (the satellite) first.
        assert diff.topology.current.node_a[added].tolist() == [723, 723]
        assert diff.topology.current.node_b[added].tolist() == [1587, 1588]
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

    def test_a_fresh_codec_encodes_a_keyframe_for_epoch_0(self):
        """Nothing a codec holds decides a frame: the first thing a fresh one
        is asked, a keyframe for epoch 0, encodes and applies bit for bit."""
        state = ConstellationCalculation(iridium_configuration()).state_at(0.0)
        update = ConstellationDatabase().codec.keyframe_update(0, state=state)
        replica = EpochReplica()
        replica.apply(update)
        assert replica.epoch == 0
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 0))

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
        # Asked again, the remembered epoch's frames come from the memo.
        assert codec.diff_update(30, diff=diff).data is update.data
        assert codec.keyframe_update(30, state=state).data is resync.data
        assert codec.encode_count == 1 + 2 * 29
        database.set_state(calculation.state_at(0.0))  # full state: a keyframe only
        assert codec.keyframe_update(31, state=database.state).epoch == 31
        assert list(codec._frames) == [FrameKind.KEYFRAME]

    def test_late_request_for_an_older_epoch_is_not_memoised(self):
        """A publication can still be queued on the gateway's loop when a
        SUBSCRIBE has already asked for a newer epoch's keyframe.  Each frame
        is a function of its publication alone, so the late ones are the
        bytes their publications encode to, and a subscriber that takes the
        frames in either order predicts the newest DIFF's residuals."""
        calculation = ConstellationCalculation(iridium_configuration())
        database = ConstellationDatabase()
        codec = database.codec
        first_state = calculation.state_at(0.0)
        database.set_state(first_state)
        second_state, first_diff = advance(calculation, database, first_state, 5.0)
        state, diff = advance(calculation, database, second_state, 10.0)
        newest = codec.keyframe_update(3, state=state)
        newest_diff = codec.diff_update(3, diff=diff)
        assert codec.encode_count == 2 and codec._epoch == 3
        assert newest_diff.decoded()[0]["bits"] > 0  # residuals against epoch 2's trend
        late = codec.keyframe_update(1, state=first_state)
        assert late.epoch == 1 and late.data == encode_keyframe_update(first_state, 1)
        late_diff = codec.diff_update(2, diff=first_diff)
        assert late_diff.epoch == 2 and late_diff.data == encode_diff_update(first_diff, 2)
        assert codec.encode_count == 4
        joiner = codec.keyframe_update(2, second_state)
        for frames in ((late, late_diff, newest_diff), (joiner, newest_diff)):
            replica = EpochReplica()
            for update in frames:
                replica.apply(update)
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 3))
        assert codec.encode_count == 5
        # Asked again, encoded again: only the newest epoch is remembered ...
        codec.keyframe_update(1, state=first_state)
        assert codec.encode_count == 6
        # ... and it was not displaced.
        assert codec._epoch == 3
        assert codec.keyframe_update(3, state=state).data is newest.data
        assert codec.diff_update(3, diff=diff).data is newest_diff.data
        assert codec.encode_count == 6

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
#: Delay counts: zero, one, the largest a ``uint32`` holds, and anything
#: between.
DELAYS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
BANDWIDTHS = st.sampled_from([1e4, 2.5e6, 1e7])
#: How far a chain's delay counts stray from their smooth tracks: not at
#: all, a few counts, or enough that third differences escape at int8,
#: int16 or int32.
JITTER = st.sampled_from([0, 3, 10, 40, 3000, 2**20])


@st.composite
def chains(draw):
    """Two to nine epochs of hand-built links over one pool of undirected
    pairs.  In each epoch a pair is absent, follows its track of grid counts
    — a parabola, on which a link that stays keeps changing smoothly, off by
    up to the chain's ``JITTER`` — or holds any of ``DELAYS`` — so curves
    are not 0, residuals escape at every width, links appear, vanish and
    reappear, and delays jump anywhere on the grid between epochs — in
    either orientation and in any edge order.  Some epochs keep the previous
    one's links, orientation and order: no structural change."""
    # Up to 24 links: a one-link mask travels as its position (2 B < 3 B of bits).
    pool = draw(st.lists(st.sampled_from(PAIRS), max_size=24, unique_by=frozenset))
    tracks = {
        frozenset(pair): (
            draw(st.integers(0, 2**31)),
            draw(st.integers(-4096, 4096)),
            draw(st.integers(-64, 64)),
        )
        for pair in pool
    }
    # How often a link leaves its track: never, in some chains.
    forms = ["track"] * 30 + ["absent"] * 3 + ["any"] * draw(st.integers(0, 2))
    jitter = draw(JITTER)
    epochs = []
    for epoch in range(draw(st.integers(2, 9))):
        still = list(epochs[-1][0]) if epochs and draw(st.integers(0, 3)) == 0 else None
        links = {}
        for pair in still or draw(st.permutations(pool)):
            form = draw(st.sampled_from(forms))
            if form == "absent" and not still:
                continue
            if form == "any":
                delay = draw(DELAYS) * GRID
            else:
                start, slope, bend = tracks[frozenset(pair)]
                count = start + slope * epoch + bend * epoch**2
                count += draw(st.one_of(st.just(0), st.integers(-jitter, jitter)))
                delay = min(max(count, 0), 2**32 - 1) * GRID
            # A link's type follows from its endpoints, as in the pipeline (a
            # TopologyDiff does not report a surviving pair that changed type).
            link_type = int(max(pair) >= HAND_BUILT_INDEX.satellite_count)
            if not still and draw(st.booleans()):
                pair = pair[::-1]
            links[pair] = (delay, draw(BANDWIDTHS), link_type)
        epochs.append((links, draw(st.tuples(*[st.booleans()] * 6))))
    return epochs


#: Delay counts of five links over nine epochs (None: absent).  Epoch 2's
#: DIFF predicts from the first keyframe's zero trend; epoch 3 holds the
#: links and sends residuals for links that all changed, one of them for the
#: first time; epoch 4 adds a link as every changed delay jumps 2**31 counts
#: (every residual escapes at int64), epoch 5 holds the links and jumps back
#: (escaping again), and the jumps' trend makes epochs 6 and 7 escape too —
#: epoch 7 removes a link while another stops changing;
#: epoch 8 holds the links and predicts again as that one moves again, and
#: epoch 9 adds a link just ahead of it in the link order as it stops once
#: more.
EXAMPLE_PAIRS = ((0, 1), (1, 2), (2, 6), (2, 7), (3, 4))
EXAMPLE_COUNTS = [
    (1000, 2000, None, 3000, None),
    (1010, 2020, None, 3000, None),
    (1020, 2040, None, 3030, None),
    (2**31 + 1030, 2**31 + 2060, None, 2**31 + 3060, 9),
    (1040, 2080, None, 3090, 9),
    (1050, 2100, None, 3120, 9),
    (1060, 2120, None, 3120, None),
    (1070, 2140, None, 3150, None),
    (1080, 2160, 500, 3150, None),
]


def _example_chain():
    return [
        (
            {
                pair: (count * GRID, 1e4, int(max(pair) >= HAND_BUILT_INDEX.satellite_count))
                for pair, count in zip(EXAMPLE_PAIRS, counts)
                if count is not None
            },
            (step < 6,) * 6,
        )
        for step, counts in enumerate(EXAMPLE_COUNTS)
    ]


#: Third differences of five links' delay counts from epoch 3 on (before,
#: the trend is not yet three epochs deep): one smooth, one off by a few
#: counts, and three with one bend each that escapes at int8 (epoch 4),
#: int16 (epoch 6) and int32 (epoch 8).
CURVING_PAIRS = ((0, 1), (0, 6), (1, 2), (2, 3), (4, 7))
CURVING_THIRD = [
    [0] * 10,
    [0, 0, 0, 1, -2, 3, -1, 0, 2, -3],
    [0, 0, 0, 0, 50, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 3000, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 2**20, 0],
]


def _curving_chain():
    """Ten epochs of the five links, every step non-zero."""
    tracks = []
    for link, thirds in enumerate(CURVING_THIRD):
        count, step, curve, counts = 2**30 + link * 2**24, 5000 + 700 * link, 40 - 9 * link, []
        for epoch, third in enumerate(thirds):
            if epoch >= 2:
                curve += third
            if epoch:
                step += curve
                count += step
            counts.append(count)
        tracks.append(counts)
    return [
        (
            {
                pair: (counts[epoch] * GRID, 1e4, int(max(pair) >= 6))  # 6 satellites
                for pair, counts in zip(CURVING_PAIRS, tracks)
            },
            (True,) * 6,
        )
        for epoch in range(len(CURVING_THIRD[0]))
    ]


def _assert_same_trend(held, published, epoch):
    """A replica's trend is the publication's, byte for byte."""
    for name in ("step", "curve"):
        mine, theirs = getattr(held, name), getattr(published, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), (name, epoch)
    assert held.stepped == published.stepped, epoch


@st.composite
def streams(draw):
    """A chain, the epoch from whose keyframe a subscriber joins, and the
    epoch whose DIFF another one misses."""
    epochs = draw(chains())
    return epochs, draw(st.integers(1, len(epochs))), draw(st.integers(2, len(epochs)))


class TestHandBuiltSequences:
    @settings(max_examples=150, deadline=None)
    @given(chains())
    @example(_curving_chain())
    def test_replica_is_bit_exact_on_and_off_the_delay_grid(self, epochs):
        """Random link additions, removals, delay and bandwidth changes over
        hand-built graphs — delays anywhere on the ``uint32`` grid — must
        reconstruct bit for bit, without a NumPy cast warning, in three
        replicas at every epoch: one from the first keyframe, one joining
        from the keyframe of every later epoch, and one fed from epoch 3 on
        by a codec that skipped epoch 2 — whose frames are the same bytes:
        a frame is a function of its publication, whichever codec encodes
        it and whatever that codec encoded before."""
        states = hand_built_chain(epochs)
        codec, gapped, keyframes = (ConstellationDatabase().codec for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = codec.keyframe_update(1, states[0])
            replicas, behind_gap = [EpochReplica()], EpochReplica()
            replicas[0].apply(first)
            behind_gap.apply(first)
            for epoch, (previous, current) in enumerate(zip(states, states[1:]), start=2):
                diff = hand_built_diff(previous, current)
                # A codec that never encoded a DIFF and one that encoded each
                # before its keyframe send the same keyframe.
                keyframe = keyframes.keyframe_update(epoch, current)
                update = codec.diff_update(epoch, diff)
                assert codec.keyframe_update(epoch, current).data == keyframe.data
                for replica in replicas:
                    replica.apply(update)
                if epoch == 2:
                    behind_gap.apply(update)
                else:
                    resumed = gapped.diff_update(epoch, diff)
                    assert resumed.data == update.data, epoch
                    behind_gap.apply(resumed)
                replicas.append(EpochReplica())
                replicas[-1].apply(keyframe)
                expected = EpochSnapshot.from_state(current, epoch)
                for replica in (*replicas, behind_gap):
                    assert replica.snapshot().same_bits(expected), epoch
                    _assert_same_trend(replica.trend, current.trend, epoch)

    @settings(max_examples=150, deadline=None)
    @given(streams())
    @example((_example_chain(), 3, 2))
    @example((_curving_chain(), 5, 7))
    def test_continuous_joined_and_resynced_replicas_agree(self, stream):
        """Three subscribers of one codec: one never leaves, one joins from
        the keyframe of epoch ``join``, and one misses the DIFF of epoch
        ``gap`` — the next is refused — and resyncs from the keyframe that
        follows, as an evicted subscriber does.  Each is bit-exact at every
        epoch it holds, whether the residuals are near 0 or escape (delays
        far off their trend), with and without structural change.
        (The first example covers each of those; the second joins and
        resyncs where the trend has steps and curves.)"""
        chain, join, gap = stream
        states = hand_built_chain(chain)
        codec = ConstellationDatabase().codec
        continuous, joined, resynced = EpochReplica(), EpochReplica(), EpochReplica()
        first = codec.keyframe_update(1, states[0])
        for replica in (continuous, resynced, *((joined,) if join == 1 else ())):
            replica.apply(first)
        for epoch, (previous, current) in enumerate(zip(states, states[1:]), start=2):
            diff = hand_built_diff(previous, current)
            update = codec.diff_update(epoch, diff)
            continuous.apply(update)
            if joined.epoch is not None:
                joined.apply(update)
            elif epoch == join:
                joined.apply(codec.keyframe_update(epoch, current))
            if resynced.epoch == epoch - 1 and epoch != gap:
                resynced.apply(update)
            elif epoch != gap:
                with pytest.raises(CodecError, match="does not chain"):
                    resynced.apply(update)
                resynced.apply(codec.keyframe_update(epoch, current))
            expected = EpochSnapshot.from_state(current, epoch)
            holding = [
                replica for replica in (continuous, joined, resynced) if replica.epoch == epoch
            ]
            assert len(holding) == 3 - (epoch < join) - (epoch == gap)
            assert all(replica.snapshot().same_bits(expected) for replica in holding), epoch
            for replica in holding:  # one order: the publication's trend columns
                _assert_same_trend(replica.trend, current.trend, epoch)
        assert resynced.applied_keyframes == 1 + (gap < len(states))

    def test_residuals_are_third_differences_at_their_narrowest_width(self):
        """The curving chain's DIFFs send its first, second and then third
        differences, at the field width whose packed bytes plus escapes are
        fewest (the narrowest on a tie), with the escapes at their narrowest
        width — int8, int16 and int32 all occur — and its keyframes carry
        the non-zero curves.  Fields are read back by hand, not by the
        codec."""
        chain = _curving_chain()
        states = hand_built_chain(chain)
        codec = ConstellationDatabase().codec
        replica = EpochReplica()
        replica.apply(codec.keyframe_update(1, states[0]))
        tracks = [[links[pair][0] / GRID for links, _ in chain] for pair in CURVING_PAIRS]
        widths = []
        for step, (previous, current) in enumerate(zip(states, states[1:]), start=1):
            update = codec.diff_update(step + 1, hand_built_diff(previous, current))
            replica.apply(update)
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(current, step + 1))
            meta, arrays = update.decoded()
            bits, escapes = meta["bits"], arrays[9].tolist()
            fields = _fields(arrays[8], bits, len(CURVING_PAIRS))
            marked = iter(escapes)
            residuals = [next(marked) if field == -(1 << (bits - 1)) else field for field in fields]
            # The differences of the link's counts, of the order the trend holds.
            order = min(step, 3)
            assert residuals == [int(np.diff(track[: step + 1], order)[-1]) for track in tracks]
            width = _narrowest_signed(residuals).itemsize  # of any escape
            sizes = [
                -(-len(fields) * b // 8) + width * sum(abs(r) >= 1 << (b - 1) for r in residuals)
                for b in range(1, 9)
            ]
            assert bits == 1 + sizes.index(min(sizes)), (step, sizes)
            assert arrays[9].dtype == _narrowest_signed(escapes), step
            if step >= 3 and escapes:
                widths.append(arrays[9].dtype.name)
            curves = codec.keyframe_update(step + 1, current).decoded()[1][6]
            assert curves.any() == (step >= 2)
        assert {"int8", "int16", "int32"} <= set(widths), widths

    def test_the_data_alone_chooses_the_delay_coding(self):
        """A KEYFRAME's delays are the graph's ``uint32`` counts, from 0 to
        2**32 - 1, and its endpoints the narrowest signed width."""
        links = {(0, 1): (0.0, 1e4, 0), (1, 2): (3 * GRID, 1e4, 0), (2, 3): (4096.0 - GRID, 1e4, 0)}
        state = hand_built_state(links, 0.0)
        keyframe = EpochUpdate(FrameKind.KEYFRAME, 1, encode_keyframe_update(state, 1))
        arrays = keyframe.decoded()[1]
        assert arrays[2].dtype == np.uint32 and arrays[2].tolist() == [0, 3, 2**32 - 1]
        assert arrays[0].dtype == arrays[1].dtype == np.int8  # eight nodes
        assert np.all(arrays[0] < arrays[1])
        replica = EpochReplica()
        replica.apply(keyframe)
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 1))

    def test_the_data_alone_chooses_the_bandwidth_coding(self):
        """Bandwidths travel as indices into a palette of their distinct bit
        patterns (-0.0 and 0.0 are two entries): ``uint8`` indices up to 256
        entries, ``uint16`` for 257."""
        index = NodeIndex([24], [])
        pairs = [(a, b) for a in range(24) for b in range(a + 1, 24)]  # 276 links
        cases = {
            "one": ([1e4] * 276, 1, np.uint8),
            "signed zeros": ([0.0, -0.0] * 138, 2, np.uint8),
            "256": ([float(link % 256) for link in range(276)], 256, np.uint8),
            "257": ([float(link % 257) for link in range(276)], 257, np.uint16),
        }
        for name, (bandwidths, palette_size, dtype) in cases.items():
            links = {pair: (1.0, bandwidth, 0) for pair, bandwidth in zip(pairs, bandwidths)}
            state = hand_built_state(links, 0.0, active=(True,) * 24, index=index)
            keyframe = EpochUpdate(FrameKind.KEYFRAME, 1, encode_keyframe_update(state, 1))
            arrays = keyframe.decoded()[1]
            assert arrays[3].dtype == dtype, name
            assert arrays[7].dtype == np.float64 and arrays[7].size == palette_size, name
            replica = EpochReplica()
            replica.apply(keyframe)
            assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 1)), name


class TestFewLinkPaths:
    """A mask of a few links travels as their positions, which must name the
    links its bits would, on either side of the size that selects them; and
    the replica's merge of a few removals and additions must equal deleting
    and inserting them one by one."""

    @pytest.mark.parametrize(
        "gone,at,ends",
        [
            (0, 1, False), (1, 0, False), (1, 1, False), (3, 5, False), (2, 2, True),
            (8, 0, False), (0, 8, False), (5, 3, True), (9, 9, False), (40, 40, True),
        ],
    )
    def test_merge_equals_the_masked_merge(self, gone, at, ends):
        """4,096 links, against ``np.delete`` then ``np.insert``.  With
        ``ends``, the first and the last link go and come."""
        rng = np.random.default_rng(gone * 100 + at)

        def mask(length, count):
            if ends:
                inner = rng.choice(np.arange(1, length - 1), count - 2, replace=False)
                chosen = [0, length - 1, *inner]
            else:
                chosen = rng.choice(length, count, replace=False)
            mask = np.zeros(length, dtype=bool)
            mask[chosen] = True
            return mask

        removed, added = mask(4096, gone), mask(4096 - gone + at, at)
        columns = [rng.integers(0, 99, 4096), rng.random(4096)]
        fresh = [rng.integers(0, 99, at).astype(np.int32), rng.random(at)]
        gone, at_positions = np.flatnonzero(removed), np.flatnonzero(added)
        # The i-th added link goes ahead of kept link at[i] - i.
        ahead = at_positions - np.arange(at_positions.size)
        for held, new, merged in zip(columns, fresh, _merge(columns, gone, at_positions, fresh)):
            expected = np.insert(np.delete(held, gone), ahead, new)
            assert merged.dtype == expected.dtype and merged.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 5, 6, 187, 188, 200])
    def test_pack_positions_equals_the_masked_pass(self, count):
        """3,000 links, given in no particular order: a diff's edge ids are
        the links' positions in the canonical order, and a mask of up to 187
        travels as those ``uint16`` positions (374 B), more as the 375 bytes
        of its bits."""
        rng = np.random.default_rng(count)
        pairs = np.array([(a, b) for a in range(80) for b in range(a + 1, 80)])
        pairs = pairs[rng.permutation(len(pairs))[:3000]]
        pairs[: len(pairs) // 2] = pairs[: len(pairs) // 2, ::-1]  # either endpoint first

        def graph(delays):
            return NetworkGraph.from_edge_arrays(
                NodeIndex([80], []),
                pairs[:, 0],
                pairs[:, 1],
                np.zeros(len(pairs)),
                delays,
                np.ones(len(pairs)),
                np.zeros(len(pairs), dtype=np.int8),
            )

        chosen = np.zeros(len(pairs), dtype=bool)
        chosen[rng.choice(len(pairs), count, replace=False)] = True
        before = graph(np.ones(len(pairs), dtype=np.uint32))
        after = graph(np.where(chosen, 2, 1).astype(np.uint32))
        positions = after.diff_from(before).delay_changed
        low, high = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        mask = chosen[np.lexsort((high, low))]  # the chosen links, in the canonical order
        assert positions.tolist() == np.flatnonzero(mask).tolist()
        packed = _pack_mask(positions, len(pairs))
        if count <= 187:
            assert packed.dtype == np.uint16 and packed.tolist() == positions.tolist()
        else:
            assert packed.tobytes() == np.packbits(mask).tobytes()
        assert _unpack_mask(packed, len(pairs)).tolist() == positions.tolist()

    @pytest.mark.parametrize(
        "length,count,dtype",
        [
            (0, 0, np.uint8),
            (1, 0, np.uint16),
            (1, 1, np.uint8),
            (17, 1, np.uint16),
            (16, 1, np.uint8),  # 2 B either way: the bits
            (2**16, 4095, np.uint16),
            (2**16, 4096, np.uint8),
            (2**16 + 1, 2048, np.uint32),
            (2**16 + 1, 2049, np.uint8),
        ],
    )
    def test_the_size_alone_chooses_the_mask_form(self, length, count, dtype):
        """Positions travel when strictly smaller than the bits, as ``uint16``
        over up to 2**16 links and as ``uint32`` over more."""
        positions = np.linspace(0, length - 1, count).astype(np.intp)
        assert np.unique(positions).size == count
        packed = _pack_mask(positions, length)
        assert packed.dtype == dtype and packed.ndim == 1
        assert packed.nbytes == (count * packed.itemsize if dtype != np.uint8 else (length + 7) // 8)
        assert _unpack_mask(packed, length).tolist() == positions.tolist()


def _fields(packed, bits, count):
    """The ``bits``-bit two's-complement fields of packed residuals."""
    stream = "".join(f"{byte:08b}" for byte in packed.tolist())
    values = [int(stream[i * bits : (i + 1) * bits], 2) for i in range(count)]
    return [value - (1 << bits) if value >> (bits - 1) else value for value in values]


def _packed(fields, bits):
    """``fields`` as ``bits``-bit two's-complement fields, packed."""
    stream = "".join(f"{field & ((1 << bits) - 1):0{bits}b}" for field in fields)
    stream += "0" * (-len(stream) % 8)
    return np.array([int(stream[i : i + 8], 2) for i in range(0, len(stream), 8)], dtype=np.uint8)


def _narrowest_signed(values):
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if all(np.iinfo(dtype).min <= value <= np.iinfo(dtype).max for value in values):
            return np.dtype(dtype)


def _without(meta, key):
    return {name: value for name, value in meta.items() if name != key}


def _on_track(pair, ahead):
    """A forged-frame fixture delay: ``ahead`` grid steps past the link's base."""
    return (2**20 * (1 + pair[1]) + ahead) * GRID


FORGED_INDEX = NodeIndex([12], ["g0", "g1"])


class TestForgedFrames:
    """A frame that does not fit the replica raises ``CodecError`` — never an
    ``IndexError`` or a bare ``ValueError`` — and leaves the replica alone."""

    #: 48 links, so a mask's bits are six bytes and two positions four.
    LINKED = [(a, b) for a in range(12) for b in range(a + 1, 12)][:48]
    BEFORE = {pair: (_on_track(pair, -400), 1e4, 0) for pair in LINKED}
    ZERO = {pair: (_on_track(pair, 0), 1e4, 0) for pair in LINKED}
    FIRST = {pair: (_on_track(pair, 500), 1e4, 0) for pair in LINKED}
    # Every link steps 400 into ZERO and 500 into FIRST (a curve of 100).
    # Then one steps 1000 and changes bandwidth (a residual of 400: an
    # escape), 42 step 603 (a residual of 3; one changes bandwidth), three
    # stop, two go and two come.  Removed, added and bandwidth-changed links
    # travel as two positions; the delay-changed mask is the three that
    # stopped (six bytes either way: its bits); the residuals are 43 fields
    # of 3 bits.
    SECOND = {
        LINKED[0]: (_on_track(LINKED[0], 1500), 2e4, 0),
        LINKED[2]: (_on_track(LINKED[2], 1103), 2e4, 0),
        **{pair: (_on_track(pair, 1103), 1e4, 0) for pair in LINKED[3:44]},
        **{pair: (_on_track(pair, 500), 1e4, 0) for pair in (*LINKED[44:46], LINKED[47])},
        (3, 13): (_on_track((3, 13), 7), 1e4, 1),
        (0, 12): (_on_track((0, 12), 0), 1e4, 1),
    }

    def _replica_and_diff(self):
        """A replica keyed to FIRST at epoch 2 (with its trend), and the
        decoded epoch 3 DIFF to SECOND."""
        zero, first, second = hand_built_chain(
            [(links, (True,) * 12) for links in (self.BEFORE, self.ZERO, self.FIRST)]
            + [(self.SECOND, (True, False) * 6)],
            FORGED_INDEX,
        )[1:]
        codec = ConstellationDatabase().codec
        keyframe = codec.keyframe_update(2, first)
        update = codec.diff_update(3, hand_built_diff(first, second))
        _, meta, arrays = wire.decode_frame(update.data)
        assert all(array.size for array in arrays[:12])  # every kind of change occurs
        assert [arrays[i].dtype for i in (0, 1, 7, 10)] == [np.uint16, np.uint16, np.uint8, np.uint16]
        assert [arrays[i].nbytes for i in (0, 1, 7, 10)] == [4, 4, 6, 4]
        assert np.unpackbits(arrays[7]).sum() == 3 and meta["bits"] == 3
        assert arrays[8].dtype == np.uint8 and arrays[8].size == 17
        assert _fields(arrays[8], 3, 43) == [-4] + [3] * 42
        assert arrays[9].dtype == np.int16 and arrays[9].tolist() == [400]
        replica = EpochReplica()
        replica.apply(keyframe)
        return replica, second, meta, arrays

    def test_the_honest_frame_applies(self):
        replica, second, meta, arrays = self._replica_and_diff()
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        replica.apply(EpochUpdate(FrameKind.DIFF, 3, data))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(second, 3))

    @pytest.mark.parametrize(
        "position,forge",
        [
            pytest.param(7, lambda mask: mask[:-1], id="truncated-mask"),
            pytest.param(7, lambda mask: np.append(mask, 0).astype(np.uint8), id="long-mask"),
            pytest.param(7, lambda mask: mask[:0], id="empty-mask-values-left"),
            pytest.param(10, lambda mask: mask.astype(np.int8), id="mask-dtype"),
            pytest.param(0, lambda positions: positions[:-1], id="truncated-positions"),
            pytest.param(10, lambda positions: positions[:0], id="empty-positions-values-left"),
            pytest.param(
                8, lambda values: np.append(values, values[-1:]), id="extra-trailing-value"
            ),
            pytest.param(11, lambda values: values[:-1], id="missing-value"),
            pytest.param(5, lambda values: values[:0], id="added-rows-short"),
            pytest.param(8, lambda values: values.astype(np.float32), id="delay-dtype"),
            pytest.param(2, lambda nodes: nodes.reshape(-1, 1), id="endpoint-shape"),
            pytest.param(13, lambda ids: ids + 12, id="flip-out-of-range"),
            pytest.param(13, lambda ids: ids - 12, id="flip-negative"),
            pytest.param(13, lambda ids: np.ones(12, dtype=bool), id="flip-bool"),
            pytest.param(13, lambda ids: ids.reshape(-1, 1), id="flip-2-D"),
            pytest.param(9, lambda escapes: np.append(escapes, escapes), id="escapes-too-many"),
            pytest.param(9, lambda escapes: escapes[:0], id="escapes-too-few"),
            pytest.param(
                8, lambda packed: _packed([1 if f == -4 else f for f in _fields(packed, 3, 43)], 3),
                id="escape-unmarked",
            ),
            pytest.param(
                8, lambda packed: _packed([-4, -4, *_fields(packed, 3, 43)[2:]], 3),
                id="escape-marked-twice",
            ),
            pytest.param(8, lambda packed: packed[:-1], id="packed-short"),
            pytest.param(8, lambda packed: packed | np.uint8(1), id="pad-bits"),
            pytest.param(8, lambda packed: packed.view(np.int8), id="packed-dtype"),
            pytest.param("bits", lambda bits: 0, id="bits-zero-with-fields"),
            pytest.param("bits", lambda bits: 9, id="bits-nine"),
            pytest.param("bits", lambda bits: -3, id="bits-negative"),
            pytest.param("bits", lambda bits: 2, id="bits-narrower"),
            pytest.param("bits", lambda bits: 4, id="bits-wider"),
            pytest.param("bits", lambda bits: 3.0, id="bits-float"),
            pytest.param("bits", lambda bits: "3", id="bits-string"),
            pytest.param("bits", lambda bits: True, id="bits-bool"),
            pytest.param("bits", lambda bits: None, id="bits-null"),
            pytest.param(9, lambda escapes: escapes.astype(np.uint16), id="escape-dtype"),
            pytest.param(9, lambda escapes: escapes.reshape(1, 1), id="escape-shape"),
            pytest.param(
                8, lambda values: np.arange(values.size, dtype=np.uint32),
                id="escapes-with-counts",
            ),
            pytest.param(
                8, lambda values: np.arange(values.size, dtype=np.float64),
                id="escapes-with-values",
            ),
            pytest.param(
                9, lambda escapes: escapes.astype(np.int64) + 2**40, id="count-above-grid"
            ),
            pytest.param(
                9, lambda escapes: escapes.astype(np.int64) - 2**40, id="count-below-zero"
            ),
            pytest.param("links", lambda links: [links[0] + 1, links[1]], id="links-before"),
            pytest.param("links", lambda links: [links[0], links[1] + 8], id="links-after"),
            pytest.param("shells", lambda shells: [], id="array-count"),
            pytest.param(4, lambda counts: counts.astype(np.float64), id="added-delay-float64"),
            pytest.param(None, lambda meta, arrays: (_without(meta, "bits"), arrays), id="no-bits"),
            pytest.param(
                None,  # the uint32-counts form: the three links' delays, no ``bits``
                lambda meta, arrays: (
                    _without(meta, "bits"),
                    [*arrays[:8], np.zeros(3, np.uint32), arrays[9][:0], *arrays[10:]],
                ),
                id="uint32-delays",
            ),
            pytest.param(
                None, lambda meta, arrays: (_without(meta, "links"), arrays), id="no-links"
            ),
            pytest.param(
                None, lambda meta, arrays: (_without(meta, "shells"), arrays), id="no-shells"
            ),
            pytest.param("links", lambda links: [1, 2, 3], id="links-three"),
            pytest.param("links", lambda links: [links[0], -1], id="links-negative"),
            pytest.param("epoch", lambda epoch: float(epoch), id="epoch-float"),
            pytest.param("epoch", lambda epoch: str(epoch), id="epoch-string"),
            pytest.param("time_s", lambda time_s: "x", id="time-string"),
            pytest.param("time_s", lambda time_s: None, id="time-null"),
            pytest.param("shells", lambda shells: shells * 2, id="shells-repeated"),
            pytest.param("shells", lambda shells: [0.0], id="shells-float"),
            pytest.param(
                None, lambda meta, arrays: (meta, [*arrays[:3], arrays[2], *arrays[4:]]),
                id="added-self-link",
            ),
            pytest.param(3, lambda nodes: np.array([12, 99], nodes.dtype), id="added-node-99"),
            pytest.param(2, lambda nodes: nodes - 1, id="added-node-negative"),
            pytest.param(2, lambda nodes: nodes.astype(np.uint8), id="added-nodes-unsigned"),
            pytest.param(6, lambda types: types.astype(np.float64), id="added-type-float"),
            pytest.param(6, lambda types: types + 2, id="added-type-three"),
            pytest.param(5, lambda values: values.astype(np.int64), id="added-bandwidth-int64"),
            pytest.param(11, lambda values: values.astype(np.float32), id="bandwidth-float32"),
            pytest.param(2, lambda nodes: nodes[::-1], id="added-links-descending"),
            pytest.param(
                2, lambda nodes: np.array([2, 3], nodes.dtype), id="added-link-out-of-place"
            ),
        ],
    )
    def test_forged_frames_are_codec_errors(self, position, forge):
        replica, _, meta, arrays = self._replica_and_diff()
        before = replica.snapshot()
        if position is None:  # the forgery rewrites the whole frame
            meta, arrays = forge(meta, arrays)
        elif isinstance(position, str):
            meta = {**meta, position: forge(meta[position])}
        else:
            arrays[position] = forge(arrays[position])
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        with pytest.raises(CodecError):
            replica.apply(EpochUpdate(FrameKind.DIFF, 3, data))
        assert replica.epoch == 2 and replica.snapshot().same_bits(before)

    @pytest.mark.parametrize(
        "position,forge,match",
        [
            pytest.param(1, lambda positions: positions[::-1], "ascend", id="descending"),
            pytest.param(1, lambda positions: positions[[0, 0]], "ascend", id="duplicated"),
            pytest.param(
                1, lambda positions: np.append(positions[:-1], 48).astype(np.uint16), "below 48",
                id="beyond-the-links",
            ),
            pytest.param(0, lambda positions: positions.astype(np.int16), "int16", id="int16"),
            pytest.param(0, lambda positions: positions.astype(np.uint32), "uint32", id="wide"),
            pytest.param(1, lambda positions: positions.astype(np.uint64), "uint64", id="uint64"),
            pytest.param(
                10, lambda positions: positions.astype(np.float64), "float64", id="float64"
            ),
            pytest.param(1, lambda positions: positions.reshape(1, -1), r"\(1, 2\)", id="2-D"),
            pytest.param(
                7, lambda mask: mask ^ np.eye(1, 6, dtype=np.uint8)[0] << 7,
                "42 fields of 3 bits", id="xor-count",
            ),
        ],
    )
    def test_forged_positions_are_codec_errors(self, position, forge, match):
        """Positions must ascend strictly below the link count, in the one
        dtype the link count names; the delay-changed mask of residuals must
        decode to one link per packed field."""
        replica, _, meta, arrays = self._replica_and_diff()
        before = replica.snapshot()
        arrays[position] = forge(arrays[position])
        data = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        with pytest.raises(CodecError, match=match):
            replica.apply(EpochUpdate(FrameKind.DIFF, 3, data))
        assert replica.epoch == 2 and replica.snapshot().same_bits(before)

    def test_forged_keyframes_are_codec_errors(self):
        """Each forgery is refused by a replica that holds another epoch,
        which keeps it."""
        state = hand_built_state({(0, 1): (1.0, 1e4, 0), (1, 2): (0.5, 1e4, 0)}, 0.0)
        _, meta, arrays = wire.decode_frame(encode_keyframe_update(state, 1))
        assert arrays[3].dtype == np.uint8 and arrays[7].tolist() == [1e4]  # palette
        assert meta == dict(epoch=1, time_s=0.0, node_count=8, shells=[0], satellites=[6])
        held = hand_built_state({(2, 3): (2.0, 1e4, 0)}, 5.0)
        replica = EpochReplica()
        replica.apply(EpochUpdate(FrameKind.KEYFRAME, 4, encode_keyframe_update(held, 4)))
        before = replica.snapshot()

        def replaced(position, array, *more):
            forged = [*arrays]
            for at, column in zip((position, *more[::2]), (array, *more[1::2])):
                forged[at] = column
            return forged

        def with_meta(**changes):
            return ({**meta, **changes}, arrays)

        def two_shells(*shells):
            return {**meta, "shells": list(shells), "satellites": [6, 6]}

        forgeries = {
            "no-epoch": (_without(meta, "epoch"), arrays),
            "epoch-string": with_meta(epoch="1"),
            "epoch-negative": with_meta(epoch=-1),
            "time-string": with_meta(time_s="x"),
            "no-time": (_without(meta, "time_s"), arrays),
            "node-count-negative": with_meta(node_count=-1),
            "node-count-zero": with_meta(node_count=0),
            "node-count-float": with_meta(node_count=8.0),
            "shells-repeated": (two_shells(0, 0), [*arrays, arrays[8]]),
            "shells-descending": (two_shells(1, 0), [*arrays, arrays[8]]),
            "shells-string": with_meta(shells=["0"]),
            "satellites-negative": with_meta(satellites=[-6]),
            "satellites-not-a-list": with_meta(satellites=6),
            "delay-float64": (meta, replaced(2, arrays[2].astype(np.float64))),
            "delay-int64": (meta, replaced(2, arrays[2].astype(np.int64))),
            "endpoint-beyond-nodes": (meta, replaced(1, np.array([1, 99], np.int8))),
            "endpoint-negative": (meta, replaced(0, np.array([-1, 1], np.int8))),
            "endpoints-float64": (meta, replaced(0, arrays[0].astype(np.float64))),
            "endpoints-uint64": (meta, replaced(1, arrays[1].astype(np.uint64))),
            "self-link": (meta, replaced(1, arrays[0])),
            "links-unordered": (meta, replaced(0, arrays[0][::-1], 1, arrays[1][::-1])),
            "links-repeated": (meta, replaced(0, arrays[0][[0, 0]], 1, arrays[1][[0, 0]])),
            "type-nine": (meta, replaced(4, np.array([9, 0], np.int8))),
            "type-float": (meta, replaced(4, np.array([7.9, 0.0]))),
            "short-column": (meta, replaced(0, arrays[0][:-1])),
            "empty-mask": (meta, replaced(8, arrays[8][:0])),
            "no-mask": (meta, arrays[:8]),
            "huge-mask": ({**meta, "satellites": [2**40]}, arrays),
            "step-dtype": (meta, replaced(5, arrays[5].astype(np.float64))),
            "step-unsigned": (meta, replaced(5, arrays[5].astype(np.uint8))),
            "step-length": (meta, replaced(5, arrays[5][:-1])),
            "curve-dtype": (meta, replaced(6, arrays[6].astype(np.float64))),
            "curve-unsigned": (meta, replaced(6, arrays[6].astype(np.uint8))),
            "curve-length": (meta, replaced(6, arrays[6][:-1])),
            "curve-missing": (meta, [*arrays[:6], *arrays[7:]]),
            "index-dtype": (meta, replaced(3, arrays[3].astype(np.uint16))),
            "index-length": (meta, replaced(3, arrays[3][:-1])),
            "index-out-of-range": (meta, replaced(3, np.full_like(arrays[3], 1))),
            "palette-dtype": (meta, replaced(7, arrays[7].astype(np.float32))),
            "values-and-palette": (meta, replaced(3, arrays[7][arrays[3]])),
            "float64-bandwidths": (meta, replaced(3, arrays[7][arrays[3]], 7, arrays[7][:0])),
            "activity-pad-bits": (meta, replaced(8, arrays[8] | np.uint8(1))),
        }
        for name, (forged_meta, forged_arrays) in forgeries.items():
            data = wire.encode_frame(FrameKind.KEYFRAME, forged_meta, tuple(forged_arrays))
            with pytest.raises(CodecError):
                replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, data))
            assert replica.epoch == 4 and replica.snapshot().same_bits(before), name
        honest = wire.encode_frame(FrameKind.KEYFRAME, meta, arrays)
        replica.apply(EpochUpdate(FrameKind.KEYFRAME, 1, honest))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, 1))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_an_added_link_out_of_place_changes_nothing(self, data):
        """Over a random canonical table, a DIFF that removes and adds random
        links is forged three ways: one added link swapped with a neighbour
        in the new order (its position moves past a kept link, or it trades
        places with another added one), or its endpoints repeat a kept link
        or another added link.  Each is refused and leaves the replica's
        snapshot and trend as they were; the honest DIFF applies."""
        satellites = FORGED_INDEX.satellite_count
        pairs = [(a, b) for a in range(len(FORGED_INDEX)) for b in range(a + 1, len(FORGED_INDEX))]
        held = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
        fresh = [pair for pair in pairs if pair not in held]
        added = data.draw(st.lists(st.sampled_from(fresh), min_size=1, max_size=6, unique=True))
        added.sort()  # the frame's order
        removed = data.draw(st.lists(st.sampled_from(held), max_size=len(held), unique=True))
        kept = sorted(set(held) - set(removed))
        counts = st.integers(0, 2**20)
        epochs = [
            {pair: (data.draw(counts) * GRID, 1e4, int(pair[1] >= satellites)) for pair in links}
            for links in (held, held, kept + added)
        ]
        states = hand_built_chain([(links, (True,) * 12) for links in epochs], FORGED_INDEX)
        codec = EpochUpdateCodec()
        replica = EpochReplica()
        replica.apply(codec.keyframe_update(2, states[1]))
        honest = codec.diff_update(3, hand_built_diff(states[1], states[2]))
        _, meta, arrays = wire.decode_frame(honest.data)
        arrays = [np.array(array) for array in arrays]
        after = len(kept) + len(added)
        positions = _unpack_mask(arrays[1], after)
        i = data.draw(st.integers(0, len(added) - 1))
        forgery = data.draw(st.sampled_from(["neighbour", "kept", "added"]))
        if forgery == "neighbour":
            neighbours = [q for q in (positions[i] - 1, positions[i] + 1) if 0 <= q < after]
            assume(neighbours)
            q = data.draw(st.sampled_from(neighbours))
            if q in positions:  # trade places with that added link
                j = positions.tolist().index(q)
                for array in arrays[2:7]:
                    array[[i, j]] = array[[j, i]]
            else:  # move past the kept link
                positions[i] = q
                arrays[1] = _pack_mask(positions, after)
        else:
            others = kept if forgery == "kept" else [pair for pair in added if pair != added[i]]
            assume(others)
            order = sorted(kept + added)
            near = [order[q] for q in (positions[i] - 1, positions[i] + 1) if 0 <= q < after]
            near = [pair for pair in near if pair in others]  # the likeliest to slip through
            choices = near if near and data.draw(st.booleans()) else others
            arrays[2][i], arrays[3][i] = data.draw(st.sampled_from(choices))
        before = replica.snapshot()
        held_trend = replica.trend
        trend = DelayTrend(held_trend.step.copy(), held_trend.curve.copy(), held_trend.stepped)
        forged = wire.encode_frame(FrameKind.DIFF, meta, arrays)
        with pytest.raises(CodecError, match="out of place"):
            replica.apply(EpochUpdate(FrameKind.DIFF, 3, forged))
        assert replica.epoch == 2 and replica.snapshot().same_bits(before)
        _assert_same_trend(replica.trend, trend, 2)
        replica.apply(honest)
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(states[2], 3))
        _assert_same_trend(replica.trend, states[2].trend, 3)

    @pytest.mark.parametrize(
        "pad", [pytest.param(0b1, id="mask-pad-bits"), pytest.param(0b10000, id="first-pad-bit")]
    )
    def test_set_pad_bits_are_codec_errors(self, pad):
        """Over three links a mask's bits are one byte with five pad bits,
        which must be 0.  The DIFF's delay-changed mask names the one link
        that started changing."""
        counts = [(10, 10, 10), (20, 10, 10), (30, 20, 10)]  # by epoch
        pairs = ((0, 1), (1, 2), (2, 3))
        states = hand_built_chain(
            [
                ({pair: (count * GRID, 1e4, 0) for pair, count in zip(pairs, epoch)}, (True,) * 6)
                for epoch in counts
            ]
        )
        codec = EpochUpdateCodec()
        replica = EpochReplica()
        replica.apply(codec.keyframe_update(2, states[1]))
        before = replica.snapshot()
        _, meta, arrays = wire.decode_frame(
            codec.diff_update(3, hand_built_diff(states[1], states[2])).data
        )
        assert arrays[7].dtype == np.uint8 and arrays[7].tolist() == [0b01000000]

        def diff(mask):
            data = wire.encode_frame(FrameKind.DIFF, meta, [*arrays[:7], mask, *arrays[8:]])
            return EpochUpdate(FrameKind.DIFF, 3, data)

        with pytest.raises(CodecError, match="pad bits"):
            replica.apply(diff(arrays[7] | np.uint8(pad)))
        assert replica.epoch == 2 and replica.snapshot().same_bits(before)
        replica.apply(diff(arrays[7]))
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(states[2], 3))

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
        "config_factory,step_s,first_diff_budget,diff_budget,keyframe_budget",
        [
            pytest.param(
                lambda: west_africa_configuration(shells="all"), 2.0, 25_000, 6_460, 170_000,
                id="starlink-all-shells",
            ),
            pytest.param(
                lambda: dart_configuration("central", 40, 80), 1.0, 2_000, 612, 10_000,
                id="iridium-dart",
            ),
        ],
    )
    def test_frames_stay_within_budget(
        self, config_factory, step_s, first_diff_budget, diff_budget, keyframe_budget
    ):
        """Every DIFF travels as packed residual fields, the first after the
        cold keyframe as first differences (it predicts from a zero trend).
        A removed or added array of one link is its position: at most 4 B."""
        calculation = ConstellationCalculation(config_factory())
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        replica = EpochReplica()
        keyframe = database.codec.keyframe_update(1, state=state)
        replica.apply(keyframe)
        sizes, single_links = [], 0
        for step in range(1, 11):
            state, diff = advance(calculation, database, state, step * step_s)
            update = database.codec.diff_update(database.epoch, diff=diff)
            replica.apply(update)
            sizes.append(len(update.data))
            meta, arrays = update.decoded()
            assert arrays[8].dtype == np.uint8 and 1 <= meta["bits"] <= 8, step
            for links, mask in zip((diff.topology.links_removed, diff.topology.links_added), arrays):
                if links.size == 1:
                    single_links += 1
                    assert mask.nbytes <= 4, (step, mask)
        assert single_links
        assert replica.snapshot().same_bits(EpochSnapshot.from_state(state, database.epoch))
        assert sizes[0] <= first_diff_budget, sizes
        assert max(sizes[1:]) <= diff_budget, sizes
        resync = database.codec.keyframe_update(database.epoch, state=state)
        assert max(len(keyframe.data), len(resync.data)) <= keyframe_budget
