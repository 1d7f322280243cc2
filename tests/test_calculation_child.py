"""The calculation child: the driver takes each epoch from the child's DIFF frame.

After the first epoch the coordinator never calls ``diff_since``: a forked
child computes every epoch one ahead and sends its DIFF frame, and the
driver rebuilds the state and the diff from the frame
(``ConstellationCalculation.state_from_replica``).  These tests pin the
rebuild bit for bit against cold and chained states on the benchmark's four
configurations, the topology diff against ``graph.diff_from``, irregular
update times, one encoding per epoch, and the typed, bounded failures of a
child that dies, stops, stalls or sends a frame that is not the epoch asked
for.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import (
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    MachineManager,
)
from repro.dist import calculation as child_module
from repro.dist.calculation import CalculationChildError
from repro.hosts import Host
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.serve import codec
from repro.serve.client import SubscriptionClient
from repro.serve.gateway import GatewayServer

COLUMNS = ("node_a", "node_b", "distances_km", "delay_counts", "bandwidths_kbps", "link_type_codes")
TOPOLOGY = (
    "links_added",
    "links_removed",
    "delay_changed",
    "delay_changed_previous",
    "bandwidth_changed",
)


def _starlink(box: bool):
    return west_africa_configuration(duration_s=3600.0, shells="all", use_bounding_box=box)


def _dart():
    return dart_configuration("central", buoy_count=40, sink_count=80, update_interval_s=1.0)


def _iridium():
    return dart_configuration("central", buoy_count=4, sink_count=8, update_interval_s=2.0)


def _coordinator(config, hosts: int = 3) -> Coordinator:
    managers = [MachineManager(Host(index=i, allow_memory_overcommit=True)) for i in range(hosts)]
    return Coordinator(config, ConstellationCalculation(config), ConstellationDatabase(), managers)


@pytest.fixture
def driver_calls(monkeypatch):
    """The ``diff_since`` calls made in this process, by calculation.

    The child inherits the wrapper but appends to its own copy of the list."""
    calls = []
    diff_since = ConstellationCalculation.diff_since

    def recorded(self, previous, time_s):
        calls.append((self, time_s))
        return diff_since(self, previous, time_s)

    monkeypatch.setattr(ConstellationCalculation, "diff_since", recorded)
    return calls


def _assert_same_state(built, computed):
    for name in COLUMNS:
        mine, theirs = getattr(built.graph, name), getattr(computed.graph, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert built.time_s == computed.time_s
    for shell in computed.active_satellites:
        assert np.array_equal(built.active_satellites[shell], computed.active_satellites[shell])
        assert (
            built.satellite_positions_ecef[shell].tobytes()
            == computed.satellite_positions_ecef[shell].tobytes()
        )
    assert list(built.paths.sources) == list(computed.paths.sources)


def _assert_same_trend(built, computed):
    assert np.array_equal(built.trend.step, computed.trend.step)
    assert np.array_equal(built.trend.curve, computed.trend.curve)
    assert built.trend.stepped == computed.trend.stepped


def _assert_same_diff(built, computed):
    for name in TOPOLOGY:
        assert np.array_equal(getattr(built.topology, name), getattr(computed.topology, name)), name
    assert built.flipped.keys() == computed.flipped.keys()
    for shell, ids in computed.flipped.items():
        assert np.array_equal(built.flipped[shell], ids)


class TestTheDriverRebuildsEveryEpoch:
    @pytest.mark.parametrize(
        "config, epochs, interval_s",
        [
            (lambda: _starlink(True), 80, 2.0),
            (lambda: _starlink(False), 80, 2.0),
            (_dart, 100, 1.0),
        ],
        # starlink_allpairs runs starlink_bbox's configuration.
        ids=["starlink_bbox", "starlink_fleet", "dart_iridium"],
    )
    def test_each_state_is_the_cold_one_and_each_diff_the_chained_one(
        self, driver_calls, config, epochs, interval_s
    ):
        config = config()
        coordinator = _coordinator(config)
        reference = ConstellationCalculation(config)
        database = coordinator.database
        try:
            chained = None
            for epoch in range(epochs):
                now = epoch * interval_s
                previous = database.state if database.has_state else None
                state = coordinator.update(now)
                cold = reference.state_at(now)
                _assert_same_state(state, cold)
                if chained is None:
                    chained = cold
                    continue
                chained, diff = reference.diff_since(chained, now)
                _assert_same_trend(state, chained)
                built = database.latest_diff
                _assert_same_diff(built, diff)
                between = state.graph.diff_from(previous.graph)
                for array in TOPOLOGY:
                    assert np.array_equal(getattr(built.topology, array), getattr(between, array))
                assert built.topology.previous is previous.graph
                assert built.previous_trend is previous.trend and built.trend is state.trend
                assert built.frame == codec.encode_diff_update(diff, database.epoch)
            assert [call for call in driver_calls if call[0] is coordinator.calculation] == []
        finally:
            coordinator.close()

    def test_the_graph_owns_its_columns(self):
        # The replica patches its columns in place; a published graph, and
        # the topology diff's previous graph, must not change under it.
        coordinator = _coordinator(_starlink(True))
        try:
            graphs = []
            for epoch in range(6):
                graphs.append(coordinator.update(epoch * 2.0).graph)
            kept = [[getattr(g, name).tobytes() for name in COLUMNS] for g in graphs]
            for epoch in range(6, 10):
                coordinator.update(epoch * 2.0)
            assert kept == [[getattr(g, name).tobytes() for name in COLUMNS] for g in graphs]
        finally:
            coordinator.close()

    def test_irregular_times_give_the_sequential_chain(self, driver_calls):
        # Guessed 2 s apart: 2 and 4 are guesses, 7, 7.5 and 20 are computed
        # on demand from the same previous epoch.
        config = _starlink(True)
        coordinator = _coordinator(config)
        reference = ConstellationCalculation(config)
        try:
            chained = None
            for now in (0.0, 2.0, 4.0, 7.0, 7.5, 20.0, 22.0):
                previous = coordinator.database.state if chained is not None else None
                state = coordinator.update(now)
                if chained is None:
                    chained = reference.state_at(now)
                    continue
                chained, diff = reference.diff_since(chained, now)
                _assert_same_state(state, chained)
                _assert_same_trend(state, chained)
                _assert_same_diff(coordinator.database.latest_diff, diff)
                assert coordinator.database.latest_diff.topology.previous is previous.graph
            assert [call for call in driver_calls if call[0] is coordinator.calculation] == []
        finally:
            coordinator.close()


class TestOneEncodingPerEpoch:
    def test_the_gateway_forwards_the_childs_bytes(self, monkeypatch):
        encodes = []
        encode = codec.encode_diff_update
        monkeypatch.setattr(
            codec,
            "encode_diff_update",
            lambda diff, epoch: encodes.append(epoch) or encode(diff, epoch),
        )
        coordinator = _coordinator(_iridium(), hosts=1)
        database = coordinator.database
        try:
            coordinator.update(0.0)
            with GatewayServer(database) as server:
                with SubscriptionClient(*server.address, client_id="c") as client:
                    client.sync_to_epoch(database.epoch)
                    frames = {}
                    database.add_listener(
                        lambda epoch, _state, diff: frames.setdefault(epoch, diff.frame)
                    )
                    for step in range(1, 13):
                        coordinator.update(step * 2.0)
                    received = client.sync_to_epoch(database.epoch)
                    assert [update.data for update in received] == [
                        frames[epoch] for epoch in range(2, 14)
                    ]
                    assert client.replica.snapshot().same_bits(
                        codec.EpochSnapshot.from_state(database.state, database.epoch)
                    )
                # One seed KEYFRAME, then one frame per epoch, none encoded here.
                assert database.codec.encode_count == 1 + 12
            assert encodes == []
        finally:
            coordinator.close()


class TestFailuresAreTypedAndBounded:
    def _forked(self, config=None) -> Coordinator:
        coordinator = _coordinator(config or _iridium(), hosts=1)
        coordinator.update(0.0)
        coordinator.update(2.0)  # forks the child
        return coordinator

    @pytest.mark.parametrize(
        "sent, cause",
        [(signal.SIGKILL, "killed by SIGKILL"), (signal.SIGSTOP, "stopped by SIGSTOP")],
    )
    def test_a_killed_or_stopped_child_fails_before_the_deadline(
        self, monkeypatch, sent, cause
    ):
        monkeypatch.setattr(child_module, "CHILD_TIMEOUT_S", 30.0)
        coordinator = self._forked()
        try:
            os.kill(coordinator._child.process.pid, sent)
            started = time.monotonic()
            with pytest.raises(CalculationChildError, match=cause):
                # The guess sent before the signal may still be taken.
                for step in range(3, 6):
                    coordinator.update(step * 2.0)
            assert time.monotonic() - started < 10.0
        finally:
            coordinator.close()
        assert not coordinator._child.process.is_alive()

    def test_a_stalled_child_fails_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(child_module, "CHILD_TIMEOUT_S", 0.5)
        advance = child_module._advance

        def stalling(calculation, previous, time_s, epoch):
            if epoch == 3:
                time.sleep(60.0)
            return advance(calculation, previous, time_s, epoch)

        monkeypatch.setattr(child_module, "_advance", stalling)  # before the fork
        coordinator = self._forked()
        try:
            started = time.monotonic()
            with pytest.raises(CalculationChildError, match="sent no epoch 3 within 0.5 s"):
                coordinator.update(4.0)
            assert time.monotonic() - started < 5.0
        finally:
            coordinator.close()
        assert not coordinator._child.process.is_alive()

    @pytest.mark.parametrize(
        "forge, cause",
        [
            (lambda frame, diff: frame[:-7], "malformed frame at epoch 3"),
            (
                lambda frame, diff: codec.encode_diff_update(diff, 4),
                "DIFF for epoch 4 at 4.0 s, not the DIFF of epoch 3",
            ),
        ],
        ids=["truncated", "wrong-epoch"],
    )
    def test_a_forged_frame_is_a_typed_error(self, monkeypatch, forge, cause):
        def forged(calculation, previous, time_s, epoch):
            state, diff = calculation.diff_since(previous, time_s)
            frame = codec.encode_diff_update(diff, epoch)
            return state, forge(frame, diff) if epoch == 3 else frame

        monkeypatch.setattr(child_module, "_advance", forged)  # before the fork
        coordinator = self._forked()
        try:
            with pytest.raises(CalculationChildError, match=cause):
                coordinator.update(4.0)
        finally:
            coordinator.close()

    def test_a_state_published_around_the_coordinator_is_refused(self):
        coordinator = self._forked()
        try:
            calculation = coordinator.calculation
            state, diff = calculation.diff_since(coordinator.database.state, 4.0)
            coordinator.database.set_state(state, diff)
            with pytest.raises(CalculationChildError, match="published around the coordinator"):
                coordinator.update(6.0)
        finally:
            coordinator.close()

    def test_close_reaps_the_child(self):
        coordinator = self._forked()
        process = coordinator._child.process
        coordinator.close()
        assert process.exitcode is not None  # reaped: its pid is free
        with pytest.raises(ProcessLookupError):
            os.kill(process.pid, 0)
        with pytest.raises(CalculationChildError, match="closed"):
            coordinator.update(4.0)
        coordinator.close()  # idempotent
