"""Unit tests for the pair link, the virtual network's model of one pair.

The classes are named after the Linux mechanisms the real Celestial shapes
a pair with (a tc-netem rule and qdisc, a tbf token bucket); the pair link
keeps of them exactly the delay, the bandwidth, the loss and the block.
"""

import numpy as np
import pytest

from repro.core.constellation import MachineId
from repro.net import network
from repro.net.network import PairLink, PairRule, VirtualNetwork
from repro.sim import Simulation


def _link(delay_ms=0.0, bandwidth_kbps=None, loss=0.0, rng=None):
    link = PairLink(loss, rng)
    link.install(PairRule(delay_ms, bandwidth_kbps, True), bandwidth_kbps)
    return link


@pytest.fixture
def bucket(monkeypatch):
    """Resize the token bucket of links built afterwards."""

    def size(burst_bytes=network.BURST_BYTES, queue_limit_bytes=network.QUEUE_LIMIT_BYTES):
        monkeypatch.setattr(network, "BURST_BYTES", burst_bytes)
        monkeypatch.setattr(network, "QUEUE_LIMIT_BYTES", queue_limit_bytes)

    return size


class TestNetemRule:
    """The parameters a link holds."""

    def test_defaults_are_passthrough(self):
        link = PairLink()
        assert (link.delay_ms, link.rate, link.blocked) == (0.0, None, False)
        assert link.transmit(100, 3.0) == 3.0

    def test_validation(self):
        """A loss outside [0, 1] and a non-positive rate never reach a link."""
        virtual_network = VirtualNetwork(Simulation(), rule_provider=None, running_check=None)
        a, b = MachineId(0, 0, "a"), MachineId(0, 1, "b")
        with pytest.raises(ValueError):
            virtual_network.set_loss_override(a, b, 1.5)
        with pytest.raises(ValueError):
            virtual_network.set_bandwidth_cap(a, b, 0.0)

    def test_full_loss_blocks(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        link = _link(loss=1.0, rng=rng)
        assert link.blocked
        assert link.transmit(100, 0.0) is None
        assert rng.bit_generator.state == state  # dropped without a draw


class TestNetemQdisc:
    """Delay and loss."""

    def test_fixed_delay(self):
        assert _link(delay_ms=16.0).transmit(1000, 2.0) == pytest.approx(2.016)

    def test_loss_drops_packets(self):
        assert _link(loss=1.0).transmit(100, 0.0) is None

    def test_statistical_loss_rate(self):
        link = _link(loss=0.3, rng=np.random.default_rng(42))
        delivered = sum(link.transmit(100, 0.0) is not None for _ in range(4000))
        assert delivered / 4000 == pytest.approx(0.7, abs=0.03)


class TestTokenBucketFilter:
    """The bandwidth limit: a token bucket with a bounded queue."""

    def test_burst_passes_immediately(self, bucket):
        bucket(burst_bytes=10_000)
        assert _link(bandwidth_kbps=100.0).transmit(5_000, 0.0) == 0.0

    def test_sustained_rate_paces_packets(self, bucket):
        bucket(burst_bytes=1_000)
        link = _link(bandwidth_kbps=80.0)
        # 80 kb/s == 10,000 bytes/s. After the burst, 10,000-byte packets
        # should depart one second apart.
        first = link.transmit(1_000, 0.0)
        second = link.transmit(10_000, 0.0)
        third = link.transmit(10_000, 0.0)
        assert first == 0.0
        assert second == pytest.approx(1.0, rel=0.01)
        assert third == pytest.approx(2.0, rel=0.01)

    def test_queue_limit_drops(self, bucket):
        bucket(burst_bytes=100, queue_limit_bytes=1_000)
        link = _link(bandwidth_kbps=8.0)
        link.transmit(100, 0.0)
        assert link.transmit(900, 0.0) is not None
        assert link.transmit(500, 0.0) is None

    def test_tokens_refill_over_time(self, bucket):
        bucket(burst_bytes=10_000)
        link = _link(bandwidth_kbps=80.0)
        link.transmit(10_000, 0.0)
        # One second later the bucket has refilled 10,000 bytes.
        assert link.transmit(9_000, 1.0) == 1.0

    def test_rate_change_with_a_backlog_queued(self):
        """A refresh changes the rate under a backlog: queued messages keep
        their departures, later ones queue behind them at the new rate, and
        the backlog is measured at the new rate.  32 KiB burst, 1 MiB queue."""
        link = _link(bandwidth_kbps=88.0)
        departures = [link.transmit(10_000, 0.0) for _ in range(6)]
        link.install(PairRule(0.0, 176.0, True), 176.0)
        departures += [link.transmit(10_000, 1.0), link.transmit(10_000, 1.5)]
        link.install(PairRule(0.0, 44.0, True), 44.0)
        departures += [
            link.transmit(10_000, 2.0),
            link.transmit(10_000, 4.0),
            link.transmit(1_000_000, 4.0),
        ]
        assert departures == [
            0.0,
            0.0,
            0.0,
            0.9090909090909091,
            1.8181818181818181,
            2.727272727272727,
            3.1818181818181817,
            3.6363636363636362,
            5.454545454545454,
            7.2727272727272725,
            189.0909090909091,
        ]


class TestEmulatedLink:
    """Refreshing a link with a new epoch's rule."""

    def test_block_and_unblock(self):
        """A reachable rule lifts the block of an unreachable one, never the
        block of a loss of 1."""
        for loss, blocked_after in ((0.0, False), (1.0, True)):
            link = PairLink(loss)
            link.install(PairRule(0.0, None, False), None)
            assert link.blocked
            link.install(PairRule(10.0, None, True), None)
            assert link.blocked is blocked_after

    def test_update_to_unreachable_blocks(self):
        link = _link(delay_ms=10.0)
        link.install(PairRule(0.0, None, False), None)
        assert link.blocked
        assert link.transmit(100, 0.0) is None
        link.install(PairRule(5.0, None, True), None)
        assert not link.blocked
        assert link.transmit(100, 0.0) == pytest.approx(0.005)

    def test_bandwidth_added_at_update(self):
        link = _link(delay_ms=0.0)
        link.install(PairRule(0.0, 8.0, True), 8.0)
        assert link.rate == 1_000.0  # 8 kb/s in bytes per second
        # A packet larger than the token-bucket burst must wait for pacing.
        assert link.transmit(100_000, 0.0) > 1.0

    def test_unreachable_rule_initialises_blocked(self):
        link = PairLink()
        link.install(PairRule(0.0, None, False), None)
        assert link.blocked
