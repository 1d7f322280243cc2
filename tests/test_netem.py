"""Unit and property tests for the netem/tbf/link network-emulation models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem import (
    EmulatedLink,
    NetemQdisc,
    NetemRule,
    TokenBucketFilter,
    UNREACHABLE_DELAY_MS,
)


class TestNetemRule:
    def test_defaults_are_passthrough(self):
        rule = NetemRule()
        assert rule.delay_ms == 0.0
        assert not rule.blocks_traffic

    def test_validation(self):
        with pytest.raises(ValueError):
            NetemRule(delay_ms=-1.0)
        with pytest.raises(ValueError):
            NetemRule(loss_probability=1.5)
        with pytest.raises(ValueError):
            NetemRule(rate_kbps=0.0)

    def test_with_delay_copies(self):
        rule = NetemRule(delay_ms=5.0, loss_probability=0.1)
        updated = rule.with_delay(9.0)
        assert updated.delay_ms == 9.0
        assert updated.loss_probability == 0.1
        assert rule.delay_ms == 5.0

    def test_full_loss_blocks(self):
        assert NetemRule(loss_probability=1.0).blocks_traffic


class TestNetemQdisc:
    def test_fixed_delay(self):
        qdisc = NetemQdisc(NetemRule(delay_ms=16.0))
        deliveries = qdisc.transmit(1000, now_s=2.0)
        assert len(deliveries) == 1
        assert deliveries[0].arrival_time_s == pytest.approx(2.016)
        assert not deliveries[0].corrupted

    def test_loss_drops_packets(self):
        qdisc = NetemQdisc(NetemRule(loss_probability=1.0))
        assert qdisc.transmit(100, 0.0) == []

    def test_statistical_loss_rate(self):
        qdisc = NetemQdisc(
            NetemRule(loss_probability=0.3), rng=np.random.default_rng(42)
        )
        delivered = sum(bool(qdisc.transmit(100, 0.0)) for _ in range(4000))
        assert delivered / 4000 == pytest.approx(0.7, abs=0.03)

    def test_duplication(self):
        qdisc = NetemQdisc(
            NetemRule(delay_ms=1.0, duplicate_probability=1.0),
            rng=np.random.default_rng(1),
        )
        deliveries = qdisc.transmit(100, 0.0)
        assert len(deliveries) == 2
        assert any(d.duplicate for d in deliveries)

    def test_corruption_flag(self):
        qdisc = NetemQdisc(
            NetemRule(delay_ms=1.0, corrupt_probability=1.0),
            rng=np.random.default_rng(1),
        )
        deliveries = qdisc.transmit(100, 0.0)
        assert deliveries[0].corrupted

    def test_reordering_skips_delay(self):
        qdisc = NetemQdisc(
            NetemRule(delay_ms=50.0, reorder_probability=1.0),
            rng=np.random.default_rng(1),
        )
        deliveries = qdisc.transmit(100, now_s=1.0)
        assert deliveries[0].reordered
        assert deliveries[0].arrival_time_s == pytest.approx(1.0)

    def test_normal_jitter_spreads_delays(self):
        qdisc = NetemQdisc(
            NetemRule(delay_ms=20.0, jitter_ms=4.0, distribution="normal"),
            rng=np.random.default_rng(7),
        )
        arrivals = [qdisc.transmit(100, 0.0)[0].arrival_time_s * 1000.0 for _ in range(500)]
        assert np.std(arrivals) == pytest.approx(4.0, abs=1.0)
        assert np.mean(arrivals) == pytest.approx(20.0, abs=0.6)
        assert min(arrivals) >= 0.0

    def test_uniform_jitter_bounded(self):
        qdisc = NetemQdisc(
            NetemRule(delay_ms=20.0, jitter_ms=5.0, distribution="uniform"),
            rng=np.random.default_rng(7),
        )
        arrivals = [qdisc.transmit(100, 0.0)[0].arrival_time_s * 1000.0 for _ in range(300)]
        assert min(arrivals) >= 15.0 - 1e-9
        assert max(arrivals) <= 25.0 + 1e-9

    def test_rate_limits_serialisation(self):
        # 1000 bytes at 8 kb/s takes one second per packet.
        qdisc = NetemQdisc(NetemRule(delay_ms=0.0, rate_kbps=8.0))
        first = qdisc.transmit(1000, 0.0)[0].arrival_time_s
        second = qdisc.transmit(1000, 0.0)[0].arrival_time_s
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=500.0),
        size=st.integers(min_value=1, max_value=65536),
        now=st.floats(min_value=0.0, max_value=1e5),
    )
    def test_property_arrival_never_before_send(self, delay, size, now):
        qdisc = NetemQdisc(NetemRule(delay_ms=delay, jitter_ms=delay / 10.0,
                                     distribution="normal"))
        for delivery in qdisc.transmit(size, now):
            assert delivery.arrival_time_s >= now - 1e-9


class TestTokenBucketFilter:
    def test_burst_passes_immediately(self):
        shaper = TokenBucketFilter(rate_kbps=100.0, burst_bytes=10_000)
        assert shaper.enqueue(5_000, 0.0) == 0.0

    def test_sustained_rate_paces_packets(self):
        shaper = TokenBucketFilter(rate_kbps=80.0, burst_bytes=1_000)
        # 80 kb/s == 10,000 bytes/s. After the burst, 10,000-byte packets
        # should depart one second apart.
        first = shaper.enqueue(1_000, 0.0)
        second = shaper.enqueue(10_000, 0.0)
        third = shaper.enqueue(10_000, 0.0)
        assert first == 0.0
        assert second == pytest.approx(1.0, rel=0.01)
        assert third == pytest.approx(2.0, rel=0.01)

    def test_queue_limit_drops(self):
        shaper = TokenBucketFilter(rate_kbps=8.0, burst_bytes=100, queue_limit_bytes=1_000)
        shaper.enqueue(100, 0.0)
        assert shaper.enqueue(900, 0.0) is not None
        assert shaper.enqueue(500, 0.0) is None

    def test_tokens_refill_over_time(self):
        shaper = TokenBucketFilter(rate_kbps=80.0, burst_bytes=10_000)
        shaper.enqueue(10_000, 0.0)
        # One second later the bucket has refilled 10,000 bytes.
        assert shaper.enqueue(9_000, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketFilter(rate_kbps=0.0)
        shaper = TokenBucketFilter(100.0)
        with pytest.raises(ValueError):
            shaper.enqueue(0, 0.0)
        with pytest.raises(ValueError):
            shaper.set_rate(-1.0)

    def test_backlog_reporting(self):
        shaper = TokenBucketFilter(rate_kbps=8.0, burst_bytes=100)
        shaper.enqueue(100, 0.0)
        shaper.enqueue(1_000, 0.0)
        assert shaper.backlog_bytes > 0.0


class TestEmulatedLink:
    def test_delay_and_counting(self):
        link = EmulatedLink(NetemRule(delay_ms=10.0))
        deliveries = link.transmit(500, 1.0)
        assert deliveries[0].arrival_time_s == pytest.approx(1.010)
        assert link.packets_sent == 1
        assert link.bytes_sent == 500
        assert link.packets_dropped == 0

    def test_block_and_unblock(self):
        link = EmulatedLink(NetemRule(delay_ms=10.0))
        link.block()
        assert link.transmit(100, 0.0) == []
        assert link.packets_dropped == 1
        link.unblock()
        assert len(link.transmit(100, 0.0)) == 1

    def test_update_to_unreachable_blocks(self):
        link = EmulatedLink(NetemRule(delay_ms=10.0))
        link.update(UNREACHABLE_DELAY_MS)
        assert link.state.blocked
        assert link.transmit(100, 0.0) == []
        link.update(5.0)
        assert not link.state.blocked
        assert link.transmit(100, 0.0)[0].arrival_time_s == pytest.approx(0.005)

    def test_bandwidth_added_at_update(self):
        link = EmulatedLink(NetemRule(delay_ms=0.0))
        link.update(0.0, bandwidth_kbps=8.0)
        assert link.state.bandwidth_kbps == 8.0
        # A packet larger than the token-bucket burst must wait for pacing.
        first = link.transmit(100_000, 0.0)
        assert first[0].arrival_time_s > 1.0

    def test_unreachable_rule_initialises_blocked(self):
        link = EmulatedLink(NetemRule(loss_probability=1.0))
        assert link.state.blocked
