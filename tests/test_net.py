"""Unit tests for the virtual network data plane and endpoints."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.constellation import MachineId
from repro.net import Message, PairRule, VirtualNetwork
from repro.net.endpoint import NetworkEndpoint
from repro.sim import Simulation


def _machine(name, shell=0, identifier=0):
    return MachineId(shell, identifier, name)


class _FakeRules:
    """Configurable rule provider / running check used instead of a testbed."""

    def __init__(self):
        self.delay_ms = 10.0
        self.reachable = True
        self.running = True
        self.bandwidth = None

        self.calls = []

    def rule(self, source, destination):
        self.calls.append((source.name, destination.name))
        return PairRule(self.delay_ms, self.bandwidth, self.reachable)

    def is_running(self, machine):
        return self.running


def _network(sim, fake):
    return VirtualNetwork(sim, rule_provider=fake.rule, running_check=fake.is_running)


def _diff(is_empty):
    """What ``VirtualNetwork.apply_diff`` reads of a constellation diff."""
    return SimpleNamespace(topology=SimpleNamespace(is_empty=is_empty))


class TestMessage:
    def test_latency_and_validation(self):
        message = Message(_machine("a"), _machine("b"), 100, sent_at_s=1.0)
        assert message.latency_ms(1.05) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            Message(_machine("a"), _machine("b"), 0)

class TestVirtualNetwork:
    def test_delivery_after_delay(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst", identifier=1)
        inbox = network.register_endpoint(destination)
        received = []

        def receiver():
            message = yield inbox.get()
            received.append((sim.now, message.payload))

        sim.process(receiver())
        assert network.send(Message(source, destination, 100, payload="hi", sent_at_s=0.0))
        sim.run()
        assert received == [(0.010, "hi")]
        assert network.messages_delivered == 1

    def test_drop_when_machine_not_running(self):
        sim = Simulation()
        fake = _FakeRules()
        fake.running = False
        network = _network(sim, fake)
        destination = _machine("dst")
        network.register_endpoint(destination)
        assert not network.send(Message(_machine("src"), destination, 100))
        assert network.messages_dropped == 1

    def test_drop_when_unreachable(self):
        sim = Simulation()
        fake = _FakeRules()
        fake.reachable = False
        network = _network(sim, fake)
        destination = _machine("dst")
        network.register_endpoint(destination)
        assert not network.send(Message(_machine("src"), destination, 100))

    def test_drop_without_registered_endpoint(self):
        sim = Simulation()
        network = _network(sim, _FakeRules())
        assert not network.send(Message(_machine("src"), _machine("ghost"), 100))

    def test_rule_refresh_after_update(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst")
        inbox = network.register_endpoint(destination)
        arrivals = []

        def receiver():
            while True:
                message = yield inbox.get()
                arrivals.append(sim.now - message.sent_at_s)

        def sender():
            network.send(Message(source, destination, 100, sent_at_s=sim.now))
            yield sim.timeout(1.0)
            fake.delay_ms = 30.0
            network.mark_updated()
            network.send(Message(source, destination, 100, sent_at_s=sim.now))

        sim.process(receiver())
        sim.process(sender())
        sim.run(until=10.0)
        assert arrivals[0] == pytest.approx(0.010)
        assert arrivals[1] == pytest.approx(0.030)

    def test_stale_rule_used_between_updates(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst")
        inbox = network.register_endpoint(destination)
        arrivals = []

        def receiver():
            while True:
                message = yield inbox.get()
                arrivals.append(sim.now - message.sent_at_s)

        def sender():
            network.send(Message(source, destination, 100, sent_at_s=sim.now))
            yield sim.timeout(1.0)
            fake.delay_ms = 30.0  # no mark_updated(): installed rule stays
            network.send(Message(source, destination, 100, sent_at_s=sim.now))

        sim.process(receiver())
        sim.process(sender())
        sim.run(until=10.0)
        assert arrivals == [pytest.approx(0.010), pytest.approx(0.010)]

    def test_loss_override(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst")
        network.register_endpoint(destination)
        network.set_loss_override(source, destination, 1.0)
        assert not network.send(Message(source, destination, 100))
        network.clear_loss_override(source, destination)
        assert network.send(Message(source, destination, 100))
        with pytest.raises(ValueError):
            network.set_loss_override(source, destination, 2.0)

    def test_provider_asked_once_per_pair_per_bumped_epoch(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source = _machine("src")
        first, second = _machine("one", identifier=1), _machine("two", identifier=2)
        for destination in (first, second):
            network.register_endpoint(destination)

        def burst():
            for destination in (first, second, first, second, first):
                network.send(Message(source, destination, 100))

        burst()
        assert sorted(fake.calls) == [("src", "one"), ("src", "two")]
        network.apply_diff(_diff(is_empty=True))
        burst()
        assert len(fake.calls) == 2  # an empty diff asks for nothing
        network.apply_diff(_diff(is_empty=False))
        burst()
        assert sorted(fake.calls[2:]) == [("src", "one"), ("src", "two")]
        assert network.link_updates == 2
        network.apply_diff(_diff(is_empty=False))
        network.send(Message(source, first, 100))
        assert fake.calls[4:] == [("src", "one")]  # only the pair that carries traffic
        assert network.link_updates == 3
        assert network.running_checks == 2 * network.messages_sent

    def test_overrides_leave_no_stale_bookkeeping_across_an_epoch_bump(self):
        """Set, clear and re-set an override while the rule epoch moves: the
        link installed after each step carries the rule of *that* moment."""
        sim = Simulation()
        fake = _FakeRules()
        fake.bandwidth = 1000.0
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst")
        network.register_endpoint(destination)

        key = (source.name, destination.name)

        def installed():
            network.send(Message(source, destination, 100))
            return network._links[key]

        def kbps(link):
            return link.rate * 8.0 / 1000.0

        assert key not in network._links
        link = installed()
        assert (link.delay_ms, kbps(link), link.blocked) == (10.0, 1000.0, False)

        network.set_bandwidth_cap(source, destination, 200.0)
        assert key not in network._links  # dropped whole
        fake.delay_ms = 20.0
        network.mark_updated()
        link = installed()
        assert (link.delay_ms, kbps(link)) == (20.0, 200.0)

        network.clear_bandwidth_cap(source, destination)
        fake.delay_ms = 30.0
        network.mark_updated()
        link = installed()
        assert (link.delay_ms, kbps(link)) == (30.0, 1000.0)

        network.set_bandwidth_cap(source, destination, 500.0)
        link = installed()  # same epoch: rebuilt from a fresh rule all the same
        assert (link.delay_ms, kbps(link)) == (30.0, 500.0)
        fake.delay_ms = 40.0
        network.mark_updated()
        link = installed()  # the cap survives the refresh of the rebuilt link
        assert (link.delay_ms, kbps(link)) == (40.0, 500.0)

        network.set_loss_override(source, destination, 1.0)
        assert not network.send(Message(source, destination, 100))
        network.clear_loss_override(source, destination)
        fake.reachable = False
        network.mark_updated()
        assert installed().blocked
        assert len(network._links) == 1

    def test_full_loss_draws_nothing_across_an_epoch_bump(self):
        """A 100 % loss pair drops without drawing from the network's one
        stream, before and after a bump, so it cannot move the drop pattern
        of a partial-loss pair."""

        def outcomes(bump):
            sim = Simulation()
            network = VirtualNetwork(
                sim, _FakeRules().rule, lambda machine: True, rng=np.random.default_rng(3)
            )
            a, b, c = _machine("a"), _machine("b", identifier=1), _machine("c", identifier=2)
            network.register_endpoint(b)
            network.register_endpoint(c)
            network.set_loss_override(a, b, 1.0)
            network.set_loss_override(a, c, 0.5)
            to_b, to_c = [], []
            for step in range(20):
                if bump and step == 1:
                    network.mark_updated()
                to_b.append(network.send(Message(a, b, 100)))
                to_c.append(network.send(Message(a, c, 100)))
            return to_b, to_c

        to_b, to_c = outcomes(bump=False)
        assert not any(to_b) and 0 < sum(to_c) < 20
        assert outcomes(bump=True) == (to_b, to_c)

    def test_clearing_an_absent_override_keeps_the_shaping_queue(self):
        """A clear that removes nothing leaves the pair's link alone: the
        next message queues behind the backlog instead of overtaking it."""
        sim = Simulation()
        fake = _FakeRules()
        fake.bandwidth = 88.0  # 11,000 bytes/s after a 32 KiB burst
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst", identifier=1)
        inbox = network.register_endpoint(destination)
        arrivals = {}

        def receiver():
            while True:
                message = yield inbox.get()
                arrivals[message.payload] = sim.now

        sim.process(receiver())
        for index in range(6):
            network.send(Message(source, destination, 10_000, payload=index))
        network.clear_loss_override(source, destination)
        network.clear_bandwidth_cap(source, destination)
        network.send(Message(source, destination, 10_000, payload=6))
        sim.run()
        # Three messages fit the burst; the 4th to 7th queue, each leaving
        # 10,000 / 11,000 s after the one before it.
        assert arrivals[6] == pytest.approx(4 * 10_000 / 11_000 + 0.010)
        assert sorted(arrivals, key=arrivals.get) == list(range(7))

    def test_message_to_machine_stopped_in_flight_dropped_at_delivery(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        source, destination = _machine("src"), _machine("dst")
        inbox = network.register_endpoint(destination)
        assert network.send(Message(source, destination, 100))  # in flight for 10 ms
        sim.call_at(0.005, lambda: setattr(fake, "running", False))
        sim.run()
        assert len(inbox) == 0
        assert (network.messages_delivered, network.messages_dropped) == (0, 1)
        assert network.running_checks == 3

class TestNetworkEndpoint:
    def test_send_receive_roundtrip(self):
        sim = Simulation()
        fake = _FakeRules()
        network = _network(sim, fake)
        alice = NetworkEndpoint(sim, network, _machine("alice"))
        bob = NetworkEndpoint(sim, network, _machine("bob", identifier=1))
        latencies = []

        def bob_process():
            message = yield bob.receive()
            latencies.append(message.latency_ms(sim.now))

        def alice_process():
            alice.send(bob.machine, 256, payload="hello")
            yield sim.timeout(0.0)

        sim.process(bob_process())
        sim.process(alice_process())
        sim.run()
        assert latencies == [pytest.approx(10.0)]

    def test_pending_counts_queued_messages(self):
        sim = Simulation()
        network = _network(sim, _FakeRules())
        alice = NetworkEndpoint(sim, network, _machine("alice"))
        bob = NetworkEndpoint(sim, network, _machine("bob", identifier=1))

        def alice_process():
            alice.send(bob.machine, 100)
            alice.send(bob.machine, 100)
            yield sim.timeout(0.0)

        sim.process(alice_process())
        sim.run()
        assert len(network.register_endpoint(bob.machine)) == 2
