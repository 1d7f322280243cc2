"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Simulation
from repro.sim.engine import SimulationError


def test_timeout_advances_time():
    sim = Simulation()
    log = []

    def proc():
        yield sim.timeout(5.0)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5.0, 7.5]
    assert sim.now == 7.5


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_early():
    sim = Simulation()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(True)

    sim.process(proc())
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert not fired
    sim.run()
    assert fired == [True]


def test_events_at_same_time_fifo_order():
    sim = Simulation()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ["a", "b", "c", "d"]:
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_waiting_on_already_processed_event():
    sim = Simulation()
    results = []
    done = sim.timeout(1.0, value="done")

    def waiter():
        yield sim.timeout(5.0)
        value = yield done
        results.append((sim.now, value))

    sim.process(waiter())
    sim.run()
    assert results == [(5.0, "done")]


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    event = Event(sim)
    woke = []

    def waiter():
        value = yield event
        woke.append((sim.now, value))

    def trigger():
        yield sim.timeout(3.0)
        event.succeed("payload")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert woke == [(3.0, "payload")]


def test_event_double_trigger_rejected():
    sim = Simulation()
    event = Event(sim)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_yield_non_event_raises():
    sim = Simulation()

    def bad():
        yield 5

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_processed_events_counter():
    sim = Simulation()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert sim.processed_events >= 3


def test_run_until_past_raises():
    sim = Simulation()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30))
def test_property_time_is_monotone_and_matches_max_delay(delays):
    sim = Simulation()
    observed = []

    def proc(delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(proc(delay))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == pytest.approx(max(delays))
    assert len(observed) == len(delays)


class TestCallAt:
    """Timers: bare callbacks on the same queue as the events."""

    def test_equal_time_timers_and_events_fire_in_scheduling_order(self):
        sim = Simulation()
        log = []
        sim.call_at(1.0, lambda: log.append("timer-1"))
        sim.timeout(1.0).callbacks.append(lambda event: log.append("event-2"))
        sim.call_at(1.0, lambda: log.append("timer-3"))
        sim.timeout(1.0).callbacks.append(lambda event: log.append("event-4"))
        sim.call_at(0.5, lambda: log.append("earlier"))
        sim.run()
        assert log == ["earlier", "timer-1", "event-2", "timer-3", "event-4"]
        assert sim.now == 1.0

    def test_timer_counts_as_one_processed_event(self):
        sim = Simulation()
        sim.call_at(2.0, lambda: None)
        sim.run()
        assert sim.processed_events == 1

    def test_past_time_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)
        sim.call_at(5.0, lambda: None)  # "now" is not the past

    def test_run_until_stops_before_a_later_timer(self):
        sim = Simulation()
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        assert fired == [] and sim.now == 2.0
        sim.run()
        assert fired == [3.0]

    def test_exception_in_callback_propagates_out_of_step(self):
        sim = Simulation()

        def boom():
            raise RuntimeError("boom")

        sim.call_at(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.step()
        # The entry was consumed: the simulation can go on.
        assert sim.now == 1.0

    def test_timer_may_schedule_events_and_timers(self):
        sim = Simulation()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.call_at(sim.now + 1.0, lambda: log.append(("second", sim.now)))

        sim.call_at(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]
