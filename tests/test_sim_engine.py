"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Interrupt, Simulation, SimulationError


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


def test_process_return_value_propagates():
    sim = Simulation()
    results = []

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_waiting_on_already_finished_process():
    sim = Simulation()
    results = []

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield sim.timeout(5.0)
        value = yield child_proc
        results.append((sim.now, value))

    child_proc = sim.process(child())
    sim.process(parent(child_proc))
    sim.run()
    assert results == [(5.0, "done")]


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    event = sim.event()
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
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    sim = Simulation()
    event = sim.event()
    caught = []

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1.0)
        event.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_interrupt_process():
    sim = Simulation()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def interrupter(proc):
        yield sim.timeout(2.0)
        proc.interrupt("fault")

    proc = sim.process(worker())
    sim.process(interrupter(proc))
    sim.run()
    assert log == [("interrupted", 2.0, "fault")]


def test_interrupt_deregisters_stale_wait_callback():
    """Regression: interrupt() left _resume registered on the awaited event,
    so a later trigger resumed the generator a second time at the wrong
    simulated instant."""
    sim = Simulation()
    event = sim.event()
    log = []

    def worker():
        try:
            yield event
            log.append(("value", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield sim.timeout(10.0)
            log.append(("resumed", sim.now))

    def interrupter(proc):
        yield sim.timeout(2.0)
        proc.interrupt("fault")

    def late_trigger():
        yield sim.timeout(5.0)
        event.succeed("late")

    proc = sim.process(worker())
    sim.process(interrupter(proc))
    sim.process(late_trigger())
    sim.run()
    # The stale event at t=5 must not resume the worker; it finishes its
    # post-interrupt timeout at t=12 exactly once.
    assert log == [("interrupted", 2.0), ("resumed", 12.0)]


def test_interrupt_supersedes_queued_resume_from_processed_event():
    """Regression: a resume proxy already queued for an event that had been
    processed must not fire after an interrupt supersedes the wait."""
    sim = Simulation()
    log = []

    def child():
        yield sim.timeout(1.0)
        return "done"

    def worker(child_proc):
        yield sim.timeout(5.0)
        try:
            # child finished at t=1, so this queues an immediate resume proxy.
            value = yield child_proc
            log.append(("value", value, sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield sim.timeout(1.0)
            log.append(("resumed", sim.now))

    def interrupter(proc):
        # Runs at t=5 after the worker queued its proxy resume.
        yield sim.timeout(5.0)
        proc.interrupt("fault")

    child_proc = sim.process(child())
    proc = sim.process(worker(child_proc))
    sim.process(interrupter(proc))
    sim.run()
    assert log == [("interrupted", 5.0), ("resumed", 6.0)]


def test_interrupt_before_process_first_runs_is_delivered():
    """An interrupt scheduled before the process has started (so the process
    re-waits on its first event in between) must still be delivered."""
    sim = Simulation()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    proc = sim.process(worker())
    proc.interrupt("early")
    sim.run()
    assert log == [("interrupted", 0.0, "early")]


def test_two_interrupts_in_same_timestep_both_delivered():
    sim = Simulation()
    log = []

    def worker():
        for _ in range(2):
            try:
                yield sim.timeout(100.0)
                log.append("finished")
            except Interrupt as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))

    def interrupter(proc):
        yield sim.timeout(1.0)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = sim.process(worker())
    sim.process(interrupter(proc))
    sim.run()
    assert log == [("interrupted", 1.0, "first"), ("interrupted", 1.0, "second")]


def test_interrupt_delivery_detaches_the_new_wait():
    """When an interrupt is popped after the process re-waited on another
    event, that event must not resume the process a second time either."""
    sim = Simulation()
    first = sim.event()
    second = sim.event()
    log = []

    def worker():
        try:
            yield first
            log.append(("first", sim.now))
        except Interrupt:
            log.append(("interrupted-first", sim.now))
        try:
            yield second
            log.append(("second", sim.now))
        except Interrupt:
            log.append(("interrupted-second", sim.now))
            yield sim.timeout(10.0)
            log.append(("recovered", sim.now))

    proc = sim.process(worker())
    # Interrupt before the worker first runs: the init event pops first,
    # the worker waits on `first`, then the interrupt detaches that wait and
    # the handler moves on to wait on `second`.
    proc.interrupt("early")

    def late_triggers():
        yield sim.timeout(5.0)
        first.succeed("stale")
        second.succeed("fresh")

    sim.process(late_triggers())
    sim.run()
    assert log == [("interrupted-first", 0.0), ("second", 5.0)]


def test_interrupt_from_sibling_callback_of_same_event():
    """Regression: when two processes wait on one event and the first-resumed
    process interrupts the second, the second must get the Interrupt, not the
    event value — even though step() already snapshotted the callback list
    (so deregistration alone cannot stop the in-flight resume)."""
    sim = Simulation()
    event = sim.event()
    log = []

    def second():
        try:
            yield event
            log.append(("value", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield sim.timeout(1.0)
            log.append(("recovered", sim.now))

    def trigger():
        yield sim.timeout(2.0)
        event.succeed("payload")

    # `first` registers on the event before `second`, so it resumes first.
    second_proc_holder = []

    def first():
        yield event
        second_proc_holder[0].interrupt("race")

    sim.process(first())
    second_proc_holder.append(sim.process(second()))
    sim.process(trigger())
    sim.run()
    assert log == [("interrupted", 2.0), ("recovered", 3.0)]


def test_interrupt_while_waiting_on_triggered_but_unprocessed_event():
    """An event that has been triggered but not yet processed can still be
    deregistered by an interrupt arriving in the same timestep."""
    sim = Simulation()
    event = sim.event()
    log = []

    def worker():
        try:
            yield event
            log.append(("value", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield sim.timeout(3.0)
            log.append(("resumed", sim.now))

    def trigger_then_interrupt(proc):
        yield sim.timeout(2.0)
        event.succeed("payload")
        proc.interrupt("fault")

    proc = sim.process(worker())
    sim.process(trigger_then_interrupt(proc))
    sim.run()
    assert log == [("interrupted", 2.0), ("resumed", 5.0)]


def test_all_of_waits_for_all():
    sim = Simulation()
    done = []

    def parent():
        timeouts = [sim.timeout(t) for t in (1.0, 4.0, 2.0)]
        yield sim.all_of(timeouts)
        done.append(sim.now)

    sim.process(parent())
    sim.run()
    assert done == [4.0]


def test_any_of_waits_for_first():
    sim = Simulation()
    done = []

    def parent():
        timeouts = [sim.timeout(t) for t in (3.0, 1.0, 2.0)]
        yield sim.any_of(timeouts)
        done.append(sim.now)

    sim.process(parent())
    sim.run()
    assert done == [1.0]


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


def test_peek_empty_queue_is_infinite():
    sim = Simulation()
    sim.run()
    assert sim.peek() == float("inf")


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
        assert sim.peek() == 3.0
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
        assert sim.now == 1.0 and sim.peek() == float("inf")

    def test_timer_may_schedule_events_and_timers(self):
        sim = Simulation()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.call_at(sim.now + 1.0, lambda: log.append(("second", sim.now)))

        sim.call_at(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 2.0)]
