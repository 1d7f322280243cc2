"""Unit tests for the simulation's FIFO store (the inboxes of the virtual network)."""

from repro.sim import Simulation, Store


def test_store_put_get_fifo():
    sim = Simulation()
    store = Store(sim)
    received = []

    def producer():
        for item in ["a", "b", "c"]:
            yield sim.timeout(1.0)
            store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_store_get_before_put_blocks():
    sim = Simulation()
    store = Store(sim)
    received = []

    def consumer():
        item = yield store.get()
        received.append((sim.now, item))

    def producer():
        yield sim.timeout(7.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert received == [(7.0, "late")]


def test_store_len_and_fifo_order():
    sim = Simulation()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert [store.get().value, store.get().value] == [1, 2]
    assert len(store) == 0


def test_put_without_a_waiting_getter_schedules_nothing():
    sim = Simulation()
    store = Store(sim)
    store.put("queued")
    sim.run()
    assert sim.processed_events == 0
    assert len(store) == 1
