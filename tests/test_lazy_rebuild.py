"""The driver's rebuilt epoch derives its geometry only where it is read.

A state rebuilt from the calculation child's DIFF frame
(``ConstellationCalculation.state_from_replica``) propagates every satellite
on the first read that names one and derives the graph's ``distances_km`` on
the column's first read; a station's uplinks derive their own distances
alone.  These tests pin what is derived (nothing for ground-station queries,
``/info`` and ``/shell``; one propagation an epoch for satellite pairs, none
for a pair its held row answers), the bits of what is derived against a
cold ``state_at``, and that the laziness leaves no reference cycle: an epoch
out of the database is freed by reference counting alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ConstellationCalculation, ConstellationDatabase, Coordinator, MachineManager
from repro.hosts import Host
from repro.scenarios import dart_configuration, west_africa_configuration


def _starlink():
    return west_africa_configuration(duration_s=3600.0, shells="all", use_bounding_box=True)


def _iridium():
    return dart_configuration("central", buoy_count=4, sink_count=8, update_interval_s=2.0)


def _coordinator(config) -> Coordinator:
    manager = MachineManager(Host(index=0, allow_memory_overcommit=True))
    return Coordinator(config, ConstellationCalculation(config), ConstellationDatabase(), [manager])


@pytest.fixture
def propagations(monkeypatch):
    """The times of the ``_positions_ecef`` calls made in this process, by
    calculation.  The child inherits the wrapper but appends to its own copy
    of the dict."""
    calls = {}
    positions_ecef = ConstellationCalculation._positions_ecef

    def recorded(self, time_s):
        calls.setdefault(self, []).append(time_s)
        return positions_ecef(self, time_s)

    monkeypatch.setattr(ConstellationCalculation, "_positions_ecef", recorded)
    return calls


class TestTheDriverDerivesNothingUnread:
    def test_station_queries_info_and_shell_propagate_nothing(self, propagations):
        coordinator = _coordinator(_starlink())
        database = coordinator.database
        calculation = coordinator.calculation
        names = coordinator.config.ground_station_names
        stations = [calculation.ground_station(name) for name in names]
        try:
            for epoch in range(12):
                state = coordinator.update(epoch * 2.0)
                info = database.constellation_info()
                assert info["shells"] == len(calculation.shells)
                assert database.shell_info(0)["satellites"] == len(calculation.shells[0])
                for source, target in zip(stations, stations[1:] + stations[:1]):
                    assert state.delay_ms(source, target) > 0.0
                # Epoch 0's cold state_at, and nothing since.
                assert propagations[calculation] == [0.0], f"epoch {epoch}"
            assert callable(state.graph._distance_km)  # no reader: never derived
        finally:
            coordinator.close()

    def test_satellite_pairs_propagate_every_satellite_once(self, propagations):
        config = _starlink()
        coordinator = _coordinator(config)
        reference = ConstellationCalculation(config)
        rng = np.random.default_rng(5)
        try:
            for epoch in range(4):
                state = coordinator.update(epoch * 2.0)
            cold = reference.state_at(state.time_s)
            driver = propagations[coordinator.calculation]
            driver.clear()
            count = state.node_index.satellite_count
            for node_a, node_b in rng.integers(0, count, (6, 2)).tolist():
                machine_a, machine_b = (
                    reference.satellite(*state.node_index.describe(node)[1:])
                    for node in (node_a, node_b)
                )
                assert state._chord_ms(machine_a, machine_b) == cold._chord_ms(machine_a, machine_b)
                assert state.delay_ms(machine_a, machine_b) == cold.delay_ms(machine_a, machine_b)
            # The first read propagates every satellite; the rest read rows.
            assert driver == [state.time_s]
            positions, cold_positions = state.satellite_positions_ecef, cold.satellite_positions_ecef
            assert all(positions[s].tobytes() == cold_positions[s].tobytes() for s in positions)
            assert driver == [state.time_s]
        finally:
            coordinator.close()

    def test_a_held_row_answers_without_the_chord(self, propagations):
        config = _starlink()
        coordinator = _coordinator(config)
        try:
            for epoch in range(3):
                state = coordinator.update(epoch * 2.0)
            calculation = coordinator.calculation
            station = calculation.ground_station(config.ground_station_names[0])
            satellite = calculation.satellite(0, 12)
            state.paths.delays_from(state.node_for(station))  # holds the station's row
            driver = propagations[calculation]
            driver.clear()
            assert state.path(satellite, station) == state.path(station, satellite)
            assert driver == []
        finally:
            coordinator.close()

    @pytest.mark.parametrize("config", [_starlink, _iridium], ids=["starlink_bbox", "dart"])
    def test_uplinks_are_the_cold_ones_without_the_distance_column(self, propagations, config):
        config = config()
        coordinator = _coordinator(config)
        reference = ConstellationCalculation(config)
        try:
            for epoch in range(6):
                state = coordinator.update(epoch * 2.0)
                if epoch == 0:
                    continue
                cold = reference.state_at(state.time_s)
                calls = propagations[coordinator.calculation]
                before = len(calls)
                for name in config.ground_station_names:
                    assert state.uplinks_of(name) == cold.uplinks_of(name), (epoch, name)
                # The first station with an uplink propagates every satellite once.
                assert calls[before:] in ([], [state.time_s]), calls[before:]
                assert callable(state.graph._distance_km)  # read edge by edge only
            assert any(state.uplinks_of(name) for name in config.ground_station_names)
            # The whole column, read first in an epoch, is one propagation.
            state = coordinator.update(12.0)
            cold = reference.state_at(state.time_s)
            before = len(calls)
            assert state.graph.distances_km.tobytes() == cold.graph.distances_km.tobytes()
            assert state.graph.distances_km is state.graph.distances_km
            assert len(calls) == before + 1
        finally:
            coordinator.close()


class TestTheRebuildLeavesNoCycle:
    def test_old_epochs_are_freed_by_reference_counting(self):
        coordinator = _coordinator(_starlink())
        database = coordinator.database
        graphs, states = [], []
        gc.collect()
        gc.disable()
        try:
            for epoch in range(20):
                state = coordinator.update(epoch * 2.0)
                if epoch < 6:
                    if epoch % 2:  # read: the column derived, the function dropped
                        assert state.graph.distances_km.size == state.graph.total_links()
                        assert state.satellite_positions_ecef[0].shape[1] == 3
                    graphs.append(weakref.ref(state.graph))
                    states.append(weakref.ref(state))
            del state
            assert len(database.state.graph.distances_km) == database.state.graph.total_links()
            assert [ref() is None for ref in graphs] == [True] * len(graphs)
            assert [ref() is None for ref in states] == [True] * len(states)
        finally:
            gc.enable()
            coordinator.close()
