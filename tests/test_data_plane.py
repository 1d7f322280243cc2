"""The per-message fast path is invisible to the application.

How the middleware moves a message — one timer per delivery, a rule lookup
only when the epoch moved, one batched rule pass per epoch, an O(1) running
check — must not show in anything an experiment observes: every delivery,
drop and latency sample is the one the plain per-pair, per-message
computation gives.  The references here are that plain computation:
``ConstellationState.delay_ms`` + ``bandwidth_kbps`` pair by pair, and a
database whose warm-pair list is emptied so every pair resolves cold.
"""

import math

import numpy as np
import pytest

from repro import Celestial
from repro.apps import DartExperiment
from repro.core import (
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
)
from repro.core.constellation import MachineId
from repro.net import PairRule
from repro.orbits import GroundStation
from repro.scenarios import dart_configuration


def _reference_rule(state, source, destination) -> PairRule:
    """The rule of one pair from the scalar state queries, nothing shared."""
    delay = state.delay_ms(source, destination)
    reachable = bool(np.isfinite(delay))
    bandwidth = state.bandwidth_kbps(source, destination) if reachable else None
    if bandwidth is not None and bandwidth <= 0:
        bandwidth = None
    return PairRule(delay if reachable else 0.0, bandwidth, reachable)


def _assert_same_rule(rule: PairRule, reference: PairRule) -> None:
    assert type(rule.delay_ms) is float
    assert rule.delay_ms == reference.delay_ms
    assert rule.bandwidth_kbps == reference.bandwidth_kbps
    assert type(rule.bandwidth_kbps) is type(reference.bandwidth_kbps)
    assert rule.reachable is reference.reachable


@pytest.fixture(scope="module")
def dart_config():
    config = dart_configuration("central", buoy_count=8, sink_count=16, update_interval_s=1.0)
    # One station that never sees a satellite: every pair with it is unreachable.
    blind = GroundStationConfig(
        station=GroundStation("blind", 0.0, -120.0), min_elevation_deg=89.9
    )
    return Configuration(
        shells=config.shells,
        ground_stations=config.ground_stations + (blind,),
        bounding_box=config.bounding_box,
        hosts=config.hosts,
        epoch=config.epoch,
        update_interval_s=config.update_interval_s,
        duration_s=config.duration_s,
        seed=config.seed,
    )


class TestPairRuleBatch:
    def test_rules_equal_the_scalar_queries_over_ten_epochs(self, dart_config):
        calculation = ConstellationCalculation(dart_config)
        database = ConstellationDatabase()
        central = calculation.ground_station("pacific-tsunami-warning-center")
        names = dart_config.ground_station_names
        buoys = [calculation.ground_station(n) for n in names if n.startswith("buoy-")]
        sinks = [calculation.ground_station(n) for n in names if n.startswith("sink-")]
        blind = calculation.ground_station("blind")
        satellites = (calculation.satellite(0, 3), calculation.satellite(0, 40))
        pairs = (
            [(buoy, central) for buoy in buoys]
            + [(central, sink) for sink in sinks]
            + [(central, blind), (blind, buoys[0])]  # unreachable
            + [(central, central)]  # a node and itself
            + [(satellites[0], central)]  # answered backwards, from central
            + [satellites]  # neither endpoint is a station
        )

        state = calculation.state_at(0.0)
        database.set_state(state)
        engine_stats = calculation.path_engine.stats
        for epoch in range(10):
            if epoch:
                state, diff = calculation.diff_since(state, float(epoch))
                database.set_state(state, diff)
            lookups, misses, batched = (
                database.rule_lookups, database.rule_misses, database.rule_batch_pairs
            )
            rows_solved = engine_stats.rows_solved
            rules = [database.pair_rule(*pair) for pair in pairs]
            assert database.rule_lookups == lookups + len(pairs)
            if epoch:
                # One miss resolved the whole working set of the last epoch,
                # rooted where its pairs meet: the central station's row,
                # satellite 3's (in two pairs, satellite 40 in one) and the
                # blind station's (it ties with buoy 0 and comes first).
                assert database.rule_misses == misses + 1
                assert database.rule_batch_pairs == batched + len(pairs) - 1
                assert engine_stats.rows_solved == rows_solved + 3
            else:
                assert database.rule_misses == misses + len(pairs)
                assert database.rule_batch_pairs == batched

            # The reference asks pair by pair on a state of its own, so its
            # rows are rooted at each pair's first station, not the batch's.
            reference = calculation.state_at(state.time_s)
            for pair, rule in zip(pairs, rules):
                _assert_same_rule(rule, _reference_rule(reference, *pair))
                assert database.pair_rule(*pair) is rule  # cached for the epoch
            assert not database.pair_rule(central, blind).reachable
            assert database.pair_rule(central, blind).bandwidth_kbps is None
            assert database.pair_rule(central, central) == PairRule(0.0, None, True)
            assert rules[-1].reachable and rules[-1].bandwidth_kbps > 0

    def test_pair_metrics_matches_scalar_path_walk(self, dart_config):
        calculation = ConstellationCalculation(dart_config)
        state = calculation.state_at(7.0)
        machines = list(calculation.machines())[::7] + [calculation.ground_station("blind")]
        central = calculation.ground_station("pacific-tsunami-warning-center")
        nodes = [state.node_for(machine) for machine in machines]
        delays, bandwidths = state.pair_metrics(
            [state.node_for(central)] * len(nodes), nodes
        )
        for machine, delay, bandwidth in zip(machines, delays.tolist(), bandwidths.tolist()):
            assert delay == state.delay_ms(central, machine)
            expected = state.bandwidth_kbps(central, machine)
            assert bandwidth == (expected if math.isfinite(delay) else 0.0)

    def test_warm_list_is_replaced_on_every_set_state(self, dart_config):
        calculation = ConstellationCalculation(dart_config)
        database = ConstellationDatabase()
        central = calculation.ground_station("pacific-tsunami-warning-center")
        buoy = calculation.ground_station("buoy-0")
        state = calculation.state_at(0.0)
        database.set_state(state)
        database.pair_rule(buoy, central)
        state, diff = calculation.diff_since(state, 1.0)
        database.set_state(state, diff)
        assert database._warm_pairs == [(buoy, central)]
        state, diff = calculation.diff_since(state, 2.0)
        database.set_state(state, diff)  # nobody asked during epoch 2
        assert database._warm_pairs == []
        database.pair_rule(buoy, central)
        assert database.rule_batch_pairs == 0


def _run_dart(resolve_cold: bool = False, duration_s: float = 20.0, **testbed_options):
    config = dart_configuration("central", buoy_count=8, sink_count=16, update_interval_s=1.0)
    testbed = Celestial(config, **testbed_options)
    if resolve_cold:
        database = testbed.database
        publish = database.set_state

        def set_state_without_warm_pairs(state, diff=None):
            publish(state, diff)
            database._warm_pairs = []

        database.set_state = set_state_without_warm_pairs
    try:
        experiment = DartExperiment(testbed, deployment="central", group_count=2)
        experiment.run(duration_s=duration_s)
        return (
            testbed.network_statistics(),
            experiment.results.all_latencies().values(),
            testbed.sim.processed_events,
        )
    finally:
        testbed.close()


_MESSAGE_COUNTS = ("sent", "delivered", "dropped")


class TestDartIdentity:
    @pytest.fixture(scope="class")
    def warm(self):
        return _run_dart()

    def test_batched_rules_and_cold_rules_give_one_experiment(self, warm):
        statistics, latencies, events = warm
        cold_statistics, cold_latencies, cold_events = _run_dart(resolve_cold=True)
        assert statistics["rule_batch_pairs"] > 0
        assert cold_statistics["rule_batch_pairs"] == 0
        assert cold_statistics["rule_misses"] > statistics["rule_misses"]
        for name in _MESSAGE_COUNTS + ("rule_lookups", "link_updates", "running_checks"):
            assert statistics[name] == cold_statistics[name], name
        assert statistics["delivered"] > 1000
        assert latencies.tobytes() == cold_latencies.tobytes()
        assert events == cold_events

    def test_two_runs_are_identical(self, warm):
        again = _run_dart()
        assert again[0] == warm[0]
        assert again[1].tobytes() == warm[1].tobytes()
        assert again[2] == warm[2]

    def test_at_most_2_3_queue_entries_per_delivered_message(self, warm):
        statistics, _, events = warm
        assert events / statistics["delivered"] <= 2.3

    def test_rules_are_asked_for_only_when_the_epoch_moved(self, warm):
        statistics = warm[0]
        # Every lookup is a new link or the refresh of one after an epoch bump.
        assert statistics["rule_lookups"] < statistics["sent"] / 2
        assert statistics["rule_lookups"] >= statistics["link_updates"]
        assert statistics["rule_misses"] < statistics["rule_lookups"] / 5
        assert statistics["running_checks"] <= 3 * statistics["sent"]

    def test_worker_processes_give_the_same_experiment(self, warm):
        """The running check reads the driver's ledger of worker-owned machines."""
        mirrored = _run_dart(parallelism="processes", worker_count=2)
        assert mirrored[0] == warm[0]
        assert mirrored[1].tobytes() == warm[1].tobytes()


class TestPathRows:
    def test_the_data_plane_solves_one_row_per_epoch(self):
        config = dart_configuration("central", buoy_count=8, sink_count=16, update_interval_s=1.0)
        testbed = Celestial(config)
        try:
            experiment = DartExperiment(testbed, deployment="central", group_count=2)
            experiment.run(duration_s=0.0)
            stats = testbed.calculation.path_engine.stats
            rows = []
            for second in range(1, 21):
                before = stats.rows_solved
                testbed.run(until=float(second))
                rows.append(stats.rows_solved - before)
        finally:
            testbed.close()
        # The first epoch with traffic asks pair by pair: one row per buoy.
        # From then on the working set's batch roots every pair at the
        # central station, and later pairs of the epoch find its row.
        assert rows[0] == 8
        assert max(rows[1:]) <= 2 and sum(rows[1:]) <= len(rows)


class TestStoppedInFlight:
    def test_message_to_machine_stopped_in_flight_is_dropped_at_delivery(self):
        config = dart_configuration("central", buoy_count=2, sink_count=2, update_interval_s=1.0)
        testbed = Celestial(config)
        testbed.start()
        testbed.run(until=1.0)
        central = testbed.ground_station("pacific-tsunami-warning-center")
        buoy = testbed.ground_station("buoy-0")
        testbed.endpoint(central)
        sender = testbed.endpoint(buoy)
        in_flight_ms = testbed.database.pair_rule(buoy, central).delay_ms
        assert in_flight_ms > 1.0

        def scenario():
            sender.send(central, 256)
            yield testbed.sim.timeout(in_flight_ms / 2000.0)
            assert testbed.machine_running(central)
            testbed.fault_injector.terminate(central, testbed.sim.now)
            assert not testbed.machine_running(central)

        testbed.sim.process(scenario())
        testbed.run(until=2.0)
        statistics = testbed.network_statistics()
        assert (statistics["sent"], statistics["delivered"], statistics["dropped"]) == (1, 0, 1)
        # A machine that was never created is not running either.
        assert not testbed.machine_running(MachineId(MachineId.GROUND_SHELL, 0, "ghost"))
