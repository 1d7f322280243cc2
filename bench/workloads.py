"""The four workloads: what is built, what one operation is, what is checked.

A *rig* is one system under test, built from scratch for every replay:
calculation, database, coordinator with its fan-out backend, and a
``GatewayServer`` thread — all in the driver process.  ``step(i)`` runs
operation ``i`` (identical in every replay); the subscriber side lives in
``bench/sink.py``.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable, Optional

from bench import checks

clock = time.monotonic_ns


class Rig:
    """Common shape of a system under test (see :class:`StarlinkRig`)."""

    interval_s: float
    stages: dict[str, float]

    def __init__(self):
        self.publish_ns: list[int] = []
        self.stages = {}
        self.gateway = None
        self.coordinator = None
        #: Set by a traced replay (``bench.trace.Tracer``).
        self.tracer = None

    def _on_publish(self, epoch, state, diff) -> None:
        # Registered before the gateway's listener: the publish stamp.
        self.publish_ns.append(clock())
        if self.tracer is not None:
            self.tracer.begin("gateway.notify")

    def _after_gateway(self, epoch, state, diff) -> None:
        # Registered after the gateway's listener: its hand-off to the loop
        # thread (and the wait for the GIL that follows) ends here.
        if self.tracer is not None:
            self.tracer.end()

    def _start_gateway(self):
        from repro.serve.gateway import GatewayServer

        # The queue bound is never approached in lock-step (≤ 1 epoch queued).
        self.gateway = GatewayServer(self.database).start()
        self.database.add_listener(self._after_gateway)

    @property
    def port(self) -> int:
        return self.gateway.address[1]

    def machine(self, name: str):
        """The ``MachineId`` behind a query token."""
        if name in self.ground_names:
            return self.calculation.ground_station(name)
        identifier, shell = name.split(".")[:2]  # "<id>.<shell>.celestial"
        return self.calculation.satellite(int(shell), int(identifier))

    def truth(self, source: str, destination: str) -> Optional[float]:
        """The server-side answer a query must equal (``None``: unreachable)."""
        delay = self.database.state.delay_ms(self.machine(source), self.machine(destination))
        return delay if delay != float("inf") else None

    def _gst_pairs(self, rng: random.Random, count: int) -> list[list[str]]:
        names = sorted(self.ground_names)
        return [rng.sample(names, 2) for _ in range(count)]

    def query_plan(self, rng: random.Random, ops: int, per_op: int):
        """``(warm, queries)``: ground-station↔ground-station pairs by default."""
        return [], [self._gst_pairs(rng, per_op) for _ in range(ops)]

    def manager_counters(self) -> list:
        return [
            (
                manager.host.index,
                len(manager.host.machines),
                manager.suspension_count,
                manager.resume_count,
                manager.applied_diffs,
            )
            for manager in self.coordinator.managers
        ]

    def counts(self) -> dict[str, float]:
        """Counters, read before the first and after the last operation.

        ``engine.*`` and ``sim.*`` accumulate (the run reports the difference);
        the others are levels."""
        engine = self.calculation.path_engine.stats.snapshot()
        serving = self.gateway.statistics()
        return {
            **{f"engine.{key}": value for key, value in engine.items()},
            "manager.machines": sum(row[1] for row in self.manager_counters()),
            "dist.worker_restarts": self.worker_restarts(),
            "gateway.encode_count": serving["encode_count"],
            "gateway.evictions": serving["evictions"],
            "gateway.subscriptions": serving["subscriptions"],
        }

    def worker_restarts(self) -> int:
        """Restarts of dist workers so far (the thread backend has none)."""
        return 0

    def matches_cold_state(self) -> bool:
        """Byte-identity of the incremental state to a cold ``state_at``."""
        from repro.core import ConstellationCalculation

        state = self.database.state
        cold = ConstellationCalculation(self.config).state_at(state.time_s)
        return checks.state_digest(cold) == checks.state_digest(state)

    def snapshot_digest(self) -> str:
        from repro.serve.codec import EpochSnapshot

        with self.database.lock:
            snapshot = EpochSnapshot.from_state(self.database.state, self.database.epoch)
        return checks.snapshot_digest(snapshot)

    def sim_digest(self) -> str:
        return checks.digest(
            checks.state_digest(self.database.state), self.manager_counters()
        )

    def worker_rss_mb(self) -> float:
        """Peak RSS of the largest reaped child; read after ``close``."""
        return 0.0

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None


class StarlinkRig(Rig):
    """Paper §4: full phase-I Starlink over West Africa, hand-wired coordinator."""

    interval_s = 2.0

    def __init__(
        self,
        bounding_box: bool,
        hosts: int,
        parallelism: str,
        sweeps: tuple[bool, ...],
        satellite_sources: int = 0,
        smoke: bool = False,
    ):
        super().__init__()
        self.bounding_box = bounding_box
        self.hosts = hosts
        self.parallelism = parallelism
        #: One usage sweep per entry; the value is ``applying_update``.
        self.sweeps = sweeps
        self.satellite_sources = satellite_sources
        self.smoke = smoke

    def _configuration(self):
        from repro.scenarios import iridium_shell, west_africa_configuration
        from repro.scenarios.west_africa import SERVER_COMPUTE

        config = west_africa_configuration(
            duration_s=3600.0,
            shells="lowest" if self.smoke else "all",
            use_bounding_box=self.bounding_box,
        )
        if self.smoke:  # Iridium-sized: same ground segment, 66 satellites
            config = dataclasses.replace(config, shells=(iridium_shell(SERVER_COMPUTE),))
        return dataclasses.replace(
            config, hosts=dataclasses.replace(config.hosts, count=self.hosts)
        )

    def build(self) -> None:
        import numpy as np

        from repro.core import (
            ConstellationCalculation,
            ConstellationDatabase,
            Coordinator,
            MachineManager,
        )
        from repro.hosts import Host

        started = clock()
        self.config = config = self._configuration()
        self.ground_names = set(config.ground_station_names)
        self.calculation = ConstellationCalculation(config)
        calculated = clock()
        self.database = ConstellationDatabase()
        self.database.add_listener(self._on_publish)
        managers = [
            MachineManager(
                Host(
                    index=index,
                    cpu_cores=config.hosts.cpu_cores,
                    memory_mib=config.hosts.memory_mib,
                    allow_memory_overcommit=True,
                ),
                rng=np.random.default_rng(1 + index),
            )
            for index in range(config.hosts.count)
        ]
        self.coordinator = Coordinator(
            config,
            self.calculation,
            self.database,
            managers,
            parallelism=self.parallelism,
            worker_count=2 if self.parallelism == "processes" else None,
        )
        self.coordinator.create_ground_stations(0.0)
        spawned = clock()
        self._start_gateway()
        listening = clock()
        # Under the process backend the workers are spawned by the first epoch.
        self._epoch(0.0)
        done = clock()
        self.stages = {
            "setup.calculation_s": (calculated - started) / 1e9,
            "setup.coordinator_s": (spawned - calculated) / 1e9,
            "setup.gateway_s": (listening - spawned) / 1e9,
            "setup.first_epoch_s": (done - listening) / 1e9,
            "setup_s": (done - started) / 1e9,
        }

    def worker_restarts(self) -> int:
        if self.parallelism != "processes":
            return 0
        # The coordinator publishes no restart counter; this reaches into it
        # and fails the replay (AttributeError) if the attribute moves.
        return self.coordinator._backend.restart_count

    def worker_rss_mb(self) -> float:
        if self.parallelism != "processes":
            return 0.0
        # The dist workers are the only children reaped so far that are larger
        # than a bare interpreter (the sink is still running).
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _epoch(self, now_s: float) -> None:
        self.coordinator.update(now_s)
        for applying_update in self.sweeps:
            self.coordinator.sample_all_usage(now_s, applying_update=applying_update)

    def step(self, operation: int) -> tuple[int, int]:
        started = clock()
        self._epoch(operation * self.interval_s)
        elapsed = clock() - started
        return elapsed, elapsed

    def query_plan(self, rng: random.Random, ops: int, per_op: int):
        if not self.satellite_sources:
            return super().query_plan(rng, ops, per_op)
        # A skewed working set: a few satellite sources (each needs its own
        # carried single-source table) ahead of the ground stations (served
        # from the main table).  Satellite sources ask about satellites —
        # towards a ground station the main table would answer instead.
        state = self.database.state
        active = [
            self.calculation.satellite(shell, int(identifier)).name
            for shell in sorted(state.active_satellites)
            for identifier in state.active_satellites[shell].nonzero()[0]
        ]
        if len(active) <= self.satellite_sources:  # smoke: hardly any in the box
            active = [machine.name for machine in self.calculation.machines()
                      if machine.is_satellite]
        # The sources are fixed (evenly spaced over the in-box satellites): the
        # cost of carrying a table depends on where its source is, and that
        # must not vary with the seed.  The seed orders the queries.
        stride = len(active) // self.satellite_sources
        sources = active[stride // 2 :: stride][: self.satellite_sources]
        stations = sorted(self.ground_names)
        working_set = sources + stations
        # The skew is exact, not sampled: source k of the working set asks
        # its 1/k share of all queries, whatever the seed; the seed shuffles
        # the order and draws the destinations.
        total = ops * per_op
        weights = [1.0 / rank for rank in range(1, len(working_set) + 1)]
        askers = [
            source
            for source, weight in zip(working_set, weights)
            for _ in range(round(total * weight / sum(weights)))
        ]
        askers = (askers + working_set * total)[:total]
        rng.shuffle(askers)

        def destination(source: str) -> str:
            pool = stations if source in self.ground_names else active
            return rng.choice([name for name in pool if name != source])

        queries = [[source, destination(source)] for source in askers]
        warm = [[source, destination(source)] for source in sources]
        return warm, [queries[start : start + per_op] for start in range(0, total, per_op)]


class DartRig(Rig):
    """Paper §5: the DART ocean-alert experiment on Iridium, through ``Celestial``."""

    interval_s = 1.0

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.smoke = smoke
        self._update_ns = 0

    def build(self) -> None:
        from repro import Celestial
        from repro.apps import DartExperiment
        from repro.scenarios import dart_configuration

        started = clock()
        self.config = config = dart_configuration(
            "central",
            buoy_count=8 if self.smoke else 40,
            sink_count=16 if self.smoke else 80,
            update_interval_s=self.interval_s,
        )
        self.ground_names = set(config.ground_station_names)
        self.testbed = testbed = Celestial(config)
        self.calculation = testbed.calculation
        self.database = testbed.database
        self.coordinator = testbed.coordinator
        built = clock()
        self.database.add_listener(self._on_publish)
        self._start_gateway()
        listening = clock()
        # epoch_ms is the update alone here; the rest of an interval is the
        # discrete-event simulation and the virtual network.
        update = self.coordinator.update

        def timed_update(now_s):
            began = clock()
            try:
                return update(now_s)
            finally:
                self._update_ns += clock() - began

        self.coordinator.update = timed_update
        self.experiment = DartExperiment(testbed, deployment="central", group_count=10)
        # Ground stations, set-up sweep, application processes, first epoch.
        self.experiment.run(duration_s=0.0)
        done = clock()
        self.stages = {
            "setup.calculation_s": (built - started) / 1e9,
            "setup.coordinator_s": 0.0,
            "setup.gateway_s": (listening - built) / 1e9,
            "setup.first_epoch_s": (done - listening) / 1e9,
            "setup_s": (done - started) / 1e9,
        }

    def step(self, operation: int) -> tuple[int, int]:
        self._update_ns = 0
        started = clock()
        self.testbed.run(until=operation * self.interval_s)
        return clock() - started, self._update_ns

    def counts(self) -> dict[str, float]:
        network = self.testbed.network_statistics()
        latencies = self.experiment.results.all_latencies()
        return {
            **super().counts(),
            "sim.events": self.testbed.sim.processed_events,
            "sim.msgs_sent": network["sent"],
            "sim.msgs_delivered": network["delivered"],
            "sim.msgs_dropped": network["dropped"],
            "dart.latency_ms_mean": latencies.mean() if len(latencies) else 0.0,
        }

    def sim_digest(self) -> str:
        return checks.digest(
            super().sim_digest(),
            self.experiment.results.all_latencies().values(),
            self.testbed.sim.processed_events,
        )


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    why: str
    #: Timed operations per replay (``smoke_ops`` with ``--smoke``).
    ops: int
    queries_per_op: int
    streams: int
    #: Set-ups measured per run: the replays plus set-up-only repeats.
    setups: int
    rig: Callable[[bool], Rig]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="starlink_bbox",
            why="paper §4 bounding box: diff_since is ~90% of the update; few microVMs, "
            "so dist/manager/serve changes must read no change",
            ops=120,
            queries_per_op=4,
            streams=1,
            setups=32,
            rig=lambda smoke: StarlinkRig(True, 3, "threads", (True,), smoke=smoke),
        ),
        Workload(
            name="starlink_fleet",
            why="same calculation, 4.4k microVMs on 4 hosts, process backend: slices "
            "through wire/pipe/worker ack and sampling sweeps dominate epoch and set-up",
            ops=60,
            queries_per_op=4,
            streams=1,
            setups=8,
            rig=lambda smoke: StarlinkRig(False, 4, "processes", (True, False), smoke=smoke),
        ),
        Workload(
            name="starlink_allpairs",
            why="4 carried satellite-source tables advanced per epoch and 16 skewed "
            "queries: topology.paths via the extra-table cache; codec/gateway/query largest",
            ops=80,
            queries_per_op=16,
            streams=2,
            setups=32,
            rig=lambda smoke: StarlinkRig(
                True, 3, "threads", (True,), satellite_sources=4, smoke=smoke
            ),
        ),
        Workload(
            name="dart_iridium",
            why="paper §5 DART on Iridium: ~70% of wall time is the DES and virtual-network "
            "data plane, calculation layers do little; a data-plane gain shows only here",
            ops=80,
            queries_per_op=4,
            streams=1,
            setups=32,
            rig=lambda smoke: DartRig(smoke=smoke),
        ),
    )
}

SMOKE_OPS = 5
