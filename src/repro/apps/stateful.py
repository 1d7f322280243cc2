"""Virtual stationarity: state management on the moving LEO edge (§6.7).

The paper's future-work section highlights state management as the key open
challenge: clients frequently connect to new satellite servers, and
Bhattacherjee et al. propose *virtual stationarity* — migrating server-side
state between satellites based on their position relative to Earth, so data
appears to stay in the same place from the clients' perspective.  Celestial
itself deliberately ships no such strategy; it is the testbed on which such
strategies are evaluated.  This module implements exactly that kind of
evaluation subject: a small key-value service anchored to a geographic
location, with a migration service that moves its state to whichever
satellite currently serves that location, and clients measuring read latency
and staleness under two policies (proactive migration vs. none).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.analysis.metrics import LatencySeries
from repro.core.constellation import MachineId
from repro.core.testbed import Celestial

#: How often the migration service checks the anchor [s].
MIGRATION_INTERVAL_S = 5.0
#: Bytes of one read request and of one reply.
REQUEST_SIZE_BYTES = 256


@dataclass
class VirtualStationarityResults:
    """Results of one virtual-stationarity run."""

    policy: str
    read_latency: LatencySeries = field(default_factory=lambda: LatencySeries("reads"))
    migration_count: int = 0
    migration_downtime_s: float = 0.0
    hits: int = 0
    misses: int = 0
    anchor_history: list[tuple[float, str]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        """Fraction of reads answered by a satellite that held the state."""
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")


class VirtualStationarityExperiment:
    """Evaluates state migration between satellite servers on a testbed.

    ``policy`` selects the strategy under test:

    * ``"proactive"`` — a migration service checks the anchor location every
      :data:`MIGRATION_INTERVAL_S` and copies the state to the satellite that now
      serves the anchor, so reads almost always hit.
    * ``"static"`` — the state stays on the satellite that held it first
      (no migration); as the constellation moves, reads increasingly miss and
      must be redirected, paying an extra round trip.
    """

    def __init__(
        self,
        testbed: Celestial,
        anchor_station: str,
        client_stations: Optional[list[str]] = None,
        policy: Literal["proactive", "static"] = "proactive",
        state_size_bytes: int = 256 * 1024,
        read_interval_s: float = 1.0,
    ):
        if policy not in ("proactive", "static"):
            raise ValueError(f"unknown policy: {policy!r}")
        self.testbed = testbed
        self.policy = policy
        self.anchor = testbed.ground_station(anchor_station)
        client_names = client_stations if client_stations is not None else [anchor_station]
        self.clients = [testbed.ground_station(name) for name in client_names]
        self.state_size_bytes = state_size_bytes
        self.read_interval_s = read_interval_s
        self.results = VirtualStationarityResults(policy=policy)
        self._state_holder: Optional[MachineId] = None
        self._holder_endpoints: dict[str, object] = {}

    # -- helpers ---------------------------------------------------------------

    def _anchor_satellite(self) -> Optional[MachineId]:
        uplinks = self.testbed.state.uplinks_of(self.anchor.name)
        if not uplinks:
            return None
        nearest = uplinks[0]
        return self.testbed.satellite(nearest.shell, nearest.satellite)

    def _ensure_service(self, machine: MachineId) -> None:
        if machine.name not in self._holder_endpoints:
            self.testbed.ensure_machine(machine)
            endpoint = self.testbed.endpoint(machine)
            self._holder_endpoints[machine.name] = endpoint
            self.testbed.sim.process(self._service_process(machine, endpoint))

    # -- processes --------------------------------------------------------------

    def _migration_process(self):
        sim = self.testbed.sim
        while True:
            target = self._anchor_satellite()
            if target is not None:
                if self._state_holder is None:
                    self._ensure_service(target)
                    self._state_holder = target
                    self.results.anchor_history.append((sim.now, target.name))
                elif self.policy == "proactive" and target.name != self._state_holder.name:
                    self._ensure_service(target)
                    # Moving the state takes one transfer over the network:
                    # serialization at the bottleneck bandwidth plus the path
                    # delay between the old and new holder.
                    rule = self.testbed.database.pair_rule(self._state_holder, target)
                    bandwidth = rule.bandwidth_kbps or 10_000_000.0
                    transfer_s = (
                        self.state_size_bytes * 8.0 / (bandwidth * 1000.0)
                        + max(0.0, rule.delay_ms) / 1000.0
                    )
                    yield sim.timeout(transfer_s)
                    self.results.migration_count += 1
                    self.results.migration_downtime_s += transfer_s
                    self._state_holder = target
                    self.results.anchor_history.append((sim.now, target.name))
            yield sim.timeout(MIGRATION_INTERVAL_S)

    def _service_process(self, machine: MachineId, endpoint):
        sim = self.testbed.sim
        while True:
            message = yield endpoint.receive()
            holder = self._state_holder
            hit = holder is not None and holder.name == machine.name
            reply = dict(message.payload)
            reply["hit"] = hit
            processing = self.testbed.processing_delay_s(machine, 0.001)
            yield sim.timeout(processing)
            if not hit and holder is not None:
                # Redirect: fetch the value from the actual holder first.
                rule = self.testbed.database.pair_rule(machine, holder)
                if rule.reachable:
                    yield sim.timeout(2.0 * rule.delay_ms / 1000.0)
            endpoint.send(message.payload["client"], REQUEST_SIZE_BYTES, payload=reply)

    def _client_process(self, client: MachineId):
        sim = self.testbed.sim
        endpoint = self.testbed.endpoint(client)
        pending: dict[int, float] = {}
        sequence = 0

        def reader():
            nonlocal sequence
            while True:
                target = self._current_read_target(client)
                if target is not None:
                    sequence += 1
                    pending[sequence] = sim.now
                    endpoint.send(
                        target,
                        REQUEST_SIZE_BYTES,
                        payload={"client": client, "sequence": sequence},
                    )
                yield sim.timeout(self.read_interval_s)

        def receiver():
            while True:
                message = yield endpoint.receive()
                sent_at = pending.pop(message.payload["sequence"], None)
                if sent_at is None:
                    continue
                self.results.read_latency.add(
                    sim.now, (sim.now - sent_at) * 1000.0, client.name, message.source.name
                )
                if message.payload.get("hit"):
                    self.results.hits += 1
                else:
                    self.results.misses += 1

        sim.process(reader())
        sim.process(receiver())

    def _current_read_target(self, client: MachineId) -> Optional[MachineId]:
        # Clients always talk to the satellite currently serving the anchor
        # location (that is what virtual stationarity promises them); under
        # the static policy this satellite may no longer hold the state.
        target = self._anchor_satellite()
        if target is None:
            return self._state_holder
        self._ensure_service(target)
        return target

    # -- orchestration ------------------------------------------------------------

    def run(self, duration_s: Optional[float] = None) -> VirtualStationarityResults:
        """Run the experiment and return the collected results."""
        self.testbed.start()
        self.testbed.sim.process(self._migration_process())
        for client in self.clients:
            self._client_process(client)
        self.testbed.run(until=duration_s)
        return self.results
