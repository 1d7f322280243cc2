"""The §4 LEO edge application: a WebRTC-style video conference.

Three clients (Accra, Abuja, Yaoundé) send a constant-bit-rate video stream
(2.6 Mb/s each) to a common bridge/meetup server, which duplicates every
stream to the other participants.  The bridge runs either in the Johannesburg
cloud data centre or on the currently-optimal satellite server; in the latter
case a tracking service in the data centre periodically checks the satellites
in reach of the clients and instructs them to use the best one (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.analysis.metrics import LatencySeries
from repro.apps.processing import ProcessingDelayModel
from repro.core.constellation import MachineId
from repro.core.testbed import Celestial

#: The meetup's clients, its cloud bridge and its tracking service (§4).
CLIENT_NAMES = ("accra", "abuja", "yaounde")
CLOUD_BRIDGE_NAME = "johannesburg-cloud"
TRACKING_NAME = "johannesburg-tracking"


@dataclass(frozen=True)
class VideoStreamParams:
    """Parameters of one client's video stream."""

    bitrate_kbps: float = 2600.0
    packet_interval_s: float = 0.02

    def __post_init__(self):
        if self.bitrate_kbps <= 0 or self.packet_interval_s <= 0:
            raise ValueError("stream parameters must be positive")

    @property
    def packet_size_bytes(self) -> int:
        """Size of one video packet at the configured bitrate and pacing."""
        return max(1, int(self.bitrate_kbps * 1000.0 / 8.0 * self.packet_interval_s))


class BridgeSelector:
    """Holds the currently-selected bridge server and its selection history."""

    def __init__(self):
        self.current: Optional[MachineId] = None
        self.history: list[tuple[float, str]] = []

    def select(self, time_s: float, machine: MachineId) -> bool:
        """Set the current bridge; returns True if it changed."""
        changed = self.current is None or self.current.name != machine.name
        self.current = machine
        if changed:
            self.history.append((time_s, machine.name))
        return changed

    @property
    def distinct_bridges(self) -> list[str]:
        """Names of all machines that have served as the bridge."""
        return [name for _, name in self.history]


@dataclass
class MeetupResults:
    """Results of one meetup/video-conference run."""

    mode: str
    measured: dict[tuple[str, str], LatencySeries] = field(default_factory=dict)
    expected: dict[tuple[str, str], LatencySeries] = field(default_factory=dict)
    bridge_history: list[tuple[float, str]] = field(default_factory=list)
    selected_shells: list[int] = field(default_factory=list)

    def pair(self, source: str, destination: str) -> LatencySeries:
        """Measured end-to-end latency series of one ordered client pair."""
        return self.measured[(source, destination)]

    def expected_pair(self, source: str, destination: str) -> LatencySeries:
        """Expected (simulated distance + processing) series of a client pair."""
        return self.expected[(source, destination)]

    def all_measurements(self) -> LatencySeries:
        """All measured samples across every client pair."""
        merged = LatencySeries(f"meetup-{self.mode}")
        for series in self.measured.values():
            merged.extend(series.samples)
        return merged

    def summary_metrics(self) -> list[list]:
        """The headline ``[label, value]`` rows of a run (§4 reporting).

        Shared by the CLI table and the experiment runner's result bundle,
        so both surfaces report the identical quantities.
        """
        merged = self.all_measurements()
        return [
            ["samples", len(merged)],
            ["median latency [ms]", merged.median()],
            ["p80 latency [ms]", merged.percentile(80)],
            ["fraction <= 16 ms", merged.fraction_below(16.0)],
            ["fraction <= 46 ms", merged.fraction_below(46.0)],
            ["bridge handovers", max(0, len(self.bridge_history) - 1)],
        ]


class MeetupExperiment:
    """Runs the §4 meetup experiment on a Celestial testbed."""

    def __init__(
        self,
        testbed: Celestial,
        mode: Literal["satellite", "cloud"] = "satellite",
        stream: VideoStreamParams = VideoStreamParams(),
        tracking_interval_s: float = 5.0,
    ):
        if mode not in ("satellite", "cloud"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.testbed = testbed
        self.mode = mode
        self.stream = stream
        self.tracking_interval_s = tracking_interval_s
        self.processing = ProcessingDelayModel(testbed.streams.stream("meetup"))
        self.clients = {name: testbed.ground_station(name) for name in CLIENT_NAMES}
        self.cloud_bridge = testbed.ground_station(CLOUD_BRIDGE_NAME)
        self.tracking_machine = testbed.ground_station(TRACKING_NAME)
        self.selector = BridgeSelector()
        self.results = MeetupResults(mode=mode)
        for source in CLIENT_NAMES:
            for destination in CLIENT_NAMES:
                if source != destination:
                    self.results.measured[(source, destination)] = LatencySeries(
                        f"{source}->{destination} measured"
                    )
                    self.results.expected[(source, destination)] = LatencySeries(
                        f"{source}->{destination} expected"
                    )
        self._client_endpoints = {}
        self._bridge_processes_started: set[str] = set()

    # -- experiment orchestration ---------------------------------------------

    def run(self, duration_s: Optional[float] = None) -> MeetupResults:
        """Run the experiment and return the collected results."""
        self.testbed.start()
        sim = self.testbed.sim
        for name, machine in self.clients.items():
            self._client_endpoints[name] = self.testbed.endpoint(machine)
            self.testbed.set_busy(machine, 0.4)
        self.testbed.set_busy(self.tracking_machine, 0.2)
        sim.process(self._tracking_process())
        for name in self.clients:
            sim.process(self._client_send_process(name))
            sim.process(self._client_receive_process(name))
        self.testbed.run(until=duration_s)
        self.results.bridge_history = list(self.selector.history)
        return self.results

    # -- tracking service ----------------------------------------------------------

    def _select_satellite_bridge(self) -> Optional[MachineId]:
        state = self.testbed.state
        candidate_sets = []
        for machine in self.clients.values():
            uplinks = state.uplinks_of(machine.name)
            candidate_sets.append({(u.shell, u.satellite) for u in uplinks})
        if not candidate_sets or not all(candidate_sets):
            return None
        common = set.intersection(*candidate_sets)
        candidates = [
            self.testbed.satellite(shell, satellite)
            for shell, satellite in (common if common else set.union(*candidate_sets))
        ]
        # Every (candidate, client) pair in one batch; the first candidate
        # with the lowest worst-client delay wins.
        clients = [state.node_for(client) for client in self.clients.values()]
        delays, _ = state.pair_metrics(
            [state.node_for(candidate) for candidate in candidates for _ in clients],
            clients * len(candidates),
        )
        combined = delays.reshape(len(candidates), len(clients)).max(axis=1)
        best = int(np.argmin(combined))
        return candidates[best] if np.isfinite(combined[best]) else None

    def _tracking_process(self):
        sim = self.testbed.sim
        while True:
            if self.mode == "cloud":
                bridge = self.cloud_bridge
            else:
                bridge = self._select_satellite_bridge()
            if bridge is not None:
                if bridge.is_satellite:
                    self.testbed.ensure_machine(bridge)
                    self.results.selected_shells.append(bridge.shell)
                self.selector.select(sim.now, bridge)
                if bridge.name not in self._bridge_processes_started:
                    self._bridge_processes_started.add(bridge.name)
                    sim.process(self._bridge_process(bridge))
                self._record_expected_latencies(bridge)
            yield sim.timeout(self.tracking_interval_s)

    def _record_expected_latencies(self, bridge: MachineId) -> None:
        state = self.testbed.state
        now = self.testbed.sim.now
        # A path's delay reads the same bits in either direction: one batch
        # of (client, bridge) pairs gives both legs of every client pair.
        delays, _ = state.pair_metrics(
            [state.node_for(client) for client in self.clients.values()],
            [state.node_for(bridge)] * len(self.clients),
        )
        to_bridge = dict(zip(self.clients, delays.tolist()))
        for source_name in self.clients:
            for destination_name in self.clients:
                if source_name == destination_name:
                    continue
                expected = (
                    to_bridge[source_name]
                    + to_bridge[destination_name]
                    + self.processing.expected_ms()
                )
                if np.isfinite(expected):
                    self.results.expected[(source_name, destination_name)].add(
                        now, float(expected), source_name, destination_name
                    )

    # -- data plane processes ----------------------------------------------------------

    def _client_send_process(self, client_name: str):
        sim = self.testbed.sim
        endpoint = self._client_endpoints[client_name]
        size = self.stream.packet_size_bytes
        while True:
            bridge = self.selector.current
            if bridge is not None:
                endpoint.send(
                    bridge, size, payload={"origin": client_name, "sent": sim.now}
                )
            yield sim.timeout(self.stream.packet_interval_s)

    def _bridge_process(self, bridge: MachineId):
        sim = self.testbed.sim
        endpoint = self.testbed.endpoint(bridge)
        if self.testbed.coordinator.has_machine(bridge):
            self.testbed.set_busy(bridge, 0.6)
        while True:
            message = yield endpoint.receive()
            delay_s = self.testbed.processing_delay_s(bridge, self.processing.sample_s())
            yield sim.timeout(delay_s)
            origin = message.payload["origin"]
            for client_name, client in self.clients.items():
                if client_name == origin:
                    continue
                endpoint.send(client, message.size_bytes, payload=dict(message.payload))

    def _client_receive_process(self, client_name: str):
        sim = self.testbed.sim
        endpoint = self._client_endpoints[client_name]
        while True:
            message = yield endpoint.receive()
            origin = message.payload["origin"]
            if origin == client_name:
                continue
            latency_ms = (sim.now - message.payload["sent"]) * 1000.0
            self.results.measured[(origin, client_name)].add(
                sim.now, latency_ms, origin, client_name
            )
