"""The §5 ocean environment alert experiment.

100 data buoys transmit sensor readings over the Iridium constellation every
second; readings are run through an LSTM inference service either at the
central Pacific Tsunami Warning Center or on the Iridium satellites
(device-to-device), and results are forwarded to the ships and islands
subscribed to the sensor's group.  Sinks measure end-to-end latency from the
buoy's transmission to the result's arrival (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.analysis.metrics import LatencySeries
from repro.apps.dart.lstm import StackedLSTM
from repro.apps.dart.workload import SensorGroups, SensorReadingGenerator
from repro.core.constellation import MachineId
from repro.core.testbed import Celestial

#: The inference service's ground station under the central deployment.
CENTRAL_NAME = "pacific-tsunami-warning-center"
#: Bytes of one buoy reading and of one inference result.
READING_SIZE_BYTES = 512
RESULT_SIZE_BYTES = 256


@dataclass
class DartResults:
    """Results of one ocean-alert experiment run."""

    deployment: str
    sink_latencies: dict[str, LatencySeries] = field(default_factory=dict)
    sink_locations: dict[str, tuple[float, float]] = field(default_factory=dict)
    processing_ms: LatencySeries = field(default_factory=lambda: LatencySeries("processing"))
    readings_sent: int = 0
    results_delivered: int = 0

    def mean_latency_per_sink(self) -> dict[str, float]:
        """Mean observed end-to-end latency per sink [ms] (Fig. 11 colours)."""
        return {
            name: series.mean()
            for name, series in self.sink_latencies.items()
            if len(series) > 0
        }

    def all_latencies(self) -> LatencySeries:
        """All sink latency samples merged into one series."""
        merged = LatencySeries(f"dart-{self.deployment}")
        for series in self.sink_latencies.values():
            merged.extend(series.samples)
        return merged

    def latency_range_ms(self) -> tuple[float, float]:
        """(min, max) of the per-sink mean latencies [ms]."""
        means = list(self.mean_latency_per_sink().values())
        if not means:
            return (float("nan"), float("nan"))
        return (float(np.min(means)), float(np.max(means)))

    def mean_latency_by_region(self) -> dict[str, float]:
        """Mean latency split into West Pacific (lon >= 0 east of 150E) vs Americas."""
        regions: dict[str, list[float]] = {"west_pacific": [], "americas": []}
        for name, series in self.sink_latencies.items():
            if len(series) == 0 or name not in self.sink_locations:
                continue
            _, longitude = self.sink_locations[name]
            region = "west_pacific" if longitude >= 0.0 else "americas"
            regions[region].append(series.mean())
        return {
            region: float(np.mean(values)) if values else float("nan")
            for region, values in regions.items()
        }

    def summary_metrics(self) -> list[list]:
        """The headline ``[label, value]`` rows of a run (§5 reporting).

        Shared by the CLI table and the experiment runner's result bundle,
        so both surfaces report the identical quantities.
        """
        low, high = self.latency_range_ms()
        regions = self.mean_latency_by_region()
        return [
            ["readings sent", self.readings_sent],
            ["results delivered", self.results_delivered],
            ["mean latency [ms]", self.all_latencies().mean()],
            ["min/max sink mean [ms]", f"{low:.1f} / {high:.1f}"],
            ["West Pacific mean [ms]", regions["west_pacific"]],
            ["Americas mean [ms]", regions["americas"]],
            ["processing mean [ms]", self.processing_ms.mean()],
        ]


class DartExperiment:
    """Runs the DART-inspired remote-sensing workload on a Celestial testbed.

    The configuration's ``buoy-*`` ground stations send readings, its
    ``sink-*`` stations receive results.
    """

    def __init__(
        self,
        testbed: Celestial,
        deployment: Literal["central", "satellite"] = "central",
        group_count: int = 20,
        reading_interval_s: float = 1.0,
        lstm: Optional[StackedLSTM] = None,
        run_inference: bool = False,
    ):
        if deployment not in ("central", "satellite"):
            raise ValueError(f"unknown deployment: {deployment!r}")
        self.testbed = testbed
        self.deployment = deployment
        stations = [gst.station for gst in testbed.config.ground_stations]
        self.buoys = [station for station in stations if station.name.startswith("buoy-")]
        self.sinks = [station for station in stations if station.name.startswith("sink-")]
        self.central = testbed.ground_station(CENTRAL_NAME)
        self._sink_machines = {sink.name: testbed.ground_station(sink.name) for sink in self.sinks}
        self.groups = SensorGroups(self.buoys, self.sinks, group_count)
        self.reading_interval_s = reading_interval_s
        self.lstm = lstm if lstm is not None else StackedLSTM(input_size=1, hidden_sizes=(16, 16))
        self.run_inference = run_inference
        self.results = DartResults(deployment=deployment)
        self._generators = {
            buoy.name: SensorReadingGenerator(seed=index) for index, buoy in enumerate(self.buoys)
        }
        self._sink_endpoints = {}
        self._buoy_endpoints = {}
        self._inference_started: set[str] = set()

    # -- orchestration -------------------------------------------------------

    def run(self, duration_s: Optional[float] = None) -> DartResults:
        """Run the experiment and return the collected results."""
        self.testbed.start()
        sim = self.testbed.sim
        for sink in self.sinks:
            self._sink_endpoints[sink.name] = self.testbed.endpoint(self._sink_machines[sink.name])
            self.results.sink_latencies[sink.name] = LatencySeries(sink.name)
            self.results.sink_locations[sink.name] = (sink.latitude_deg, sink.longitude_deg)
            sim.process(self._sink_process(sink.name))
        for buoy in self.buoys:
            machine = self.testbed.ground_station(buoy.name)
            self._buoy_endpoints[buoy.name] = self.testbed.endpoint(machine)
            sim.process(self._buoy_process(buoy.name))
        if self.deployment == "central":
            sim.process(self._inference_process(self.central))
            self._inference_started.add(self.central.name)
        self.testbed.run(until=duration_s)
        return self.results

    # -- processes ----------------------------------------------------------------

    def _inference_destination(self, buoy_name: str) -> Optional[MachineId]:
        if self.deployment == "central":
            return self.central
        uplinks = self.testbed.state.uplinks_of(buoy_name)
        if not uplinks:
            return None
        nearest = uplinks[0]
        satellite = self.testbed.satellite(nearest.shell, nearest.satellite)
        if satellite.name not in self._inference_started:
            self._inference_started.add(satellite.name)
            self.testbed.sim.process(self._inference_process(satellite))
        return satellite

    def _buoy_process(self, buoy_name: str):
        sim = self.testbed.sim
        endpoint = self._buoy_endpoints[buoy_name]
        generator = self._generators[buoy_name]
        while True:
            destination = self._inference_destination(buoy_name)
            if destination is not None:
                payload = {
                    "origin": buoy_name,
                    "sent": sim.now,
                    "group": self.groups.group_of_buoy[buoy_name],
                    "reading": generator.reading(sim.now),
                }
                endpoint.send(destination, READING_SIZE_BYTES, payload=payload)
                self.results.readings_sent += 1
            yield sim.timeout(self.reading_interval_s)

    def _inference_process(self, machine: MachineId):
        sim = self.testbed.sim
        endpoint = self.testbed.endpoint(machine)
        while True:
            message = yield endpoint.receive()
            nominal = self.lstm.inference_nominal_seconds()
            if self.run_inference:
                window = np.full((8, self.lstm.input_size), message.payload["reading"])
                self.lstm.predict(window)
            delay_s = self.testbed.processing_delay_s(machine, nominal)
            yield sim.timeout(delay_s)
            self.results.processing_ms.add(sim.now, delay_s * 1000.0)
            payload = dict(message.payload)
            payload["inference_at"] = machine.name
            for sink_name in self.groups.subscribers(message.payload["origin"]):
                endpoint.send(self._sink_machines[sink_name], RESULT_SIZE_BYTES, payload=payload)

    def _sink_process(self, sink_name: str):
        sim = self.testbed.sim
        endpoint = self._sink_endpoints[sink_name]
        while True:
            message = yield endpoint.receive()
            latency_ms = (sim.now - message.payload["sent"]) * 1000.0
            self.results.sink_latencies[sink_name].add(
                sim.now, latency_ms, message.payload["origin"], sink_name
            )
            self.results.results_delivered += 1
