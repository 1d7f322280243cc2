"""Sensor workload: readings, sensor groups and sink subscriptions.

Readings are grouped by sensor location and type before inference (§5);
results are distributed to the ships and islands in the vicinity of the
sensors.  The grouping here follows the geography: buoys are clustered into
groups by longitude/latitude, and every sink subscribes to the group whose
centroid is closest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.orbits import GroundStation
from repro.orbits.coordinates import great_circle_distance_km


@dataclass
class SensorReadingGenerator:
    """Generates synthetic bottom-pressure readings for one buoy.

    The signal is a slow tidal oscillation plus measurement noise; an
    optional anomaly (tsunami precursor) adds a transient pressure step,
    which is what the inference service is meant to detect.
    """

    base_pressure_hpa: float = 1013.0
    tidal_amplitude_hpa: float = 3.0
    tidal_period_s: float = 12.0 * 3600.0
    noise_std_hpa: float = 0.2
    anomaly_start_s: float | None = None
    anomaly_magnitude_hpa: float = 15.0
    seed: int = 0

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def reading(self, time_s: float) -> float:
        """One pressure reading at a given time [hPa]."""
        value = self.base_pressure_hpa + self.tidal_amplitude_hpa * np.sin(
            2.0 * np.pi * time_s / self.tidal_period_s
        )
        if self.anomaly_start_s is not None and time_s >= self.anomaly_start_s:
            value += self.anomaly_magnitude_hpa
        return float(value + self._rng.normal(0.0, self.noise_std_hpa))


class SensorGroups:
    """Groups buoys geographically and subscribes sinks to nearby groups."""

    def __init__(self, buoys: list[GroundStation], sinks: list[GroundStation], group_count: int = 20):
        if group_count <= 0:
            raise ValueError("group count must be positive")
        if not buoys:
            raise ValueError("at least one buoy is required")
        self.group_count = min(group_count, len(buoys))
        # Sort buoys west-to-east (unwrapping the antimeridian) and slice into
        # contiguous groups, which keeps each group geographically compact.
        def sort_key(station: GroundStation) -> float:
            longitude = station.longitude_deg
            return longitude if longitude >= 0 else longitude + 360.0

        ordered = sorted(buoys, key=sort_key)
        self.group_of_buoy: dict[str, int] = {}
        for position, buoy in enumerate(ordered):
            group = min(self.group_count - 1, position * self.group_count // len(ordered))
            self.group_of_buoy[buoy.name] = group
        self._centroids = self._compute_centroids(buoys)
        self.sinks_of_group: dict[int, list[str]] = {g: [] for g in range(self.group_count)}
        self.group_of_sink: dict[str, int] = {}
        for sink in sinks:
            group = self._nearest_group(sink)
            self.sinks_of_group[group].append(sink.name)
            self.group_of_sink[sink.name] = group

    def _compute_centroids(self, buoys: list[GroundStation]) -> dict[int, tuple[float, float]]:
        sums: dict[int, list[float]] = {g: [0.0, 0.0, 0.0] for g in range(self.group_count)}
        for buoy in buoys:
            group = self.group_of_buoy[buoy.name]
            sums[group][0] += buoy.latitude_deg
            longitude = buoy.longitude_deg if buoy.longitude_deg >= 0 else buoy.longitude_deg + 360.0
            sums[group][1] += longitude
            sums[group][2] += 1.0
        centroids = {}
        for group, (lat_sum, lon_sum, count) in sums.items():
            if count == 0:
                centroids[group] = (0.0, 180.0)
                continue
            longitude = lon_sum / count
            if longitude > 180.0:
                longitude -= 360.0
            centroids[group] = (lat_sum / count, longitude)
        return centroids

    def _nearest_group(self, sink: GroundStation) -> int:
        best_group, best_distance = 0, float("inf")
        for group, (lat, lon) in self._centroids.items():
            distance = great_circle_distance_km(sink.latitude_deg, sink.longitude_deg, lat, lon)
            if distance < best_distance:
                best_group, best_distance = group, distance
        return best_group

    def subscribers(self, buoy_name: str) -> list[str]:
        """Sink names subscribed to a buoy's group."""
        return list(self.sinks_of_group[self.group_of_buoy[buoy_name]])
