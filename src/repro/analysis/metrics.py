"""Latency measurement series and the statistics used in the paper's figures.

The paper reports cumulative distributions (Fig. 4), 1-second rolling medians
(Figs. 5-6) and per-location means (Fig. 11); this module implements those
aggregations over raw measurement samples.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np


class LatencySample(NamedTuple):
    """One end-to-end latency measurement."""

    time_s: float
    latency_ms: float
    source: str = ""
    destination: str = ""


class LatencySeries:
    """A time-ordered collection of latency samples with figure-ready statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[LatencySample] = []

    def add(self, time_s: float, latency_ms: float, source: str = "", destination: str = "") -> None:
        """Record one measurement."""
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        self._samples.append(LatencySample(time_s, latency_ms, source, destination))

    def extend(self, samples: Iterable[LatencySample]) -> None:
        """Add many samples at once."""
        for sample in samples:
            self.add(sample.time_s, sample.latency_ms, sample.source, sample.destination)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[LatencySample]:
        """All recorded samples in insertion order."""
        return list(self._samples)

    def times(self) -> np.ndarray:
        """Sample timestamps [s]."""
        return np.array([sample.time_s for sample in self._samples])

    def values(self) -> np.ndarray:
        """Sample latencies [ms]."""
        return np.array([sample.latency_ms for sample in self._samples])

    # -- statistics -----------------------------------------------------------

    def mean(self) -> float:
        """Mean latency [ms], clamped to the sample extremes.

        The pairwise summation in ``np.mean`` can round a hair outside the
        ``[min, max]`` interval the true mean is bounded by — or overflow to
        ``inf`` outright for samples near the float maximum; clamping keeps
        downstream percentile/extreme invariants exact either way.
        """
        if not self._samples:
            return float("nan")
        values = self.values()
        with np.errstate(over="ignore"):
            return float(np.clip(np.mean(values), values.min(), values.max()))

    def median(self) -> float:
        """Median latency [ms], clamped to the sample extremes.

        For even sample counts ``np.median`` averages the two middle order
        statistics, which can overflow to ``inf`` near the float maximum;
        clamping keeps the invariants exact, mirroring :meth:`mean`.
        """
        if not self._samples:
            return float("nan")
        values = self.values()
        with np.errstate(over="ignore"):
            return float(np.clip(np.median(values), values.min(), values.max()))

    def std(self) -> float:
        """Standard deviation of latency [ms]."""
        return float(np.std(self.values())) if self._samples else float("nan")

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0..100) [ms], clamped to the sample extremes.

        The linear interpolation between order statistics can round a hair
        outside ``[min, max]`` for extreme values; clamping keeps the
        percentile/extreme invariants exact, mirroring :meth:`mean`.
        """
        if not self._samples:
            return float("nan")
        values = self.values()
        return float(np.clip(np.percentile(values, q), values.min(), values.max()))

    def fraction_below(self, threshold_ms: float) -> float:
        """Fraction of samples at or below a latency threshold (CDF value)."""
        if not self._samples:
            return float("nan")
        return float(np.mean(self.values() <= threshold_ms))

    def rolling_median(self, window_s: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Rolling median over a time window (Figs. 5-6): (window centres, medians).

        Each window's median is clamped to that window's sample extremes:
        for even sample counts the midpoint interpolation of the two middle
        values can round outside ``[min, max]`` at float extremes, mirroring
        the :meth:`mean` hazard.
        """
        if not self._samples:
            return np.array([]), np.array([])
        times = self.times()
        values = self.values()
        order = np.argsort(times)
        times, values = times[order], values[order]
        edges = np.arange(times[0], times[-1] + window_s, window_s)
        centres, medians = [], []
        for start in edges:
            mask = (times >= start) & (times < start + window_s)
            if np.any(mask):
                window = values[mask]
                centres.append(start + window_s / 2.0)
                medians.append(
                    float(np.clip(np.median(window), window.min(), window.max()))
                )
        return np.array(centres), np.array(medians)

    def merged_with(self, other: "LatencySeries") -> "LatencySeries":
        """New series containing the samples of both series."""
        series = LatencySeries(self.name or other.name)
        series.extend(self._samples)
        series.extend(other.samples)
        return series
