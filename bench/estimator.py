"""The replay-min estimator.

On this class of box a *fixed* kernel flips between a fast and a slow mode at
sub-second scale, and the share of slow samples drifts over minutes, so a
pooled median or throughput of identical code moves by 10–18 % between
invocations.  Every workload is therefore replayed from scratch with identical
inputs: operation ``i`` does the same work in every replay, its timings are
first reduced to their minimum over the replays, and only then summarised over
operations.  Slow-mode samples drop out unless an operation is slow in *every*
replay; work the program really does for operation ``i`` stays in.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np


def per_op_min(replays: Sequence[Sequence[float]]) -> np.ndarray:
    """``x[i] = min over replays of x[r][i]``; the replays must align."""
    if not replays:
        raise ValueError("at least one replay is required")
    lengths = {len(replay) for replay in replays}
    if len(lengths) != 1:
        raise ValueError(f"replays differ in length: {sorted(lengths)}")
    return np.min(np.asarray(replays, dtype=float), axis=0)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1])."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def repeats_exactly(replays: Sequence[Sequence[float]]) -> bool:
    """Whether a count series is identical in every replay."""
    first = list(replays[0])
    return all(list(replay) == first for replay in replays[1:])
