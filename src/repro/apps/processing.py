"""Application processing-delay model.

In a preliminary baseline evaluation the paper finds that clients and bridge
server incur a 1.37 ms median processing delay with a 3.86 ms standard
deviation, caused by measurement software, packet duplication, packet
forwarding and clock drift (§4.1).  This module models that skewed
distribution as a lognormal with the given median and standard deviation.
"""

from __future__ import annotations

import math

import numpy as np

#: The paper's processing delay: median and standard deviation [ms].
MEDIAN_MS = 1.37
STD_MS = 3.86
#: No sample is shorter [ms].
FLOOR_MS = 0.05

# For a lognormal with median m and sigma s: std/median = e^{s^2/2} sqrt(e^{s^2}-1).
# Solving x^2 - x = (std/median)^2 for x = e^{s^2} gives the closed form below.
_RATIO_SQ = (STD_MS / MEDIAN_MS) ** 2
_SIGMA = math.sqrt(math.log((1.0 + math.sqrt(1.0 + 4.0 * _RATIO_SQ)) / 2.0))


class ProcessingDelayModel:
    """Samples per-packet processing delays with the paper's median and std."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def sample_ms(self) -> float:
        """One processing delay sample [ms]."""
        value = MEDIAN_MS * math.exp(_SIGMA * float(self._rng.standard_normal()))
        return max(FLOOR_MS, value)

    def sample_s(self) -> float:
        """One processing delay sample [s]."""
        return self.sample_ms() / 1000.0

    def expected_ms(self) -> float:
        """The median delay, used when computing *expected* latency (Fig. 5)."""
        return MEDIAN_MS
