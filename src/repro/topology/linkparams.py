"""Link parameter computation: propagation delay on the delay grid.

Both laser ISLs (vacuum) and RF ground-to-satellite links propagate at the
speed of light ``c`` (§4.1).  Celestial installs each pair's delay with a
0.1 ms accuracy via tc-netem (§3.1).  That resolution belongs on the
installed pair rule (``ConstellationDatabase.pair_rule``), which does not
round yet, never on a link: links and path sums stay on the fine grid
below.

Delay grid
----------

Raw ``distance / c`` delays carry ~16 significant digits, of which the
testbed can install at best four (netem's 0.1 ms).  Worse, that excess
precision is numerically hostile: the +GRID topology contains thousands of
path pairs whose delays differ only at the 1e-15 relative level, so every
epoch's sub-microsecond drift reshuffles shortest-path ties and forces the
incremental path engine to chase noise.  :func:`link_delay_counts`
therefore rounds every link delay to a whole number of steps of a *binary*
grid, :data:`DELAY_GRID_MS` (2^-20 ms ≈ 0.95 ns, five orders of magnitude
below netem resolution), and a :class:`~repro.topology.graph.NetworkGraph`
holds those ``uint32`` counts.  Grid delays are exact in float64 and so are
all path sums up to seconds of total delay, which makes shortest-path
comparisons exact: equal-delay alternatives are *bitwise* ties instead of
float-noise near-ties, and a shortest-path tree only changes when link
geometry genuinely crosses a grid boundary.
"""

from __future__ import annotations

import numpy as np

from repro.orbits import constants

#: Binary quantum [ms] of every link delay (≈ 0.95 ns).  A power of two, so
#: grid values and their path sums (up to 2^13 ms) are exactly
#: representable in float64 — five orders of magnitude below the 0.1 ms
#: netem resolution of the installed per-pair delays; see the module
#: docstring.
DELAY_GRID_MS = 2.0**-20

_DELAY_GRID_INVERSE = 2.0**20


def propagation_delay_ms(distance_km, speed_km_s: float = constants.SPEED_OF_LIGHT_KM_S):
    """One-way propagation delay [ms] over a distance at a propagation speed."""
    return np.asarray(distance_km, dtype=float) / speed_km_s * 1000.0


def link_delay_counts(distance_km, speed_km_s: float = constants.SPEED_OF_LIGHT_KM_S):
    """One-way link delay over a distance (>= 0) as ``uint32`` counts of
    :data:`DELAY_GRID_MS`, the nearest count to the exact delay.

    A delay of 2**32 counts or more (4096 ms, some 1.23 million km at
    ``c``) is a ``ValueError``.
    """
    counts = np.rint(propagation_delay_ms(distance_km, speed_km_s) * _DELAY_GRID_INVERSE)
    if counts.size and not counts.max() < 2**32:  # NaN fails it too
        raise ValueError(f"a link delay of {counts.max()} grid counts does not fit uint32")
    return counts.astype(np.uint32)
