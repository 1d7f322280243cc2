"""Link parameter computation: propagation delay on the delay grid.

Both laser ISLs (vacuum) and RF ground-to-satellite links propagate at the
speed of light ``c`` (§4.1).  Celestial injects the resulting delays with a
0.1 ms accuracy via tc-netem (§3.1); the same quantisation is available here
so emulated values match what the testbed would install.

Delay grid
----------

Raw ``distance / c`` delays carry ~16 significant digits, of which the
testbed can install at best four (netem's 0.1 ms).  Worse, that excess
precision is numerically hostile: the +GRID topology contains thousands of
path pairs whose delays differ only at the 1e-15 relative level, so every
epoch's sub-microsecond drift reshuffles shortest-path ties and forces the
incremental path engine to chase noise.  :func:`link_delay_ms` therefore
snaps every link delay onto a *binary* grid of :data:`DELAY_GRID_MS`
(2^-20 ms ≈ 0.95 ns, five orders of magnitude below netem resolution).
On-grid delays are exact in float64 and so are all path sums up to seconds
of total delay, which makes shortest-path comparisons exact: equal-delay
alternatives are *bitwise* ties instead of float-noise near-ties, and a
shortest-path tree only changes when link geometry genuinely crosses a
grid boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.orbits import constants

#: netem delay quantisation used by Celestial [ms].
NETEM_DELAY_RESOLUTION_MS = 0.1

#: Binary quantum [ms] all computed link delays snap to (≈ 0.95 ns).  A
#: power of two, so on-grid values and their path sums (up to 2^13 ms) are
#: exactly representable in float64 — five orders of magnitude below the
#: 0.1 ms netem resolution of the installed per-pair delays; see the
#: module docstring.
DELAY_GRID_MS = 2.0**-20

_DELAY_GRID_INVERSE = 2.0**20


def delay_counts(delays_ms: np.ndarray) -> np.ndarray:
    """The ``uint32`` grid-step counts of delays known to be on the grid."""
    return (delays_ms * _DELAY_GRID_INVERSE).astype(np.uint32)


def grid_counts(delays_ms: np.ndarray) -> Optional[np.ndarray]:
    """Delays as ``uint32`` grid-step counts when those give back the same
    bits (else None: off the grid, out of range, -0.0, not finite)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the cast's garbage fails the test
        counts = delay_counts(delays_ms)
    exact = np.multiply(counts, DELAY_GRID_MS, dtype=np.float64).tobytes() == delays_ms.tobytes()
    return counts if exact else None


def propagation_delay_ms(distance_km, speed_km_s: float = constants.SPEED_OF_LIGHT_KM_S):
    """One-way propagation delay [ms] over a distance at a propagation speed."""
    return np.asarray(distance_km, dtype=float) / speed_km_s * 1000.0


def link_delay_ms(
    distance_km,
    quantize: bool = False,
    speed_km_s: float = constants.SPEED_OF_LIGHT_KM_S,
):
    """One-way link delay [ms], snapped to the sub-nanosecond delay grid.

    With ``quantize`` the coarse 0.1 ms netem resolution is applied
    instead (what the testbed would actually install).
    """
    delay = propagation_delay_ms(distance_km, speed_km_s)
    if quantize:
        delay = np.round(delay / NETEM_DELAY_RESOLUTION_MS) * NETEM_DELAY_RESOLUTION_MS
    else:
        delay = np.rint(delay * _DELAY_GRID_INVERSE) * DELAY_GRID_MS
    if np.ndim(delay) == 0:
        return float(delay)
    return delay
