"""Inter-satellite link topologies.

Celestial (following Bhattacherjee & Singla) assumes the +GRID pattern:
every satellite keeps a laser link to its predecessor and successor within
its own orbital plane, and one link each to the nearest neighbour in the two
adjacent planes (§2.1).

Walker-star seam behaviour
--------------------------

For Walker-delta shells (e.g. Starlink, ascending nodes spread over 360°)
the inter-plane links wrap around: the last plane links to the first, so
every satellite has exactly four ISLs.  For Walker-star shells such as
Iridium, whose ascending nodes only span 180°, the first and last planes are
counter-rotating: satellites on either side of that seam move in opposite
directions at a relative speed that makes laser links infeasible, so
:func:`grid_plus_isl_pairs` emits **no** pairs between the last and first
plane when ``geometry.is_polar_star`` is set (§5, Fig. 10).  Traffic between
the seam planes must route the long way around the shell, which is exactly
the asymmetry the paper's Fig. 10 Iridium topology shows.

The pairs of a shell are static — only link distances/delays change as
satellites move — which is why the constellation calculation builds them once
per shell, as one ``(K, 2)`` array made by whole-array arithmetic over the
satellites' identifiers, and reuses them for every snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.orbits.shells import ShellGeometry


def grid_plus_isl_pairs(geometry: ShellGeometry) -> np.ndarray:
    """Return the +GRID ISL pairs of a shell as a ``(K, 2)`` int64 array of
    flat in-shell identifiers.

    Each row ``(a, b)`` has ``a < b``; links are undirected and listed exactly
    once, ascending by ``(a, b)`` — the shell's part of the canonical link
    order.  Every satellite proposes a link to its successor in its plane and
    one to the same slot in the next plane, except across a Walker-star
    shell's seam (last plane to first); a ring of one satellite or a shell of
    one plane proposes itself, and a ring of two or a shell of two planes
    proposes each link twice, so self-pairs and repeats are dropped.
    """
    planes, per_plane = geometry.planes, geometry.satellites_per_plane
    count = planes * per_plane
    this = np.arange(count, dtype=np.int64)
    plane, index = np.divmod(this, per_plane)
    successor = plane * per_plane + (index + 1) % per_plane
    neighbour = (plane + 1) % planes * per_plane + index
    across = (plane < planes - 1) | (not geometry.is_polar_star)
    other = np.concatenate([successor, neighbour[across]])
    this = np.concatenate([this, this[across]])
    keys = np.minimum(this, other) * count + np.maximum(this, other)
    keys = np.sort(keys[this != other])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack(np.divmod(keys, count), axis=1)
