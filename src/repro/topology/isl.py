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

The pair list of a shell is static — only link distances/delays change as
satellites move — which is why the constellation calculation precomputes the
pairs once (as flat node-index arrays) and reuses them for every snapshot.
"""

from __future__ import annotations

from repro.orbits.shells import ShellGeometry


def grid_plus_isl_pairs(geometry: ShellGeometry) -> list[tuple[int, int]]:
    """Return the +GRID ISL pairs of a shell as flat in-shell identifiers.

    Each pair ``(a, b)`` satisfies ``a < b``; links are undirected and listed
    exactly once, ascending — the shell's part of the canonical link order.
    """
    planes = geometry.planes
    per_plane = geometry.satellites_per_plane
    pairs: set[tuple[int, int]] = set()

    def flat(plane: int, index: int) -> int:
        return plane * per_plane + index

    for plane in range(planes):
        for index in range(per_plane):
            this = flat(plane, index)
            # Intra-plane link to the successor (rings close within a plane
            # whenever there is more than one satellite in it).
            if per_plane > 1:
                successor = flat(plane, (index + 1) % per_plane)
                if successor != this:
                    pairs.add((min(this, successor), max(this, successor)))
            # Inter-plane link to the same slot in the next plane.  For a
            # Walker-star shell the last and first planes form a seam across
            # which no ISL is possible.
            if planes > 1:
                next_plane = plane + 1
                if next_plane >= planes:
                    if geometry.is_polar_star:
                        continue
                    next_plane = 0
                neighbor = flat(next_plane, index)
                pairs.add((min(this, neighbor), max(this, neighbor)))
    return sorted(pairs)
