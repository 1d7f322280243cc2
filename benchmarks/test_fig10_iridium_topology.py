"""Figs. 9-10 — the DART/Iridium topology of the case study.

Paper description: 100 data buoys in the Pacific send sensor data over the
Iridium constellation (66 satellites, 6 planes, 780 km, polar orbit, 180° arc
of ascending nodes) to 200 ships and islands; because of the 180° spacing no
ISLs exist between the first and last orbital plane.  The benchmark builds
that topology, verifies the seam property and times a constellation update
at the case-study scale (66 satellites + 301 ground stations).
"""

from repro.analysis import render_table
from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration
from repro.topology import LinkType
from repro.topology.graph import _LINK_TYPE_BY_CODE


def test_fig10_iridium_dart_topology(benchmark):
    config = dart_configuration(buoy_count=100, sink_count=200)
    calculation = ConstellationCalculation(config)

    state = benchmark(calculation.state_at, 0.0)

    graph = state.graph
    types = [_LINK_TYPE_BY_CODE[code] for code in graph.link_type_codes]
    endpoints = list(zip(graph.node_a.tolist(), graph.node_b.tolist()))
    isl_links = [pair for pair, kind in zip(endpoints, types) if kind is LinkType.ISL]
    uplinks = [pair for pair, kind in zip(endpoints, types) if kind is LinkType.UPLINK]
    geometry = config.shells[0].geometry

    # Seam check: no ISL connects plane 0 and plane 5.
    per_plane = geometry.satellites_per_plane
    first_plane = set(range(per_plane))
    last_plane = set(range((geometry.planes - 1) * per_plane, geometry.planes * per_plane))
    seam_links = [
        (a, b) for a, b in isl_links
        if (a in first_plane and b in last_plane)
        or (b in first_plane and a in last_plane)
    ]

    rows = [
        ["satellites", state.node_index.satellite_count, 66],
        ["orbital planes", geometry.planes, 6],
        ["altitude [km]", geometry.altitude_km, 780],
        ["arc of ascending nodes [deg]", geometry.arc_of_ascending_nodes_deg, 180],
        ["ground stations (buoys + sinks + PTWC)", len(config.ground_stations), 301],
        ["inter-satellite links", len(isl_links), "<= 2N - 11 (seam)"],
        ["links across the seam", len(seam_links), 0],
        ["ground-to-satellite links", len(uplinks), "> 0"],
    ]
    print()
    print(render_table(["property", "measured", "paper"], rows,
                       title="Fig. 10 — Iridium/DART topology"))

    assert state.node_index.satellite_count == 66
    assert len(config.ground_stations) == 301
    assert len(seam_links) == 0
    assert len(isl_links) <= 2 * 66 - 11
    assert len(uplinks) > 100
