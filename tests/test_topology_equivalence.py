"""Old-vs-new ``NetworkGraph`` equivalence over real scenarios.

The array-backed topology core (CSR adjacency + vectorised snapshot
construction) must be an observable no-op: for the Iridium (DART, §5) and
Starlink (§4 meetup) scenarios it has to produce the same link set, the same
shortest-path delays, the same reconstructed paths and the same bottleneck
bandwidths as the seed implementation, which stored a Python list of
per-link dataclasses and built its delay matrix with per-link loops.

The legacy reference below replicates the seed behaviour (including its COO
construction) over a list of per-link records read from the graph's edge
arrays, so any divergence in the array core shows up as a mismatch here.
"""

from collections import namedtuple

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from repro.core import ConstellationCalculation
from repro.scenarios import dart_configuration, west_africa_configuration


_Link = namedtuple("_Link", "node_a node_b delay_ms bandwidth_kbps")


def _legacy_links(graph):
    """The seed's storage: one record per link, in edge-id order."""
    return [
        _Link(*row)
        for row in zip(
            graph.node_a.tolist(),
            graph.node_b.tolist(),
            graph.delays_ms.tolist(),
            graph.bandwidths_kbps.tolist(),
        )
    ]


def _legacy_delay_matrix(links, node_count):
    """Seed implementation: per-link Python loop building a COO matrix."""
    if not links:
        return sparse.csr_matrix((node_count, node_count))
    rows, cols, data = [], [], []
    for link in links:
        rows.extend((link.node_a, link.node_b))
        cols.extend((link.node_b, link.node_a))
        data.extend((link.delay_ms, link.delay_ms))
    return sparse.csr_matrix((data, (rows, cols)), shape=(node_count, node_count))


def _legacy_link_between(links, node_a, node_b):
    """Seed implementation: O(E) linear scan."""
    for link in links:
        if {link.node_a, link.node_b} == {node_a, node_b}:
            return link
    return None


def _legacy_bottleneck_bandwidth(links, hops):
    """Seed implementation of the bottleneck bandwidth: O(hops * E) scans."""
    bandwidths = []
    for hop_a, hop_b in zip(hops, hops[1:]):
        link = _legacy_link_between(links, hop_a, hop_b)
        if link is not None:
            bandwidths.append(link.bandwidth_kbps)
    return min(bandwidths) if bandwidths else 0.0


def _assert_state_matches_legacy(calculation, state):
    graph = state.graph
    links = _legacy_links(graph)
    node_count = len(state.node_index)
    sources = list(state.node_index.ground_station_indices())
    assert sources, "equivalence scenarios must have ground stations"

    # Same edge set, the sorted-key pair lookup agrees with the O(E) scan.
    legacy_matrix = _legacy_delay_matrix(links, node_count)
    assert graph.total_links() == len(links)
    for link in links[:: max(1, len(links) // 50)]:
        for a, b in ((link.node_a, link.node_b), (link.node_b, link.node_a)):
            found = links[graph.edge_ids_between([a], [b])[0]]
            assert found == link
            assert found == _legacy_link_between(links, a, b)

    # Same shortest-path delays as Dijkstra over the seed delay matrix.
    legacy_distances = csgraph.dijkstra(legacy_matrix, directed=False, indices=sources)
    for row, source in enumerate(sources):
        new_delays = state.paths.delays_from(source)
        np.testing.assert_allclose(new_delays, legacy_distances[row], atol=1e-6)

    # Same paths and bottleneck bandwidths for ground-station pairs and a
    # sample of ground-station → satellite pairs.
    machines = list(calculation.machines())
    ground = [machine for machine in machines if machine.is_ground_station]
    satellites = [machine for machine in machines if machine.is_satellite]
    targets = ground + satellites[:: max(1, len(satellites) // 25)]
    for source_machine in ground[:4]:
        for target_machine in targets:
            result = state.path(source_machine, target_machine)
            if not result.reachable:
                continue
            hop_sum = sum(
                _legacy_link_between(links, a, b).delay_ms
                for a, b in zip(result.hops, result.hops[1:])
            )
            assert result.delay_ms == pytest.approx(hop_sum, abs=1e-6)
            assert state.bandwidth_kbps(source_machine, target_machine) == pytest.approx(
                _legacy_bottleneck_bandwidth(links, result.hops)
            )


def test_iridium_scenario_equivalent_to_seed():
    config = dart_configuration(buoy_count=8, sink_count=12, duration_s=60.0)
    calculation = ConstellationCalculation(config)
    for time_s in (0.0, 120.0):
        _assert_state_matches_legacy(calculation, calculation.state_at(time_s))


def test_starlink_scenario_equivalent_to_seed():
    config = west_africa_configuration(duration_s=60.0, shells="two-lowest")
    calculation = ConstellationCalculation(config)
    _assert_state_matches_legacy(calculation, calculation.state_at(30.0))


def test_starlink_full_constellation_links_and_delays_stable():
    """Spot-check the full 4,409-satellite constellation used by the benchmark."""
    config = west_africa_configuration(duration_s=60.0, shells="all")
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(10.0)
    assert state.node_index.satellite_count == 4409
    graph = state.graph
    # The arrays and the legacy matrix must agree pairwise.
    legacy_matrix = _legacy_delay_matrix(_legacy_links(graph), len(state.node_index))
    matrix = graph.delay_matrix()
    difference = (matrix - legacy_matrix).tocoo()
    assert np.all(np.abs(difference.data) <= 1e-9)
