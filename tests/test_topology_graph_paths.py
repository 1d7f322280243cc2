"""Unit tests for the network graph, uplink selection and shortest paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits import Shell, ShellGeometry, GroundStation, constants, geodetic_to_ecef
from repro.orbits.visibility import elevation_angle_matrix_deg
from repro.topology import (
    LinkType,
    NetworkGraph,
    NodeIndex,
    ShortestPaths,
    visible_satellites,
    visible_satellites_batch,
)
from repro.topology.graph import _CODE_BY_LINK_TYPE
from repro.topology.linkparams import DELAY_GRID_MS, link_delay_counts


def _simple_index():
    return NodeIndex(shell_sizes=[4], ground_station_names=["gst-a", "gst-b"])


def _counts(delays_ms):
    """The delay-grid counts nearest to ``delays_ms``."""
    return np.rint(np.asarray(delays_ms, dtype=np.float64) / DELAY_GRID_MS).astype(np.uint32)


def _graph(index, rows):
    """Graph from ``(node_a, node_b, distance_km, delay_ms, bandwidth_kbps[, LinkType])``
    rows, each delay on the nearest grid count."""
    rows = [row if len(row) == 6 else (*row, LinkType.ISL) for row in rows]
    columns = list(zip(*rows)) or [()] * 6
    return NetworkGraph.from_edge_arrays(
        index,
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.float64),
        _counts(columns[3]),
        np.array(columns[4], dtype=np.float64),
        np.array([_CODE_BY_LINK_TYPE[kind] for kind in columns[5]], dtype=np.int8),
    )


def _line_graph():
    """0 -1ms- 1 -2ms- 2 -3ms- 3, gst-a connected to 0, gst-b connected to 3."""
    index = _simple_index()
    delays = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 3.0}
    rows = [(a, b, delay * 300.0, delay, 10_000.0) for (a, b), delay in delays.items()]
    rows.append((index.ground_station("gst-a"), 0, 300.0, 1.0, 10_000.0, LinkType.UPLINK))
    rows.append((index.ground_station("gst-b"), 3, 300.0, 1.0, 10_000.0, LinkType.UPLINK))
    return index, _graph(index, rows)


class TestNodeIndex:
    def test_flat_indices(self):
        index = NodeIndex(shell_sizes=[3, 5], ground_station_names=["x"])
        assert index.satellite(0, 0) == 0
        assert index.satellite(0, 2) == 2
        assert index.satellite(1, 0) == 3
        assert index.satellite(1, 4) == 7
        assert index.ground_station("x") == 8
        assert len(index) == 9

    def test_describe_roundtrip(self):
        index = NodeIndex(shell_sizes=[3, 5], ground_station_names=["x", "y"])
        assert index.describe(4) == ("sat", 1, 1)
        assert index.describe(9) == ("gst", -1, "y")

    def test_ranges(self):
        index = NodeIndex(shell_sizes=[3, 5], ground_station_names=["x", "y"])
        assert list(index.satellites_of_shell(1)) == [3, 4, 5, 6, 7]
        assert list(index.ground_station_indices()) == [8, 9]
        assert index.is_satellite(0) and not index.is_ground_station(0)
        assert index.is_ground_station(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeIndex([3], ["a", "a"])
        with pytest.raises(ValueError):
            NodeIndex([0], [])
        index = _simple_index()
        with pytest.raises(IndexError):
            index.satellite(0, 99)
        with pytest.raises(IndexError):
            index.satellite(5, 0)
        with pytest.raises(KeyError):
            index.ground_station("nope")
        with pytest.raises(IndexError):
            index.describe(100)


class TestNetworkGraph:
    def test_add_and_query_links(self):
        index, graph = _line_graph()
        assert graph.total_links() == 5
        edge, missing = graph.edge_ids_between([0, 0], [1, 3])
        assert graph.delays_ms[edge] == 1.0
        assert graph.bandwidths_kbps[edge] == 10_000.0
        assert missing == -1
        gst_a = index.ground_station("gst-a")
        uplink = graph.edge_ids_between([0], [gst_a])[0]
        # Stored lower node first, in the canonical order: (0, 1), (0, gst-a),
        # (1, 2), (2, 3), (3, gst-b).
        assert (graph.node_a[uplink], graph.node_b[uplink]) == (0, gst_a)
        assert graph.link_type_codes.tolist() == [0, 1, 0, 0, 1]

    def test_invalid_links_rejected(self):
        index = _simple_index()
        with pytest.raises(ValueError):
            _graph(index, [(0, 0, 1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            _graph(index, [(0, 99, 1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            _graph(index, [(-1, 2, 1.0, 1.0, 1.0)])

    def test_from_edge_arrays_is_the_only_constructor(self):
        with pytest.raises(TypeError):
            NetworkGraph(_simple_index())

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_from_edge_arrays_refuses_delays_that_are_not_uint32_counts(self, dtype):
        ones = np.ones(2)
        with pytest.raises(ValueError, match="uint32 grid counts"):
            NetworkGraph.from_edge_arrays(
                _simple_index(),
                np.array([0, 1]),
                np.array([1, 2]),
                ones,
                np.array([1, 2], dtype=dtype),
                ones,
                np.zeros(2, dtype=np.int8),
            )

    def test_link_delay_counts_refuse_a_count_that_reaches_2_to_the_32(self):
        """2**32 grid counts are 4096 ms, some 1.23 million km at ``c``."""
        km_per_count = DELAY_GRID_MS / 1000.0 * constants.SPEED_OF_LIGHT_KM_S
        last = link_delay_counts(np.array([0.0, (2**32 - 1) * km_per_count]))
        assert last.dtype == np.uint32 and last.tolist() == [0, 2**32 - 1]
        for distance_km in (2**32 * km_per_count, [300.0, 2**33 * km_per_count], np.nan):
            with pytest.raises(ValueError, match="does not fit uint32"):
                link_delay_counts(distance_km)

    def test_delay_matrix_symmetric(self):
        _, graph = _line_graph()
        matrix = graph.delay_matrix().toarray()
        np.testing.assert_allclose(matrix, matrix.T)
        assert matrix[0, 1] == 1.0

    def test_empty_graph_delay_matrix(self):
        graph = _graph(_simple_index(), [])
        assert graph.total_links() == 0
        assert graph.delay_matrix().nnz == 0
        assert graph.edge_ids_between([0], [1]).tolist() == [-1]

    def test_bulk_add_links_validation(self):
        """The bulk constructor rejects endpoint arrays of unequal length."""
        index = _simple_index()
        values = np.ones(2)
        with pytest.raises(ValueError, match="equal length"):
            NetworkGraph.from_edge_arrays(
                index,
                np.array([0, 1]),
                np.array([1]),
                values,
                np.ones(2, dtype=np.uint32),
                values,
                np.zeros(2, dtype=np.int8),
            )

    def test_zero_delay_link_is_not_dropped(self):
        """Regression: csgraph treats explicit zeros as no-edge, which made
        co-located nodes (zero-delay links) unreachable."""
        index = _simple_index()
        graph = _graph(index, [(0, 1, 0.0, 0.0, 1000.0), (1, 2, 300.0, 1.0, 1000.0)])
        assert graph.delay_matrix()[0, 1] > 0.0
        for method in ("dijkstra", "floyd-warshall"):
            paths = ShortestPaths(graph, sources=[0], method=method)
            assert paths.reachable(0, 1)
            assert paths.delay_ms(0, 1) == pytest.approx(0.0, abs=1e-6)
            assert paths.path(0, 1).hops == (0, 1)
            assert paths.delay_ms(0, 2) == pytest.approx(1.0, abs=1e-6)
            assert paths.path(0, 2).hops == (0, 1, 2)

    def test_duplicate_links_keep_minimum_delay(self):
        """Regression: duplicate node pairs were silently summed by the
        COO→CSR construction of delay_matrix, inflating delays.  The one
        constructor does not pick a survivor any more — a pair given twice,
        in either orientation, is rejected."""
        index = _simple_index()
        with pytest.raises(ValueError):
            _graph(index, [(0, 1, 1500.0, 5.0, 1000.0), (0, 1, 600.0, 2.0, 2000.0)])
        with pytest.raises(ValueError):
            _graph(index, [(0, 1, 1500.0, 5.0, 1000.0), (1, 0, 900.0, 3.0, 3000.0)])

    def test_edge_arrays_are_read_only(self):
        """The graph's arrays cannot be written; the caller's own array
        keeps its flag."""
        index = _simple_index()
        delays = _counts([1.0, 2.0])
        graph = NetworkGraph.from_edge_arrays(
            index,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([300.0, 600.0]),
            delays,
            np.array([1000.0, 1000.0]),
            np.zeros(2, dtype=np.int8),
        )
        for array in (
            graph.node_a,
            graph.node_b,
            graph.distances_km,
            graph.delay_counts,
            graph.delays_ms,
            graph.bandwidths_kbps,
            graph.link_type_codes,
        ):
            with pytest.raises(ValueError):
                array[0] = 1
        assert graph.delays_ms.tolist() == [1.0, 2.0]  # derived from the counts
        assert delays.flags.writeable
        delays[0] = 7  # still the caller's array

    def test_edge_ids_between_vectorized_lookup(self):
        index, graph = _line_graph()
        edges = graph.edge_ids_between(np.array([0, 1, 0]), np.array([1, 2, 3]))
        assert edges[0] >= 0 and edges[1] >= 0
        assert edges[2] == -1
        assert graph.delays_ms[edges[0]] == 1.0
        assert graph.delays_ms[edges[1]] == 2.0


class TestShortestPaths:
    def test_end_to_end_delay(self):
        index, graph = _line_graph()
        paths = ShortestPaths(graph, sources=[index.ground_station("gst-a")])
        gst_a = index.ground_station("gst-a")
        gst_b = index.ground_station("gst-b")
        assert paths.delay_ms(gst_a, gst_b) == pytest.approx(1.0 + 1.0 + 2.0 + 3.0 + 1.0)
        assert paths.rtt_ms(gst_a, gst_b) == pytest.approx(16.0)

    def test_path_reconstruction(self):
        index, graph = _line_graph()
        gst_a = index.ground_station("gst-a")
        gst_b = index.ground_station("gst-b")
        paths = ShortestPaths(graph, sources=[gst_a])
        result = paths.path(gst_a, gst_b)
        assert result.hops == (gst_a, 0, 1, 2, 3, gst_b)
        assert result.hop_count == 5
        assert result.reachable

    def test_unreachable_node(self):
        index = NodeIndex([2], ["isolated"])
        graph = _graph(index, [(0, 1, 300.0, 1.0, 1000.0)])
        paths = ShortestPaths(graph, sources=[0])
        isolated = index.ground_station("isolated")
        assert not paths.reachable(0, isolated)
        assert paths.path(0, isolated).hops == ()
        assert not paths.path(0, isolated).reachable

    def test_self_path(self):
        index, graph = _line_graph()
        paths = ShortestPaths(graph, sources=[0])
        result = paths.path(0, 0)
        assert result.delay_ms == 0.0
        assert result.hops == (0,)

    def test_dijkstra_and_floyd_warshall_agree(self):
        index, graph = _line_graph()
        dijkstra = ShortestPaths(graph, method="dijkstra")
        floyd = ShortestPaths(graph, method="floyd-warshall")
        for a in range(len(index)):
            for b in range(len(index)):
                assert dijkstra.delay_ms(a, b) == pytest.approx(floyd.delay_ms(a, b))

    def test_unknown_method_and_sources_validation(self):
        index, graph = _line_graph()
        with pytest.raises(ValueError):
            ShortestPaths(graph, method="bellman-ford")
        with pytest.raises(ValueError):
            ShortestPaths(graph, sources=[])
        with pytest.raises(ValueError):
            ShortestPaths(graph, sources=[999])
        paths = ShortestPaths(graph, sources=[0])
        with pytest.raises(KeyError):
            paths.delay_ms(1, 2)

    def test_delays_from_vector(self):
        index, graph = _line_graph()
        paths = ShortestPaths(graph, sources=[0])
        delays = paths.delays_from(0)
        assert delays.shape == (len(index),)
        assert delays[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_property_path_hop_delays_sum_to_delay(edges):
    """The delay of every reconstructed path equals the sum of its hop delays
    (up to the zero-delay epsilon clamp of the delay matrix)."""
    index = NodeIndex(shell_sizes=[6], ground_station_names=[])
    delays = {}
    for node_a, node_b, delay in edges:
        if node_a != node_b:
            delays.setdefault((min(node_a, node_b), max(node_a, node_b)), delay)
    if not delays:
        return
    graph = _graph(index, [(a, b, d * 300.0, d, 1000.0) for (a, b), d in delays.items()])
    paths = ShortestPaths(graph, sources=[0])
    for target in range(len(index)):
        result = paths.path(0, target)
        if not result.reachable:
            continue
        hop_edges = graph.edge_ids_between(result.hops[:-1], result.hops[1:])
        assert np.all(hop_edges >= 0)
        hop_sum = float(graph.delays_ms[hop_edges].sum())
        assert result.delay_ms == pytest.approx(hop_sum, abs=1e-6)
        assert result.delay_ms == pytest.approx(paths.delay_ms(0, target))


_EDGE_SETS = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda pair: pair[0] < pair[1]),
    st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([10.0, 20.0]), st.booleans()),
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(_EDGE_SETS, _EDGE_SETS)
def test_property_lookup_and_diff_reassemble_the_edge_set(old_edges, new_edges):
    """``edge_ids_between`` finds exactly the present pairs, in both
    orientations, and ``new.diff_from(old)`` rebuilds ``new`` from ``old``."""
    index = NodeIndex(shell_sizes=[8], ground_station_names=[])

    def build(edges):
        # ``flip`` stores the pair as (high, low): orientation must not matter.
        return _graph(
            index,
            [
                (b, a, delay * 300.0, delay, bandwidth) if flip
                else (a, b, delay * 300.0, delay, bandwidth)
                for (a, b), (delay, bandwidth, flip) in edges.items()
            ],
        )

    old, new = build(old_edges), build(new_edges)
    all_a, all_b = np.triu_indices(len(index), k=1)
    for lookup in (new.edge_ids_between(all_a, all_b), new.edge_ids_between(all_b, all_a)):
        for a, b, edge in zip(all_a.tolist(), all_b.tolist(), lookup.tolist()):
            assert (edge >= 0) == ((a, b) in new_edges)
            if edge >= 0:
                assert {int(new.node_a[edge]), int(new.node_b[edge])} == {a, b}

    diff = new.diff_from(old)

    def endpoints(graph, edges):
        return zip(graph.node_a[edges].tolist(), graph.node_b[edges].tolist())

    def pairs(graph, edges):
        return {(min(a, b), max(a, b)) for a, b in endpoints(graph, edges)}

    added, removed = pairs(new, diff.links_added), pairs(old, diff.links_removed)
    assert added == set(new_edges) - set(old_edges)
    assert removed == set(old_edges) - set(new_edges)
    assert (set(old_edges) - removed) | added == set(new_edges)
    assert not removed & set(new_edges)
    surviving = set(old_edges) & set(new_edges)
    assert pairs(new, diff.delay_changed) == {
        pair for pair in surviving if old_edges[pair][0] != new_edges[pair][0]
    }
    assert pairs(new, diff.bandwidth_changed) == {
        pair for pair in surviving if old_edges[pair][1] != new_edges[pair][1]
    }
    for (a, b), delay in zip(
        endpoints(new, diff.delay_changed), new.delays_ms[diff.delay_changed].tolist()
    ):
        assert delay == new_edges[(min(a, b), max(a, b))][0]
    for (a, b), bandwidth in zip(
        endpoints(new, diff.bandwidth_changed),
        new.bandwidths_kbps[diff.bandwidth_changed].tolist(),
    ):
        assert bandwidth == new_edges[(min(a, b), max(a, b))][1]
    assert (diff.structural_change_count == 0) == (set(old_edges) == set(new_edges))


class TestUplinks:
    def test_visible_satellites_directly_overhead(self):
        shell = Shell(ShellGeometry(6, 11, 780.0, 86.4, 180.0))
        positions = shell.positions_eci(0.0)
        ground = geodetic_to_ecef(0.0, 0.0, 0.0)
        visible, distances = visible_satellites(ground, positions, min_elevation_deg=10.0)
        assert visible.size > 0
        # Slant range can be marginally below the nominal altitude because the
        # WGS-84 equatorial radius exceeds the spherical radius used for the shell.
        assert np.all(distances >= 770.0)
        assert np.all(distances < 3500.0)

    def test_higher_min_elevation_reduces_visibility(self):
        shell = Shell(ShellGeometry(6, 11, 780.0, 86.4, 180.0))
        positions = shell.positions_eci(0.0)
        ground = geodetic_to_ecef(30.0, 45.0, 0.0)
        lenient, _ = visible_satellites(ground, positions, min_elevation_deg=5.0)
        strict, _ = visible_satellites(ground, positions, min_elevation_deg=60.0)
        assert strict.size <= lenient.size

    def test_batch_table_equals_per_pair_bit_for_bit(self):
        """The flat (station, satellite, range) table holds, per station,
        exactly what the per-pair reference returns — with per-station and
        per-pair thresholds and a precomputed elevation matrix."""
        positions = Shell(ShellGeometry(6, 11, 780.0, 86.4, 180.0)).positions_eci(0.0)
        grounds = np.stack(
            [
                geodetic_to_ecef(latitude, longitude, 0.0)
                for latitude, longitude in ((0.0, 0.0), (30.0, 45.0), (-60.0, 120.0), (89.0, 0.0))
            ]
        )
        thresholds = np.array([10.0, 5.0, 89.9, 25.0])  # the third station sees nothing

        def assert_reference(table, min_elevations_deg):
            stations, satellites, ranges_km = table
            assert stations.shape == satellites.shape == ranges_km.shape
            assert np.all(np.diff(stations) >= 0)
            for row, (ground, threshold) in enumerate(zip(grounds, min_elevations_deg)):
                visible, distances = visible_satellites(ground, positions, threshold)
                mine = stations == row
                assert satellites[mine].tobytes() == visible.tobytes()
                assert ranges_km[mine].tobytes() == distances.tobytes()

        table = visible_satellites_batch(grounds, positions, thresholds)
        assert_reference(table, thresholds)
        assert set(table[0].tolist()) == {0, 1, 3}
        matrix = elevation_angle_matrix_deg(grounds, positions)
        assert_reference(
            visible_satellites_batch(grounds, positions, thresholds, elevations_deg=matrix),
            thresholds,
        )
        # One threshold for every station.
        assert_reference(visible_satellites_batch(grounds, positions, 40.0), [40.0] * 4)
        # One threshold per pair: the satellites fall in two "shells" with
        # their own minimum, and the second station overrides both.
        pairwise = np.where(np.arange(positions.shape[0]) < 30, 5.0, 20.0) + np.zeros((4, 1))
        pairwise[1] = 12.5
        assert_reference(visible_satellites_batch(grounds, positions, pairwise), pairwise)

    def test_no_visible_satellite_returns_none(self):
        # A single-satellite shell on the other side of the planet.
        shell = Shell(ShellGeometry(1, 1, 550.0, 0.0))
        positions = shell.positions_eci(0.0)
        antipode = geodetic_to_ecef(0.0, 180.0, 0.0)
        _, visible, _ = visible_satellites_batch(antipode, positions, 25.0)
        assert visible.size == 0
