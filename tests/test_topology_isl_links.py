"""Unit tests for ISL topology generation and link parameter computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits import ShellGeometry, constants
from repro.topology import (
    grid_plus_isl_pairs,
    link_delay_counts,
    propagation_delay_ms,
)


class TestGridPlusISL:
    def test_delta_shell_has_two_links_per_satellite(self):
        geometry = ShellGeometry(planes=6, satellites_per_plane=10, altitude_km=550.0,
                                 inclination_deg=53.0, arc_of_ascending_nodes_deg=360.0)
        pairs = grid_plus_isl_pairs(geometry)
        # +GRID: every satellite has 4 links (2 intra-plane, 2 inter-plane),
        # so the undirected link count is 2 * N.
        assert len(pairs) == 2 * geometry.total_satellites

    def test_star_shell_misses_seam_links(self):
        star = ShellGeometry(planes=6, satellites_per_plane=11, altitude_km=780.0,
                             inclination_deg=86.4, arc_of_ascending_nodes_deg=180.0)
        pairs = grid_plus_isl_pairs(star)
        # The seam between the first and last plane removes satellites_per_plane links.
        assert len(pairs) == 2 * star.total_satellites - star.satellites_per_plane

    def test_iridium_seam_has_no_cross_links(self):
        star = ShellGeometry(planes=6, satellites_per_plane=11, altitude_km=780.0,
                             inclination_deg=86.4, arc_of_ascending_nodes_deg=180.0)
        pairs = grid_plus_isl_pairs(star)
        first_plane = np.isin(pairs, np.arange(11))
        last_plane = np.isin(pairs, np.arange(5 * 11, 6 * 11))
        assert not np.any(first_plane[:, 0] & last_plane[:, 1])
        assert not np.any(last_plane[:, 0] & first_plane[:, 1])

    def test_pairs_are_unique_and_ordered(self):
        geometry = ShellGeometry(4, 5, 550.0, 53.0)
        pairs = grid_plus_isl_pairs(geometry)
        assert len(pairs) == len(np.unique(pairs, axis=0))
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_single_plane_ring(self):
        geometry = ShellGeometry(planes=1, satellites_per_plane=8, altitude_km=550.0,
                                 inclination_deg=53.0)
        pairs = grid_plus_isl_pairs(geometry)
        assert len(pairs) == 8

    def test_two_satellite_plane_single_link(self):
        geometry = ShellGeometry(planes=1, satellites_per_plane=2, altitude_km=550.0,
                                 inclination_deg=53.0)
        assert len(grid_plus_isl_pairs(geometry)) == 1

    @settings(max_examples=30, deadline=None)
    @given(planes=st.integers(min_value=2, max_value=12),
           per_plane=st.integers(min_value=3, max_value=20))
    def test_property_every_satellite_has_three_to_four_links(self, planes, per_plane):
        geometry = ShellGeometry(planes, per_plane, 550.0, 53.0,
                                 arc_of_ascending_nodes_deg=180.0)
        pairs = grid_plus_isl_pairs(geometry)
        degree = np.bincount(pairs.ravel(), minlength=geometry.total_satellites)
        # Seam satellites have 3 links, everyone else has 4.
        assert set(np.unique(degree)) <= {3, 4}
        assert np.count_nonzero(degree == 3) == 2 * per_plane


class TestLinkParams:
    def test_propagation_delay_speed_of_light(self):
        # 300 km at c is almost exactly 1 ms.
        assert propagation_delay_ms(299.792458) == pytest.approx(1.0)

    def test_link_delay_vectorised(self):
        counts = link_delay_counts(np.array([300.0, 600.0]))
        assert counts.shape == (2,) and counts.dtype == np.uint32
        assert int(counts[1]) - 2 * int(counts[0]) in (-1, 0, 1)

    def test_meetup_example_delays(self):
        # Sanity-check the paper's Fig. 3 numbers: Accra to Johannesburg is
        # roughly 4,500 km away; a one-way trip over the satellite network
        # at c plus up/down links lands in the tens of milliseconds.
        distance = 4500.0
        assert 10.0 < propagation_delay_ms(distance) < 20.0
