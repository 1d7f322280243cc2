"""Unit tests for the bounding box, address calculation and DNS components."""

import ipaddress

import numpy as np
import pytest

from repro.core import BoundingBox, CelestialDNS, DNSError
from repro.core.addressing import machine_ip, network_for
from repro.orbits import ecef_to_geodetic, geodetic_to_ecef


class TestBoundingBox:
    def test_contains_simple(self):
        box = BoundingBox(-5.0, 20.0, -15.0, 20.0)
        assert box.contains(5.0, 0.0)
        assert not box.contains(30.0, 0.0)
        assert not box.contains(5.0, 40.0)

    def test_contains_vectorised(self):
        box = BoundingBox(-5.0, 20.0, -15.0, 20.0)
        result = box.contains(np.array([0.0, 50.0]), np.array([0.0, 0.0]))
        assert result.tolist() == [True, False]

    def test_antimeridian_wrap(self):
        box = BoundingBox(-40.0, 50.0, 150.0, -120.0)
        assert box.wraps_antimeridian
        assert box.contains(0.0, 170.0)
        assert box.contains(0.0, -170.0)
        assert not box.contains(0.0, 0.0)

    def test_whole_earth(self):
        box = BoundingBox(-90.0, 90.0, -180.0, 180.0)
        assert box.contains(89.0, 179.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundingBox(10.0, 5.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            BoundingBox(-95.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 10.0, -200.0, 10.0)


class TestContainsEcef:
    """The certified geocentric bound must reproduce the exact geodetic
    verdicts element for element (the differential pipeline relies on it)."""

    BOXES = [
        BoundingBox(-2.0, 16.0, -8.0, 18.0),        # §4 West-Africa box
        BoundingBox(-35.0, 35.0, -180.0, -100.0),   # Pacific
        BoundingBox(10.0, 60.0, 170.0, -170.0),     # antimeridian wrap
        BoundingBox(-90.0, -60.0, -180.0, 180.0),   # polar cap
        BoundingBox(-90.0, 90.0, -180.0, 180.0),    # whole Earth
    ]

    def _exact(self, box, positions):
        lat, lon, _ = ecef_to_geodetic(positions)
        return box.contains(lat, lon)

    def test_random_leo_points_match_exact_path(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20000, 3))
        points /= np.sqrt((points * points).sum(axis=1, keepdims=True))
        points *= rng.uniform(6650.0, 7950.0, (points.shape[0], 1))
        for box in self.BOXES:
            assert np.array_equal(box.contains_ecef(points), self._exact(box, points))

    def test_dense_sweep_across_latitude_edges(self):
        # Points packed tightly around the box latitude edges, inside the
        # uncertainty band of the geocentric bound, at several altitudes.
        box = self.BOXES[0]
        for altitude in (0.0, 550.0, 1325.0):
            for edge in (box.lat_min, box.lat_max):
                lats = np.linspace(edge - 0.6, edge + 0.6, 4001)
                lons = np.linspace(-10.0, 20.0, 4001)
                points = geodetic_to_ecef(lats, lons, altitude)
                assert np.array_equal(
                    box.contains_ecef(points), self._exact(box, points)
                )

    def test_scalar_input(self):
        box = self.BOXES[0]
        inside = geodetic_to_ecef(5.0, 3.0, 550.0)
        outside = geodetic_to_ecef(30.0, 3.0, 550.0)
        assert box.contains_ecef(inside) is True
        assert box.contains_ecef(outside) is False

    def test_subsurface_points_fall_back_to_exact(self):
        # The margin is only certified at or above the surface; points
        # below must still get exact verdicts via the fallback.
        box = self.BOXES[0]
        lats = np.linspace(-4.0, 18.0, 101)
        points = geodetic_to_ecef(lats, np.full_like(lats, 5.0), -500.0)
        assert np.array_equal(box.contains_ecef(points), self._exact(box, points))


class TestClearance:
    """``clearance_km`` is a certified lower bound on the distance to every
    surface where the verdict can change (the differential pipeline reuses
    a verdict while a satellite's motion stays within it)."""

    BOXES = TestContainsEcef.BOXES

    def test_a_move_within_the_clearance_keeps_the_verdict(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20000, 3))
        points /= np.sqrt((points * points).sum(axis=1, keepdims=True))
        points *= rng.uniform(6650.0, 7950.0, (points.shape[0], 1))
        for box in self.BOXES:
            clearance = box.clearance_km(points)
            keep = clearance > 0.0
            steps = rng.normal(size=points.shape)
            steps /= np.sqrt((steps * steps).sum(axis=1, keepdims=True))
            steps *= (np.maximum(clearance, 0.0) * rng.uniform(0.0, 1.0, clearance.size))[:, None]
            moved = points + steps
            assert keep.mean() > 0.9
            assert np.array_equal(box.contains_ecef(moved)[keep], box.contains_ecef(points)[keep])

    @pytest.mark.parametrize("offset_deg", [-0.1, -0.01, 0.01, 0.1])
    def test_it_is_the_distance_to_the_nearest_edge(self, offset_deg):
        box = self.BOXES[0]  # lon -8…18: its latitude edges are nearest at lon 5
        for altitude in (0.0, 550.0, 1325.0):
            for edge in (box.lat_min, box.lat_max):
                point = geodetic_to_ecef(edge + offset_deg, 5.0, altitude)
                # The edge's normal line through the point's meridian, densely.
                line = geodetic_to_ecef(
                    np.full(4001, edge), np.full(4001, 5.0), altitude + np.linspace(-40, 40, 4001)
                )
                distance = np.sqrt(((line - point) ** 2).sum(axis=1)).min()
                (clearance,) = box.clearance_km(point)
                assert distance - 0.01 < clearance <= distance
            for edge in (box.lon_min, box.lon_max):
                point = geodetic_to_ecef(5.0, edge + offset_deg, altitude)
                across = np.hypot(point[0], point[1]) * np.sin(np.radians(abs(offset_deg)))
                (clearance,) = box.clearance_km(point)
                assert across - 0.01 < clearance <= across

    def test_near_the_axis_no_point_is_farther_from_a_meridian_than_from_the_axis(self):
        lons = np.linspace(-180.0, 180.0, 361)
        for lat in (-89.99, 89.99):
            points = geodetic_to_ecef(np.full_like(lons, lat), lons, 550.0)
            for box in self.BOXES:
                assert (box.clearance_km(points) <= np.hypot(points[:, 0], points[:, 1])).all()

    def test_points_on_an_edge_certify_nothing(self):
        for box in self.BOXES:
            lats = np.linspace(-90.0, 90.0, 37)
            lons = np.linspace(-180.0, 180.0, 73)
            edges = [
                *(geodetic_to_ecef(lats, np.full_like(lats, lon), 550.0)
                  for lon in (box.lon_min, box.lon_max)),
                *(geodetic_to_ecef(np.full_like(lons, lat), lons, 550.0)
                  for lat in (box.lat_min, box.lat_max)),
            ]
            for points in edges:
                assert (box.clearance_km(points) <= 0.0).all()


class TestAddressing:
    def test_machine_and_gateway_in_same_block(self):
        shell_sizes = [66]
        network = network_for(shell_sizes, 0, 10)
        # A /30 block: .1 is the host-side gateway, .2 the machine.
        assert network.prefixlen == 30
        assert machine_ip(shell_sizes, 0, 10) == network[2] != network[1]

    def test_addresses_are_unique(self):
        # Over the phase I Starlink address space, ground stations included
        # (the virtual shell after all satellite shells).
        shell_sizes = [1584, 1600, 400, 375, 450]
        pairs = [
            (shell, identifier)
            for shell, size in enumerate(shell_sizes + [10])
            for identifier in range(size)
        ]
        addresses = {machine_ip(shell_sizes, shell, identifier) for shell, identifier in pairs}
        assert len(addresses) == len(pairs) == 4409 + 10

    def test_invalid_lookups(self):
        with pytest.raises(IndexError):
            machine_ip([10], 0, 99)
        with pytest.raises(IndexError):
            machine_ip([10], 5, 0)

    def test_all_addresses_in_10_slash_8(self):
        shell_sizes = [100]
        network = ipaddress.IPv4Network("10.0.0.0/8")
        assert machine_ip(shell_sizes, 0, 99) in network


class TestDNS:
    def _dns(self):
        return CelestialDNS(shell_sizes=[66, 100], ground_station_names=["Accra", "abuja"])

    def test_resolve_satellite(self):
        dns = self._dns()
        address = dns.resolve("10.0.celestial")
        assert str(address).startswith("10.")
        assert dns.resolve("10.0.celestial") != dns.resolve("10.1.celestial")

    def test_paper_example_name(self):
        # §3.2: "878.0.celestial" resolves satellite 878 in the first shell.
        dns = CelestialDNS(shell_sizes=[1584], ground_station_names=[])
        assert dns.resolve("878.0.celestial") == machine_ip([1584], 0, 878)

    def test_resolve_ground_station_both_orders(self):
        dns = self._dns()
        assert dns.resolve("accra.gst.celestial") == dns.resolve("gst.accra.celestial")

    def test_a_record(self):
        dns = self._dns()
        record = dns.a_record("3.0.celestial")
        assert record["type"] == "A"
        assert record["address"] == str(dns.resolve("3.0.celestial"))

    def test_canonical_names(self):
        dns = self._dns()
        assert dns.resolve("42.1.celestial") == machine_ip([66, 100], 1, 42)
        assert dns.resolve("ABUJA.gst.celestial.") == machine_ip([66, 100], 2, 1)
        assert dns.resolve("gst.accra.celestial") == machine_ip([66, 100], 2, 0)
        with pytest.raises(DNSError):
            dns.resolve("lagos.gst.celestial")

    def test_unknown_names(self):
        dns = self._dns()
        with pytest.raises(DNSError):
            dns.resolve("999.0.celestial")
        with pytest.raises(DNSError):
            dns.resolve("1.9.celestial")
        with pytest.raises(DNSError):
            dns.resolve("lagos.gst.celestial")
        with pytest.raises(DNSError):
            dns.resolve("example.com")
