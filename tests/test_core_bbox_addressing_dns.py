"""Unit tests for the bounding box, address calculation and DNS components."""

import ipaddress

import numpy as np
import pytest

from repro.core import BoundingBox, CelestialDNS, DNSError
from repro.core.addressing import machine_ip, network_for
from repro.core.constellation import satellite_name
from repro.orbits import ecef_to_geodetic, geodetic_to_ecef
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.topology import NodeIndex
from repro.topology.graph import dns_slug


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


class TestAddressing:
    def test_machine_and_gateway_in_same_block(self):
        index = NodeIndex([66], [])
        network = network_for(index.satellite(0, 10))
        # A /30 block: .1 is the host-side gateway, .2 the machine.
        assert network.prefixlen == 30
        assert machine_ip(index.satellite(0, 10)) == network[2] != network[1]

    def test_addresses_are_unique(self):
        # Over the phase I Starlink address space, ground stations included
        # (they follow all satellite shells in the node index).
        index = NodeIndex([1584, 1600, 400, 375, 450], [f"gst-{n}" for n in range(10)])
        nodes = [
            index.satellite(shell, identifier)
            for shell, size in enumerate(index.shell_sizes)
            for identifier in range(size)
        ] + [index.ground_station(name) for name in index.ground_station_names]
        addresses = {machine_ip(node) for node in nodes}
        assert len(addresses) == len(nodes) == 4409 + 10

    def test_invalid_lookups(self):
        index = NodeIndex([10], [])
        with pytest.raises(IndexError):
            machine_ip(index.satellite(0, 99))
        with pytest.raises(IndexError):
            machine_ip(index.satellite(5, 0))
        with pytest.raises(ValueError):
            machine_ip(-1)
        with pytest.raises(ValueError):
            machine_ip(2**22)

    def test_all_addresses_in_10_slash_8(self):
        network = ipaddress.IPv4Network("10.0.0.0/8")
        assert machine_ip(NodeIndex([100], []).satellite(0, 99)) in network
        assert machine_ip(2**22 - 1) in network

    @pytest.mark.parametrize(
        "build, nodes",
        [
            (lambda: west_africa_configuration(shells="all"), 4414),
            (lambda: dart_configuration("central"), 367),
        ],
        ids=["west-africa-all-shells", "dart"],
    )
    def test_every_node_is_four_per_node_plus_two(self, build, nodes):
        # The scheme of every address, pinned node by node (satellites shell
        # by shell, then the ground stations, one /30 block each), and
        # reached from the machine's DNS name.
        config = build()
        index = NodeIndex(config.shell_sizes, config.ground_station_names)
        dns = CelestialDNS(index)
        names = [
            satellite_name(shell, identifier)
            for shell, size in enumerate(index.shell_sizes)
            for identifier in range(size)
        ] + [f"{dns_slug(name)}.gst.celestial" for name in index.ground_station_names]
        assert len(index) == len(names) == nodes
        base = int(ipaddress.IPv4Address("10.0.0.0"))
        for node, name in enumerate(names):
            assert int(machine_ip(node)) == int(dns.resolve(name)) == base + 4 * node + 2


class TestDNS:
    def _index(self):
        return NodeIndex([66, 100], ["Accra", "abuja"])

    def _dns(self):
        return CelestialDNS(self._index())

    def test_resolve_satellite(self):
        dns = self._dns()
        address = dns.resolve("10.0.celestial")
        assert str(address).startswith("10.")
        assert dns.resolve("10.0.celestial") != dns.resolve("10.1.celestial")

    def test_paper_example_name(self):
        # §3.2: "878.0.celestial" resolves satellite 878 in the first shell.
        index = NodeIndex([1584], [])
        assert CelestialDNS(index).resolve("878.0.celestial") == machine_ip(
            index.satellite(0, 878)
        )

    def test_resolve_ground_station_both_orders(self):
        dns = self._dns()
        assert dns.resolve("accra.gst.celestial") == dns.resolve("gst.accra.celestial")

    def test_a_record(self):
        dns = self._dns()
        record = dns.a_record("3.0.celestial")
        assert record["type"] == "A"
        assert record["address"] == str(dns.resolve("3.0.celestial"))

    def test_canonical_names(self):
        dns, index = self._dns(), self._index()
        assert dns.resolve("42.1.celestial") == machine_ip(index.satellite(1, 42)) == machine_ip(108)
        assert dns.resolve("ABUJA.gst.celestial.") == machine_ip(index.ground_station("abuja"))
        assert dns.resolve("gst.accra.celestial") == machine_ip(index.ground_station("Accra"))
        assert machine_ip(index.ground_station("abuja")) == machine_ip(167)
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
        # The zone is required even where the rest of the name resolves.
        with pytest.raises(DNSError):
            dns.resolve("accra.gst")
