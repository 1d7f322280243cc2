"""Unit tests for the constellation database, info API, DNS-over-HTTP and animation."""

import dataclasses
import json
import socket
import threading
import urllib.request

import pytest

from repro.core import (
    CelestialDNS,
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    EpochRecord,
    GroundStationConfig,
    HTTPInfoServer,
    InfoAPI,
    InfoAPIError,
    NetworkParams,
    ShellConfig,
    constellation_snapshot,
    snapshot_to_geojson,
)
from repro.core.info_api import InfoAPINotReady
from repro.orbits import GroundStation, ShellGeometry
from repro.topology import ShortestPaths


@pytest.fixture(scope="module")
def setup():
    config = Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            GroundStationConfig(station=GroundStation("buoy-0", 10.0, -160.0)),
        ),
        update_interval_s=5.0,
    )
    calculation = ConstellationCalculation(config)
    database = ConstellationDatabase()
    database.set_state(calculation.state_at(0.0))
    dns = CelestialDNS(calculation.node_index)
    api = InfoAPI(database, calculation, dns)
    return config, calculation, database, api


class TestDatabase:
    def test_requires_state(self):
        database = ConstellationDatabase()
        assert not database.has_state
        with pytest.raises(RuntimeError):
            _ = database.state

    def test_epoch_increments(self, setup):
        _, calculation, database, _ = setup
        before = database.epoch
        database.set_state(calculation.state_at(5.0))
        assert database.epoch == before + 1
        assert database.state.time_s == 5.0
        database.set_state(calculation.state_at(0.0))

    def test_constellation_info(self, setup):
        _, _, database, _ = setup
        info = database.constellation_info()
        assert info["satellites"] == 66
        assert info["ground_stations"] == 2
        assert info["links"] > 0

    def test_satellite_info(self, setup):
        _, _, database, _ = setup
        info = database.satellite_info(0, 13)
        assert info["name"] == "13.0.celestial"
        assert info["active"] is True
        assert len(info["position_ecef_km"]) == 3
        with pytest.raises(KeyError):
            database.satellite_info(0, 999)
        with pytest.raises(KeyError):
            database.satellite_info(9, 0)

    def test_ground_station_info(self, setup):
        _, _, database, _ = setup
        info = database.ground_station_info("hawaii")
        assert info["name"] == "hawaii"
        assert len(info["uplinks"]) >= 1
        with pytest.raises(KeyError):
            database.ground_station_info("atlantis")

    def test_path_info_and_pair_rule(self, setup):
        _, calculation, database, _ = setup
        hawaii = calculation.ground_station("hawaii")
        buoy = calculation.ground_station("buoy-0")
        path = database.path_info(hawaii, buoy)
        assert path["reachable"]
        assert path["delay_ms"] > 0
        assert path["rtt_ms"] == pytest.approx(2 * path["delay_ms"])
        assert len(path["hops"]) >= 3
        rule = database.pair_rule(hawaii, buoy)
        assert rule.reachable
        assert rule.delay_ms == pytest.approx(path["delay_ms"])
        # The rule is cached per epoch.
        assert database.pair_rule(hawaii, buoy) is rule


class TestInfoAPI:
    def test_info_routes(self, setup):
        _, _, _, api = setup
        assert api.get("/info")["satellites"] == 66
        assert api.get("/shell/0")["satellites"] == 66
        assert api.get("/sat/0/13")["name"] == "13.0.celestial"
        assert api.get("/gst/hawaii")["name"] == "hawaii"
        assert api.get("/self/13.0.celestial")["identifier"] == 13
        assert api.get("/self/hawaii")["name"] == "hawaii"
        path = api.get("/path/hawaii/buoy-0")
        assert path["reachable"]
        record = api.get("/dns/13.0.celestial")
        assert record["type"] == "A"


    def test_a_path_request_searches_its_pair_once(self, setup):
        """``/path`` derives the bottleneck from the path it found: the
        pair's one bounded search (every try counted) is held, so the
        request reads it without a search; no row, the row's answer."""
        config, calculation, _, _ = setup
        database = ConstellationDatabase()
        database.set_state(calculation.state_at(0.0))
        dns = CelestialDNS(calculation.node_index)
        api = InfoAPI(database, calculation, dns)
        state, stats = database.state, calculation.path_engine.stats
        hawaii = calculation.ground_station("hawaii")
        buoy = calculation.ground_station("buoy-0")
        before = stats.bounded_searches
        found = state.path(hawaii, buoy)
        tries = stats.bounded_searches - before
        before = stats.snapshot()
        answer = api.get("/path/hawaii/buoy-0")
        after = stats.snapshot()
        assert after["bounded_searches"] == before["bounded_searches"] and tries >= 1
        assert after["cache_hits"] - before["cache_hits"] == 1
        assert after["rows_solved"] == before["rows_solved"] and state.paths._row_of == {}
        row = ShortestPaths(state.graph, [found.source]).path(found.source, found.target)
        assert answer["delay_ms"] == row.delay_ms and answer["rtt_ms"] == row.rtt_ms
        assert answer["hops"] == [state.node_index.describe(hop) for hop in row.hops]
        assert answer["bandwidth_kbps"] == state.bottleneck_kbps(row) > 0.0
    def test_unknown_routes(self, setup):
        _, _, _, api = setup
        with pytest.raises(InfoAPIError):
            api.get("/bogus")
        with pytest.raises(InfoAPIError):
            api.get("/sat/0/9999")
        with pytest.raises(InfoAPIError):
            api.get("/gst/atlantis")
        with pytest.raises(InfoAPIError):
            api.get("/self/unknown-machine")

    def test_http_server_serves_json(self, setup):
        _, _, _, api = setup
        with HTTPInfoServer(api) as server:
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/info", timeout=5) as response:
                payload = json.loads(response.read())
                assert payload["satellites"] == 66
            with urllib.request.urlopen(f"http://{host}:{port}/sat/0/3", timeout=5) as response:
                assert json.loads(response.read())["name"] == "3.0.celestial"

    @pytest.mark.parametrize(
        "path",
        ["/info", "/shell/0", "/sat/0/0", "/gst/hawaii", "/self/buoy-0", "/path/hawaii/buoy-0"],
    )
    def test_every_route_answers_json_over_http(self, setup, path):
        # What the server sends is what the API returns, through json.dumps:
        # a NumPy scalar in a payload would drop the connection instead.
        _, _, _, api = setup
        with HTTPInfoServer(api) as server:
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5) as response:
                assert response.headers["Content-Type"] == "application/json"
                assert json.loads(response.read()) == json.loads(json.dumps(api.get(path)))

    def test_reachable_is_a_python_bool(self, setup):
        _, calculation, database, _ = setup
        hawaii, buoy = (calculation.ground_station(name) for name in ("hawaii", "buoy-0"))
        assert type(database.path_info(hawaii, buoy)["reachable"]) is bool
        assert type(database.state.reachable(hawaii, buoy)) is bool
        assert type(database.state.path(hawaii, buoy).reachable) is bool

    def test_stop_releases_the_port_of_a_server_that_never_started(self, setup):
        _, _, _, api = setup
        server = HTTPInfoServer(api)
        host, port = server.address
        server.stop()
        with socket.socket() as rebound:
            rebound.bind((host, port))

    def test_http_server_404(self, setup):
        _, _, _, api = setup
        with HTTPInfoServer(api) as server:
            host, port = server.address
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)

    def test_http_server_routes_the_decoded_path_without_its_query(self, setup):
        # A station name with a space travels percent-encoded, and a query
        # string is not part of the route; an error body is the plain message.
        config, calculation, _, _ = setup
        config = dataclasses.replace(
            config,
            ground_stations=config.ground_stations
            + (GroundStationConfig(station=GroundStation("Cape Verde", 16.0, -24.0)),)
        )
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        database.set_state(calculation.state_at(0.0))

        def get(path):
            url = f"http://{host}:{port}{path}"
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        with HTTPInfoServer(InfoAPI(database, calculation)) as server:
            host, port = server.address
            for path in ("/gst/cape-verde", "/gst/Cape%20Verde", "/gst/Cape%20Verde?x=1"):
                status, body = get(path)
                assert (status, body["name"]) == (200, "Cape Verde")
            assert get("/info?x=1") == (200, database.constellation_info())
            assert get("/gst/atlantis") == (404, {"error": "unknown machine name: 'atlantis'"})
            assert get("/nope/") == (404, {"error": "unknown path: '/nope/'"})

    def test_http_server_503_before_the_first_epoch(self, setup):
        # A machine can boot and ask before the coordinator's first update:
        # that is an answer ("not yet"), not a dropped connection.
        _, calculation, _, _ = setup
        database = ConstellationDatabase()
        api = InfoAPI(database, calculation)
        with pytest.raises(InfoAPINotReady):
            api.get("/info")
        with HTTPInfoServer(api) as server:
            host, port = server.address
            for path in ("/info", "/sat/0/3", "/nope"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5)
                assert excinfo.value.code == 503
                assert excinfo.value.headers["Content-Type"] == "application/json"
                assert "published" in json.loads(excinfo.value.read())["error"]
            database.set_state(calculation.state_at(0.0))
            with urllib.request.urlopen(f"http://{host}:{port}/info", timeout=5) as response:
                assert json.loads(response.read())["epoch"] == 1


class TestDiffHistoryAPI:
    """There is none: ``/info`` describes one publication, ``/diffs`` is gone."""

    def _chained(self, epochs=6):
        config = Configuration(
            shells=(
                ShellConfig(
                    name="iridium",
                    geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                    network=NetworkParams(min_elevation_deg=8.2),
                    compute=ComputeParams(vcpu_count=1, memory_mib=1024),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            ),
            update_interval_s=5.0,
        )
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        state = calculation.state_at(0.0)
        database.set_state(state)
        for step in range(1, epochs):
            state, diff = calculation.diff_since(state, step * 30.0)
            database.set_state(state, diff=diff)
        return calculation, database, InfoAPI(database, calculation)

    def test_diffs_route_is_an_unknown_path(self):
        _, database, api = self._chained()
        with pytest.raises(InfoAPIError, match="unknown path"):
            api.get("/diffs/1")
        info = api.get("/info")
        assert "keyframe_epochs" not in info
        assert info["epoch"] == database.epoch
        assert info["last_diff"] == database.latest_diff.summary(database.state.active_satellites)

    def test_constellation_info_reads_one_publication(self):
        # /info threads race set_state: the read waits for the database lock
        # and returns the state, epoch and diff of a single publication.
        calculation, database, _ = self._chained(epochs=3)
        result = []
        reader = threading.Thread(target=lambda: result.append(database.constellation_info()))
        with database.lock:
            reader.start()
            reader.join(timeout=0.3)
            assert reader.is_alive() and not result  # waiting for the lock
            database.set_state(calculation.state_at(500.0))  # full state, no diff
        reader.join(timeout=5.0)
        info = result[0]
        assert (info["epoch"], info["time_s"], info["last_diff"]) == (4, 500.0, None)


class TestAnimation:
    def test_snapshot_structure(self, setup):
        _, _, database, _ = setup
        snapshot = constellation_snapshot(database.state)
        assert len(snapshot["satellites"]) == 66
        assert len(snapshot["ground_stations"]) == 2
        assert len(snapshot["links"]) == database.state.graph.total_links()
        altitudes = [sat["altitude_km"] for sat in snapshot["satellites"]]
        assert all(700.0 < altitude < 860.0 for altitude in altitudes)

    def test_snapshot_links_follow_the_edge_arrays(self, setup):
        """The exported ``links`` list is the edge table row by row: edge-id
        order, five keys, plain Python values (what ``repro-celestial
        snapshot`` writes)."""
        _, _, database, _ = setup
        state = database.state
        graph, describe = state.graph, state.node_index.describe
        kinds = ("isl", "uplink", "host")
        expected = [
            {
                "a": describe(int(graph.node_a[edge])),
                "b": describe(int(graph.node_b[edge])),
                "distance_km": float(graph.distances_km[edge]),
                "delay_ms": float(graph.delays_ms[edge]),
                "type": kinds[graph.link_type_codes[edge]],
            }
            for edge in range(graph.total_links())
        ]
        links = constellation_snapshot(state)["links"]
        assert links == expected
        assert {link["type"] for link in links} == {"isl", "uplink"}
        # Canonical order, lower node first: a station follows every satellite.
        assert links[0]["a"] == ("sat", 0, 0) and all(link["a"][0] == "sat" for link in links)
        assert {link["b"][0] for link in links if link["type"] == "uplink"} == {"gst"}
        assert all(type(link["delay_ms"]) is float for link in links)

    def test_snapshot_without_links(self, setup):
        _, _, database, _ = setup
        snapshot = constellation_snapshot(database.state, include_links=False)
        assert "links" not in snapshot

    def test_geojson_output(self, setup):
        _, _, database, _ = setup
        geojson = snapshot_to_geojson(database.state)
        assert geojson["type"] == "FeatureCollection"
        kinds = {feature["properties"]["kind"] for feature in geojson["features"]}
        assert kinds == {"satellite", "ground_station"}
        assert len(geojson["features"]) == 68
        # JSON serialisable end to end.
        json.dumps(geojson)


class TestKeyframeDiffReplay:
    """An epoch record holds its epoch's masks and, toggled at its flips,
    the previous epoch's — whether the epoch was published with a diff or
    without one."""

    FULL_STATE_EPOCH = 7  # published without a diff

    def _advance(self, epochs=12, bounding_box=None):
        """Yield ``(database, record, masks_by_epoch)`` after every publication."""
        config = Configuration(
            shells=(
                ShellConfig(
                    name="iridium",
                    geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                    network=NetworkParams(min_elevation_deg=8.2),
                    compute=ComputeParams(vcpu_count=1, memory_mib=1024),
                ),
            ),
            ground_stations=(
                GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
            ),
            bounding_box=bounding_box,
            update_interval_s=5.0,
        )
        calculation = ConstellationCalculation(config)
        database = ConstellationDatabase()
        masks_by_epoch = {}
        state = None
        for step in range(epochs):
            previous = state
            if state is None or database.epoch + 1 == self.FULL_STATE_EPOCH:
                state, diff = calculation.state_at(step * 60.0), None
            else:
                state, diff = calculation.diff_since(state, step * 60.0)
            database.set_state(state, diff=diff)
            flips = diff
            if previous is not None and diff is None:
                # Published without a diff; the managers' record still flips.
                flips = calculation.diff_since(previous, step * 60.0)[1]
            record = EpochRecord.of(database.epoch, state, flips)
            masks_by_epoch[database.epoch] = {
                s: m.copy() for s, m in state.active_satellites.items()
            }
            yield database, record, masks_by_epoch

    def test_activity_replay_matches_recorded_masks(self):
        import numpy as np

        from repro.core import BoundingBox

        # A bounding box makes activity genuinely change across epochs.
        box = BoundingBox(-35.0, 35.0, -180.0, -100.0)
        for database, record, masks in self._advance(bounding_box=box):
            current = database.epoch
            assert record.epoch == current and record.first == (current == 1)
            previous = {shell: mask.copy() for shell, mask in record.active.items()}
            for shell, ids in record.flips.items():
                previous[shell][ids] ^= True
            for epoch, answered in ((current, record.active), (current - 1, previous)):
                if epoch == 0:
                    assert not any(mask.any() for mask in answered.values())
                    continue
                assert sorted(answered) == sorted(masks[epoch])
                for shell, mask in masks[epoch].items():
                    assert np.array_equal(answered[shell], mask), (current, epoch)
            # /info splits the diff's flips by the published masks.
            last_diff = database.constellation_info()["last_diff"]
            if last_diff is not None:
                now, was = masks[current][0], masks[current - 1][0]
                counts = [int(np.count_nonzero(now & ~was)), int(np.count_nonzero(was & ~now))]
                assert [last_diff["activated"], last_diff["deactivated"]] == counts
        assert current == 12 and database.latest_diff is not None
        changed = sum(
            not np.array_equal(masks[e][0], masks[e + 1][0]) for e in range(1, current)
        )
        assert changed >= 3, "scenario too static to tell two epochs apart"
