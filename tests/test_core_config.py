"""Unit tests for the Celestial configuration model."""

import json
import tomllib

import pytest

from repro.core.config import (
    ComputeParams,
    Configuration,
    ConfigurationError,
    GroundStationConfig,
    HostConfig,
    NetworkParams,
    ShellConfig,
)
from repro.experiments import build, list_scenarios
from repro.orbits import Epoch, GroundStation, ShellGeometry

_IRIDIUM_TOML = """\
epoch = "2022-01-01T00:00:00"
update_interval_s = 2.0
duration_s = 60.0

[[shells]]
name = "iridium"
[shells.geometry]
planes = 6
satellites_per_plane = 11
altitude_km = 780.0
inclination_deg = 86.4
arc_of_ascending_nodes_deg = 180.0

[[ground_stations]]
name = "hawaii"
latitude_deg = 21.3
longitude_deg = -157.9
"""


def _shell(name="shell-0", planes=6, per_plane=11):
    return ShellConfig(name=name, geometry=ShellGeometry(planes, per_plane, 780.0, 86.4, 180.0))


def _config(**overrides):
    parameters = dict(
        shells=(_shell(),),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
        ),
        update_interval_s=5.0,
        duration_s=600.0,
    )
    parameters.update(overrides)
    return Configuration(**parameters)


class TestParams:
    def test_network_params_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkParams(isl_bandwidth_kbps=0.0)
        with pytest.raises(ConfigurationError):
            NetworkParams(min_elevation_deg=95.0)

    def test_compute_params_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeParams(vcpu_count=0)
        with pytest.raises(ConfigurationError):
            ComputeParams(cpu_quota=0.0)
        with pytest.raises(ConfigurationError):
            ComputeParams(idle_cpu_fraction=2.0)

    def test_host_config_totals(self):
        hosts = HostConfig(count=3, cpu_cores=32, memory_mib=32 * 1024)
        assert hosts.total_cores == 96
        assert hosts.total_memory_mib == 96 * 1024
        with pytest.raises(ConfigurationError):
            HostConfig(count=0)

    def test_shell_config_requires_name(self):
        with pytest.raises(ConfigurationError):
            ShellConfig(name="", geometry=ShellGeometry(6, 11, 780.0, 86.4))


class TestConfiguration:
    def test_basic_properties(self):
        config = _config()
        assert config.total_satellites == 66
        assert config.shell_sizes == [66]
        assert config.ground_station_names == ["hawaii"]

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            Configuration(shells=())
        with pytest.raises(ConfigurationError):
            _config(update_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            _config(duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            _config(shells=(_shell("a"), _shell("a")))
        with pytest.raises(ConfigurationError):
            _config(
                ground_stations=(
                    GroundStationConfig(station=GroundStation("x", 0.0, 0.0)),
                    GroundStationConfig(station=GroundStation("x", 1.0, 1.0)),
                )
            )

    def test_dict_roundtrip(self):
        config = _config(hosts=HostConfig(count=3, cpu_cores=8, memory_mib=4096))
        assert config.to_dict()["hosts"] == {"count": 3, "cpu_cores": 8, "memory_mib": 4096}
        rebuilt = Configuration.from_dict(config.to_dict())
        assert rebuilt.hosts == config.hosts
        assert rebuilt.to_dict() == config.to_dict()
        assert rebuilt.total_satellites == config.total_satellites
        assert rebuilt.ground_station_names == config.ground_station_names
        assert rebuilt.update_interval_s == config.update_interval_s
        assert rebuilt.epoch.start == config.epoch.start
        assert rebuilt.shells[0].geometry == config.shells[0].geometry

    def test_from_dict_with_bounding_box_and_hosts(self):
        data = _config().to_dict()
        data["bounding_box"] = {"lat_min": -5.0, "lat_max": 20.0, "lon_min": -15.0, "lon_max": 20.0}
        data["hosts"] = {"count": 3, "cpu_cores": 32, "memory_mib": 32768}
        config = Configuration.from_dict(data)
        assert config.bounding_box.lat_max == 20.0
        assert config.hosts.count == 3

    def test_from_dict_invalid(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_dict({"shells": [{"name": "x"}]})

    @pytest.mark.parametrize(
        "key", ["inter_host_latency_ms", "coordinator_cores", "coordinator_memory_mib"]
    )
    def test_removed_host_keys_fail_loudly(self, key, tmp_path):
        """Hosts are an accounting construct: the overlay latency and the
        coordinator's machine size were read by nothing and are gone; a file
        that still sets one says so instead of an unexpected-keyword error."""
        data = _config().to_dict()
        data["hosts"][key] = 1
        with pytest.raises(ConfigurationError, match=f"hosts.{key} was removed: hosts are"):
            Configuration.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=f"hosts.{key} was removed"):
            Configuration.from_path(path)
        with pytest.raises(TypeError):
            HostConfig(**{key: 1})

    @pytest.mark.parametrize("servers", ["shells", "ground_stations"])
    def test_removed_compute_key_fails_loudly(self, servers):
        """``disk_mib`` was validated and never read; configurations saved by
        earlier versions carry it, and loading one says so."""
        data = _config().to_dict()
        assert "disk_mib" not in data["shells"][0]["compute"]
        data[servers][0]["compute"]["disk_mib"] = 512
        with pytest.raises(ConfigurationError, match="compute.disk_mib was removed"):
            Configuration.from_dict(data)
        with pytest.raises(TypeError):
            ComputeParams(disk_mib=512)

    def test_from_toml(self, tmp_path):
        path = tmp_path / "config.toml"
        path.write_text(_IRIDIUM_TOML)
        config = Configuration.from_path(path)
        assert config.total_satellites == 66
        assert config.duration_s == 60.0
        assert config.ground_station_names == ["hawaii"]

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("update_interval_s = 2.0", "update_intervall_s = 30.0",
             "unknown key 'update_intervall_s' (known: shells, "),
            ("[[ground_stations]]", "[shells.netwrok]\n[[ground_stations]]",
             "unknown key 'shells.netwrok' (known: name, geometry, network, "),
            ("[[ground_stations]]", "[shells.network]\nmin_elevaton_deg = 5.0\n[[ground_stations]]",
             "unknown key 'shells.network.min_elevaton_deg' (known: "),
            ("longitude_deg = -157.9", "longitude_deg = -157.9\nmin_elevaton_deg = 5.0",
             "unknown key 'ground_stations.min_elevaton_deg' (known: name, latitude_deg, "),
            ("duration_s = 60.0", 'duration_s = "long"', "duration_s must be a number, not 'long'"),
            ("duration_s = 60.0", "duration_s = 60.0\nseed = 1.5",
             "seed must be an integer, not 1.5"),
            ("duration_s = 60.0", "duration_s = 60.0\nseed = true",
             "seed must be an integer, not True"),
            ('epoch = "2022-01-01T00:00:00"', 'epoch = "yesterday"',
             "epoch must be an ISO 8601 date-time string, not 'yesterday'"),
        ],
        ids=["top-level-key", "shell-table", "network-key", "station-key", "string-duration",
             "float-seed", "bool-seed", "epoch"],
    )
    def test_a_mistake_in_the_file_names_its_dotted_path_and_type(
        self, old, new, message, tmp_path
    ):
        """A misspelled key or a value of the wrong type is refused, not read as the default."""
        assert old in _IRIDIUM_TOML
        path = tmp_path / "config.toml"
        path.write_text(_IRIDIUM_TOML.replace(old, new, 1))
        with pytest.raises(ConfigurationError) as error:
            Configuration.from_path(path)
        assert str(error.value).startswith(message)

    @pytest.mark.parametrize("name", list_scenarios())
    def test_every_registered_scenario_round_trips_through_its_dict(self, name):
        config = build(name)
        assert Configuration.from_dict(config.to_dict()) == config
        text = json.dumps(config.to_dict())
        assert json.dumps(Configuration.from_dict(json.loads(text)).to_dict()) == text
        assert Configuration.from_dict(json.loads(text)) == config

    @pytest.mark.parametrize("name", list_scenarios())
    def test_every_registered_scenario_round_trips_through_its_toml(self, name):
        """The one writer's TOML leaves out a ``None`` field, which reads back as its default."""
        text = build(name).to_toml()
        assert Configuration.from_dict(tomllib.loads(text)) == build(name)
        assert Configuration.from_dict(tomllib.loads(text)).to_toml() == text

    def test_epoch_default_and_custom(self):
        from datetime import datetime

        config = _config(epoch=Epoch(datetime(2023, 6, 1)))
        assert config.epoch.start == datetime(2023, 6, 1)
