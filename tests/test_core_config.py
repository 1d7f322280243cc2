"""Unit tests for the Celestial configuration model."""

import json

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
from repro.orbits import Epoch, GroundStation, ShellGeometry


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
        assert config.total_machines == 67
        assert config.shell_sizes == [66]
        assert config.ground_station_names == ["hawaii"]
        assert config.update_steps() == 121

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

    def test_ground_station_lookup(self):
        config = _config()
        assert config.ground_station_config("hawaii").station.latitude_deg == 21.3
        with pytest.raises(ConfigurationError):
            config.ground_station_config("unknown")

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

    def test_from_toml(self, tmp_path):
        toml_text = """
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
        path = tmp_path / "config.toml"
        path.write_text(toml_text)
        config = Configuration.from_toml(path)
        assert config.total_satellites == 66
        assert config.duration_s == 60.0
        assert config.ground_station_names == ["hawaii"]

    def test_epoch_default_and_custom(self):
        from datetime import datetime

        config = _config(epoch=Epoch(datetime(2023, 6, 1)))
        assert config.epoch.start == datetime(2023, 6, 1)
