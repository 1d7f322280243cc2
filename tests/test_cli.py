"""Tests for the repro-celestial command-line interface."""

import json
import socket
import time

import pytest

from repro.cli import build_parser, main

_CONFIG_TOML = """
epoch = "2022-01-01T00:00:00"
update_interval_s = 5.0
duration_s = 60.0

[hosts]
count = 2
cpu_cores = 32
memory_mib = 98304

[[shells]]
name = "iridium"
[shells.geometry]
planes = 6
satellites_per_plane = 11
altitude_km = 780.0
inclination_deg = 90.0
arc_of_ascending_nodes_deg = 180.0
[shells.network]
min_elevation_deg = 8.2
[shells.compute]
vcpu_count = 1
memory_mib = 1024

[[ground_stations]]
name = "hawaii"
latitude_deg = 21.36
longitude_deg = -157.95
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.toml"
    path.write_text(_CONFIG_TOML)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "validate", "snapshot", "scenarios", "run", "meetup", "dart",
            "handover", "cost",
        ):
            assert command in parser.format_help()


class TestValidateCommand:
    def test_validate_ok(self, config_path, capsys):
        exit_code = main(["validate", config_path])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "satellites" in output
        assert "66" in output

    def test_validate_flags_memory_problem(self, tmp_path, capsys):
        text = _CONFIG_TOML.replace("memory_mib = 98304", "memory_mib = 1024")
        path = tmp_path / "small.toml"
        path.write_text(text)
        exit_code = main(["validate", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "warnings" in output


class TestSnapshotCommand:
    def test_snapshot_to_file(self, config_path, tmp_path, capsys):
        output_file = tmp_path / "snapshot.json"
        exit_code = main([
            "snapshot", config_path, "--time", "30", "--output", str(output_file), "--no-links",
        ])
        assert exit_code == 0
        payload = json.loads(output_file.read_text())
        assert len(payload["satellites"]) == 66
        assert "wrote" in capsys.readouterr().out

    def test_snapshot_geojson_to_stdout(self, config_path, capsys):
        exit_code = main(["snapshot", config_path, "--geojson"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "FeatureCollection"

    def test_snapshot_json_config(self, tmp_path, capsys):
        # Round-trip the TOML config through JSON to exercise the JSON loader.
        import tomllib

        json_path = tmp_path / "config.json"
        json_path.write_text(json.dumps(tomllib.loads(_CONFIG_TOML)))
        assert main(["snapshot", str(json_path), "--geojson"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "FeatureCollection"


class TestExperimentCommands:
    def test_meetup_command(self, capsys):
        exit_code = main([
            "meetup", "--mode", "cloud", "--duration", "20", "--shells", "lowest",
            "--packet-interval", "0.2",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "median latency" in output

    def test_dart_command(self, capsys):
        exit_code = main([
            "dart", "--deployment", "central", "--buoys", "5", "--sinks", "10",
            "--duration", "20",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "results delivered" in output

    def test_handover_command(self, config_path, capsys):
        exit_code = main([
            "handover", config_path, "--station", "hawaii", "--duration", "600",
            "--interval", "60",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "handovers" in output

    def test_cost_command(self, capsys):
        exit_code = main(["cost", "--minutes", "15"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "celestial_usd" in output


_SPEC_TOML = """
name = "cli-spec-smoke"

[scenario]
name = "pacific-dart"

[scenario.params]
buoy_count = 4
deployment = "central"
duration_s = 20.0
sink_count = 8

[workload]
app = "dart"

[workload.params]
deployment = "central"
group_count = 2

[metrics]
outputs = ["summary", "latency-csv"]
"""


class TestDeclarativeCommands:
    def test_scenarios_command(self, capsys):
        exit_code = main(["scenarios"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("iridium", "pacific-dart", "west-africa-meetup"):
            assert name in output

    def test_run_command_writes_bundle(self, tmp_path, capsys):
        spec_path = tmp_path / "experiment.toml"
        spec_path.write_text(_SPEC_TOML)
        output_dir = tmp_path / "results"
        exit_code = main(["run", str(spec_path), "--output-dir", str(output_dir)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "DART experiment" in output
        assert (output_dir / "result.json").exists()
        assert (output_dir / "latency_dart.csv").exists()

    def test_run_command_no_output(self, tmp_path, capsys):
        spec_path = tmp_path / "experiment.toml"
        spec_path.write_text(_SPEC_TOML)
        exit_code = main(["run", str(spec_path), "--no-output", "--duration", "15"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "15s" in output
        assert "wrote" not in output

    def test_run_command_matches_dart_subcommand(self, tmp_path, capsys):
        main([
            "dart", "--deployment", "central", "--buoys", "4", "--sinks", "8",
            "--duration", "20",
        ])
        direct = capsys.readouterr().out
        spec_path = tmp_path / "experiment.toml"
        spec_path.write_text(_SPEC_TOML)
        main(["run", str(spec_path), "--no-output"])
        declarative = capsys.readouterr().out
        assert declarative == direct


class TestConfigurationErrors:
    """A bad configuration file is one ``error:`` line and exit code 2."""

    _COMMANDS = (
        lambda path: ["validate", path],
        lambda path: ["snapshot", path],
        lambda path: ["handover", path, "--station", "hawaii"],
        lambda path: ["run", path, "--no-output"],
    )

    def _error_line(self, argv, capsys):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_missing_file(self, command, tmp_path, capsys):
        path = str(tmp_path / "does-not-exist.toml")
        line = self._error_line(command(path), capsys)
        assert path in line and "No such file" in line

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_toml_syntax_error(self, command, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("update_interval_s = [1,\n")
        line = self._error_line(command(str(path)), capsys)
        assert str(path) in line and "(at " in line  # tomllib says where

    @pytest.mark.parametrize("command", _COMMANDS[:3])
    def test_validation_error(self, command, tmp_path, capsys):
        path = tmp_path / "invalid.toml"
        path.write_text(_CONFIG_TOML.replace("update_interval_s = 5.0", "update_interval_s = -5.0"))
        line = self._error_line(command(str(path)), capsys)
        assert str(path) in line and "update interval must be positive" in line

    def test_a_misspelled_key(self, tmp_path, capsys):
        path = tmp_path / "typo.toml"
        path.write_text(_CONFIG_TOML.replace("min_elevation_deg = 8.2", "min_elevaton_deg = 8.2"))
        line = self._error_line(["validate", str(path)], capsys)
        assert str(path) in line and "'shells.network.min_elevaton_deg'" in line

    def test_removed_host_key(self, tmp_path, capsys):
        path = tmp_path / "stale.toml"
        path.write_text(_CONFIG_TOML.replace("[hosts]\n", "[hosts]\ninter_host_latency_ms = 0.2\n"))
        line = self._error_line(["validate", str(path)], capsys)
        assert str(path) in line and "hosts.inter_host_latency_ms was removed" in line

    def test_removed_compute_key(self, tmp_path, capsys):
        path = tmp_path / "stale-disk.toml"
        path.write_text(_CONFIG_TOML.replace("memory_mib = 1024\n", "memory_mib = 1024\ndisk_mib = 512\n"))
        line = self._error_line(["validate", str(path)], capsys)
        assert str(path) in line and "compute.disk_mib was removed" in line

    def test_removed_serve_key(self, tmp_path, capsys):
        path = tmp_path / "stale-spec.toml"
        path.write_text(_SPEC_TOML + "\n[serve]\nall_pairs = true\n")
        line = self._error_line(["run", str(path), "--no-output"], capsys)
        assert str(path) in line and "serve.all_pairs was removed" in line

    @pytest.mark.parametrize(
        ("scenario", "params", "named"),
        [
            ("west-africa-meetup", 'shells = "three-lowest"', "'three-lowest'"),
            ("oneweb", "shell_limit = 1", "shell_limit"),
            ("pacific-dart", 'deployment = "orbit"', "'orbit'"),
        ],
        ids=["unknown-literal", "unknown-keyword", "unknown-deployment"],
    )
    def test_run_with_a_bad_scenario_parameter(self, scenario, params, named, tmp_path, capsys):
        path = tmp_path / "bad-params.toml"
        path.write_text(f'name = "bad"\n\n[scenario]\nname = "{scenario}"\nparams = {{ {params} }}\n')
        line = self._error_line(["run", str(path), "--no-output"], capsys)
        assert str(path) in line and named in line

    @pytest.mark.parametrize(
        ("fault", "named"),
        [
            ('[[faults]]\nkind = "terminate"\ntarget = "buoy-0"\n', "'faults'"),
            ('[[fault_program]]\nkind = "explode"\nat_s = 5.0\n', "'explode'"),
            ('[[fault_program]]\nkind = "terminate"\nat_s = 5.0\ntarget = "atlantis"\n',
             "'atlantis'"),
            ('[[fault_program]]\nkind = "terminate"\nat_s = 5.0\ntarget = "0/abc"\n', "'0/abc'"),
        ],
        ids=["misspelled-table", "unknown-kind", "unknown-station", "non-numeric-satellite"],
    )
    def test_run_with_a_bad_fault_program(self, fault, named, tmp_path, capsys):
        # Refused before the run starts, not ignored or raised mid-run.
        path = tmp_path / "bad-faults.toml"
        path.write_text(_SPEC_TOML + "\n" + fault)
        line = self._error_line(["run", str(path), "--no-output"], capsys)
        assert str(path) in line and named in line

    def test_run_rejects_an_inconsistent_spec(self, config_path, capsys):
        # A plain configuration is not an experiment spec (no [scenario] table).
        line = self._error_line(["run", config_path, "--no-output"], capsys)
        assert config_path in line and "scenario" in line

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_with_a_worker_count_below_one(self, workers, tmp_path, capsys):
        spec_path = tmp_path / "experiment.toml"
        spec_path.write_text(_SPEC_TOML)
        argv = ["run", str(spec_path), "--no-output", "--parallelism", "processes"]
        line = self._error_line(argv + ["--workers", workers], capsys)
        assert str(spec_path) in line and f"workers must be at least 1, got {workers}" in line
        line = self._error_line(
            ["dart", "--duration", "5", "--parallelism", "processes", "--workers", workers],
            capsys,
        )
        assert "workers must be at least 1" in line

    def test_run_with_a_malformed_serve_address(self, tmp_path, capsys):
        spec_path = tmp_path / "experiment.toml"
        spec_path.write_text(_SPEC_TOML)
        argv = ["run", str(spec_path), "--no-output", "--serve", "127.0.0.1:abc"]
        line = self._error_line(argv, capsys)
        assert str(spec_path) in line and "'127.0.0.1:abc'" in line

    def test_run_on_a_taken_serve_port(self, tmp_path, capsys):
        # The gateway cannot bind: the user's to fix, like a bad spec.
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            spec_path = tmp_path / "experiment.toml"
            spec_path.write_text(_SPEC_TOML + f"\n[serve]\nport = {port}\n")
            started_at = time.monotonic()
            line = self._error_line(["run", str(spec_path), "--no-output"], capsys)
            assert time.monotonic() - started_at < 5.0
        assert f"127.0.0.1:{port}" in line and "in use" in line
