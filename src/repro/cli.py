"""Command-line interface for the Celestial reproduction.

Mirrors how the original testbed is driven from a single configuration file
(§3.1), extended to whole experiments: every workload subcommand builds a
declarative :class:`~repro.experiments.spec.ExperimentSpec` and hands it to
the one :class:`~repro.experiments.runner.ExperimentRunner`, and ``run``
executes such a spec straight from a TOML/JSON file — so a parameter sweep
is a directory of spec files, not a Python module.

Usage (installed as ``repro-celestial``)::

    repro-celestial validate config.toml
    repro-celestial snapshot config.toml --time 120 --output snapshot.json --geojson
    repro-celestial scenarios
    repro-celestial run experiment.toml --output-dir results
    repro-celestial run experiment.toml --parallelism processes --workers 2
    repro-celestial meetup --mode satellite --duration 60
    repro-celestial dart --deployment central --buoys 20 --sinks 40 --duration 60
    repro-celestial handover config.toml --station hawaii --duration 600
    repro-celestial cost --minutes 15
"""

from __future__ import annotations

import argparse
import json
import sys
import tomllib
from typing import Optional, Sequence

from repro.analysis import cost_comparison, render_table
from repro.core import (
    Configuration,
    ConfigurationError,
    ConstellationCalculation,
    constellation_snapshot,
    estimate_resources,
    snapshot_to_geojson,
    validate_configuration,
)
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    RuntimeSpec,
    ScenarioSpec,
    WorkloadSpec,
    entries,
)


def _cmd_validate(args: argparse.Namespace) -> int:
    config = Configuration.from_path(args.config)
    estimate = estimate_resources(config)
    warnings = validate_configuration(config)
    rows = [
        ["satellites", config.total_satellites],
        ["ground stations", len(config.ground_stations)],
        ["peak satellites in bounding box", estimate.satellites_in_box],
        ["estimated required CPU cores", estimate.required_cores],
        ["available CPU cores", estimate.available_cores],
        ["estimated required memory [MiB]", estimate.required_memory_mib],
        ["available memory [MiB]", estimate.available_memory_mib],
    ]
    print(render_table(["quantity", "value"], rows, title=f"Validation of {args.config}"))
    if warnings:
        print("\nwarnings:")
        for warning in warnings:
            print(f"  - {warning}")
    else:
        print("\nno warnings")
    return 0 if estimate.memory_sufficient else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    config = Configuration.from_path(args.config)
    calculation = ConstellationCalculation(config)
    state = calculation.state_at(args.time)
    if args.geojson:
        payload = snapshot_to_geojson(state)
    else:
        payload = constellation_snapshot(state, include_links=not args.no_links)
    text = json.dumps(payload, indent=2 if args.pretty else None)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text)} bytes, t={args.time:.0f}s)")
    else:
        print(text)
    return 0


def _print_result(result) -> int:
    print(render_table(["metric", "value"], result.metrics, title=result.title))
    for path in result.output_paths:
        print(f"wrote {path}")
    return 0


def _runtime_spec(args: argparse.Namespace) -> RuntimeSpec:
    return RuntimeSpec(parallelism=args.parallelism, workers=args.workers)


def _cmd_meetup(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name="meetup-cli",
        scenario=ScenarioSpec(
            name="west-africa-meetup",
            params={
                "duration_s": args.duration,
                "shells": args.shells,
                "seed": args.seed,
            },
        ),
        workload=WorkloadSpec(
            app="meetup",
            params={"mode": args.mode, "packet_interval_s": args.packet_interval},
        ),
        runtime=_runtime_spec(args),
    )
    return _print_result(ExperimentRunner(spec).run())


def _cmd_dart(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name="dart-cli",
        scenario=ScenarioSpec(
            name="pacific-dart",
            params={
                "deployment": args.deployment,
                "buoy_count": args.buoys,
                "sink_count": args.sinks,
                "duration_s": args.duration,
                "seed": args.seed,
            },
        ),
        workload=WorkloadSpec(
            app="dart",
            params={
                "deployment": args.deployment,
                "group_count": max(2, args.buoys // 5),
            },
        ),
        runtime=_runtime_spec(args),
    )
    return _print_result(ExperimentRunner(spec).run())


def _cmd_handover(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name="handover-cli",
        scenario=ScenarioSpec(path=args.config),
        workload=WorkloadSpec(
            app="handover",
            params={
                "station": args.station,
                "duration_s": args.duration,
                "interval_s": args.interval,
            },
        ),
    )
    return _print_result(ExperimentRunner(spec).run())


def _cmd_cost(args: argparse.Namespace) -> int:
    comparison = cost_comparison(minutes=args.minutes)
    rows = [[key, value] for key, value in comparison.items()]
    print(render_table(["quantity", "value"], rows, title="Cost comparison (§4.2)"))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    rows = [[item.name, item.description] for item in entries()]
    print(render_table(["scenario", "description"], rows, title="Registered scenarios"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_path(args.spec)
    overrides = {
        key: value
        for key, value in (
            ("parallelism", args.parallelism),
            ("workers", args.workers),
            ("duration_s", args.duration),
            ("seed", args.seed),
        )
        if value is not None
    }
    if overrides:
        spec = spec.with_runtime(**overrides)
    if args.serve is not None:
        spec = spec.with_serve(args.serve)
    output_dir = None
    if not args.no_output:
        output_dir = args.output_dir if args.output_dir else f"{spec.name}-results"
    return _print_result(ExperimentRunner(spec, output_dir=output_dir).run())


def _add_parallelism_arguments(
    parser: argparse.ArgumentParser, defaults: bool = True
) -> None:
    """Fan-out backend selection shared by the experiment subcommands.

    With ``defaults=False`` every option defaults to None so ``run`` can
    distinguish "not given" from "given" and leave the spec's own runtime
    section in charge.
    """
    parser.add_argument(
        "--parallelism",
        choices=["threads", "processes"],
        default="threads" if defaults else None,
        help="host fan-out backend: a loop over in-process managers "
        "(default, starts no thread) or supervised worker processes reached "
        "over loopback TCP",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count for --parallelism processes "
        "(default: one per emulated host)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro-celestial`` command."""
    parser = argparse.ArgumentParser(prog="repro-celestial", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="validate a configuration file")
    validate.add_argument("config")
    validate.set_defaults(handler=_cmd_validate)

    snapshot = subparsers.add_parser("snapshot", help="export a constellation snapshot")
    snapshot.add_argument("config")
    snapshot.add_argument("--time", type=float, default=0.0)
    snapshot.add_argument("--output", default=None)
    snapshot.add_argument("--geojson", action="store_true")
    snapshot.add_argument("--no-links", action="store_true")
    snapshot.add_argument("--pretty", action="store_true")
    snapshot.set_defaults(handler=_cmd_snapshot)

    scenarios = subparsers.add_parser("scenarios", help="list the registered scenarios")
    scenarios.set_defaults(handler=_cmd_scenarios)

    run = subparsers.add_parser("run", help="run a declarative experiment spec")
    run.add_argument("spec", help="experiment spec file (.toml or .json)")
    run.add_argument(
        "--output-dir",
        default=None,
        help="result-bundle directory (default: <experiment name>-results)",
    )
    run.add_argument(
        "--no-output",
        action="store_true",
        help="print the summary table only, write no result bundle",
    )
    run.add_argument("--duration", type=float, default=None,
                     help="override the spec's duration [s]")
    run.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    run.add_argument(
        "--serve",
        nargs="?",
        const="",
        default=None,
        metavar="HOST:PORT",
        help="attach the streaming gateway for the run (default bind: "
        "127.0.0.1 on an ephemeral port); overrides the spec's [serve] table",
    )
    _add_parallelism_arguments(run, defaults=False)
    run.set_defaults(handler=_cmd_run)

    meetup = subparsers.add_parser("meetup", help="run the §4 meetup experiment")
    meetup.add_argument("--mode", choices=["satellite", "cloud"], default="satellite")
    meetup.add_argument("--duration", type=float, default=60.0)
    meetup.add_argument("--shells", choices=["all", "two-lowest", "lowest"], default="two-lowest")
    meetup.add_argument("--packet-interval", type=float, default=0.1)
    meetup.add_argument("--seed", type=int, default=0)
    _add_parallelism_arguments(meetup)
    meetup.set_defaults(handler=_cmd_meetup)

    dart = subparsers.add_parser("dart", help="run the §5 ocean alert experiment")
    dart.add_argument("--deployment", choices=["central", "satellite"], default="central")
    dart.add_argument("--buoys", type=int, default=20)
    dart.add_argument("--sinks", type=int, default=40)
    dart.add_argument("--duration", type=float, default=60.0)
    dart.add_argument("--seed", type=int, default=0)
    _add_parallelism_arguments(dart)
    dart.set_defaults(handler=_cmd_dart)

    handover = subparsers.add_parser("handover", help="analyse ground-station uplink handovers")
    handover.add_argument("config")
    handover.add_argument("--station", required=True)
    handover.add_argument("--duration", type=float, default=600.0)
    handover.add_argument("--interval", type=float, default=10.0)
    handover.set_defaults(handler=_cmd_handover)

    cost = subparsers.add_parser("cost", help="print the §4.2 cost comparison")
    cost.add_argument("--minutes", type=float, default=15.0)
    cost.set_defaults(handler=_cmd_cost)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as error:
        # The file the system call named: the configuration that is missing
        # or unreadable, or an output path that cannot be written.
        print(f"error: {error.filename}: {error.strerror}", file=sys.stderr)
    except (ConfigurationError, tomllib.TOMLDecodeError, json.JSONDecodeError) as error:
        source = getattr(args, "config", None) or getattr(args, "spec", None)
        print(f"error: {source}: {error}" if source else f"error: {error}", file=sys.stderr)
    except RuntimeError as error:
        # Imported only once something failed: the gateway pulls in asyncio.
        from repro.serve.gateway import GatewayError

        if not isinstance(error, GatewayError):
            raise
        # ``[serve]`` named an address the gateway cannot listen on.
        print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
