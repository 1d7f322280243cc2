"""Shared fixtures for the benchmark harness.

The heavy emulation runs (the §4 meetup experiment and the §5 DART case
study) are executed once per session and shared by the figure benchmarks;
individual benchmarks then time the relevant computation (constellation
updates, CDF/percentile aggregation, ...) and print the rows/series the
paper reports.

Scaling note: wall-clock budgets force shorter simulated durations and a
coarser packet pacing than the paper's 10/15-minute experiments; the
statistics compared against the paper are latency distributions, which are
stable under this scaling (see EXPERIMENTS.md).

Each run's testbed is closed once it has run (its traces and results stay
readable), and every module ends with the tier-1 tests' leaked-child check.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import Celestial
from repro.apps import DartExperiment, MeetupExperiment, VideoStreamParams
from repro.scenarios import dart_configuration, west_africa_configuration

# The check of tests/conftest.py: no benchmark module leaves a child process behind.
_spec = importlib.util.spec_from_file_location(
    "leaked_children", Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
)
_leak_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_leak_check)
no_leaked_children = _leak_check.no_leaked_children

#: Simulated duration of the meetup runs [s] (paper: 600 s).
MEETUP_DURATION_S = 120.0
#: Packet pacing of the video stream [s] (paper: 0.02 s).
MEETUP_PACKET_INTERVAL_S = 0.1
#: Simulated duration of the DART runs [s] (paper: 900 s).
DART_DURATION_S = 90.0
#: DART scale (paper: 100 buoys, 200 sinks).
DART_BUOYS = 40
DART_SINKS = 80


@dataclass
class MeetupRun:
    """One §4 experiment run plus the testbed it ran on."""

    mode: str
    testbed: Celestial
    results: object


def _run_meetup(mode: str, seed: int = 0, duration_s: float = MEETUP_DURATION_S) -> MeetupRun:
    config = west_africa_configuration(
        duration_s=duration_s, shells="two-lowest", seed=seed
    )
    with Celestial(config) as testbed:
        experiment = MeetupExperiment(
            testbed,
            mode=mode,
            stream=VideoStreamParams(packet_interval_s=MEETUP_PACKET_INTERVAL_S),
        )
        results = experiment.run()
    return MeetupRun(mode=mode, testbed=testbed, results=results)


@pytest.fixture(scope="session")
def meetup_satellite_run() -> MeetupRun:
    """The §4 experiment with the bridge on the optimal satellite server."""
    return _run_meetup("satellite")


@pytest.fixture(scope="session")
def meetup_cloud_run() -> MeetupRun:
    """The §4 experiment with the bridge in the Johannesburg data centre."""
    return _run_meetup("cloud")


@pytest.fixture(scope="session")
def meetup_cloud_repetitions() -> list[MeetupRun]:
    """Three identically-seeded repetitions of the cloud run (Fig. 6)."""
    return [_run_meetup("cloud", seed=0, duration_s=60.0) for _ in range(3)]


@dataclass
class DartRun:
    """One §5 experiment run plus the testbed it ran on."""

    deployment: str
    testbed: Celestial
    results: object


def _run_dart(deployment: str) -> DartRun:
    config = dart_configuration(
        deployment=deployment,
        buoy_count=DART_BUOYS,
        sink_count=DART_SINKS,
        duration_s=DART_DURATION_S,
    )
    with Celestial(config) as testbed:
        results = DartExperiment(testbed, deployment=deployment, group_count=10).run()
    return DartRun(deployment=deployment, testbed=testbed, results=results)


@pytest.fixture(scope="session")
def dart_central_run() -> DartRun:
    """The §5 experiment with central processing at the PTWC ground station."""
    return _run_dart("central")


@pytest.fixture(scope="session")
def dart_satellite_run() -> DartRun:
    """The §5 experiment with on-satellite processing."""
    return _run_dart("satellite")
