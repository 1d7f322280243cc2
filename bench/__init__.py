"""The repository's benchmark: ``python3 bench/run.py`` (see ``bench/README.md``)."""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout the benchmark runs in, and the program's sources in it.
ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src"


def require_program() -> None:
    """Make the checkout's ``repro`` importable, or exit non-zero without it."""
    if not (SOURCES / "repro").is_dir():
        raise SystemExit(f"bench: the program under test is missing ({SOURCES}/repro)")
    if str(SOURCES) not in sys.path:
        sys.path.insert(0, str(SOURCES))


def child_environment() -> dict[str, str]:
    """Environment for child interpreters (sink, per-workload runs)."""
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCES)] + ([inherited] if inherited else [])
    )
    return environment
