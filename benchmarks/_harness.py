"""Shared pieces of the claim benchmarks: the artifact and the ratio gate.

A wall-clock *ratio* is a property of the box as much as of the code, so
it is never a bare ``assert``: :func:`ratio_gate` records what was
measured in the benchmark's JSON artifact and turns a shortfall into a
``pytest.skip`` — tier-1 stays green on a slow or noisy runner and the
number is still there to read.  Functional claims (byte-identity, solver
call counts, counter values) stay hard asserts in the tests themselves.
"""

import json
import os

import pytest


def merge_artifact(section, results, env="BENCH_PATHS_JSON", default=None):
    """Merge ``results`` under ``section`` in the artifact ``env`` names.

    Several benchmarks share one artifact, so each reads the existing
    file (if any) and updates only its own section — CI can run them in
    any order, or alone.  Without the variable (and a ``default`` path)
    nothing is written.
    """
    artifact = os.environ.get(env, default)
    if not artifact:
        return
    payload = {}
    if os.path.exists(artifact):
        try:
            with open(artifact) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}
    payload[section] = results
    with open(artifact, "w") as handle:
        json.dump(payload, handle, indent=2)


def ratio_gate(name, fast_ms, slow_ms, at_least, env="BENCH_PATHS_JSON", default=None):
    """Record ``slow_ms / fast_ms`` and skip when it is below ``at_least``."""
    ratio = slow_ms / fast_ms
    merge_artifact(
        f"gate:{name}",
        {
            "fast_ms": fast_ms,
            "slow_ms": slow_ms,
            "ratio": ratio,
            "at_least": at_least,
            "met": ratio >= at_least,
        },
        env,
        default,
    )
    if ratio < at_least:
        pytest.skip(
            f"{name}: {ratio:.2f}x < {at_least}x on {os.cpu_count() or 1} cores "
            "— recorded, not gated"
        )
