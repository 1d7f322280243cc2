"""Shared piece of the claim benchmarks: the JSON artifact.

A wall-clock *ratio* is a property of the box as much as of the code, so
it is never a bare ``assert``: it is recorded in the benchmark's JSON
artifact.  Functional claims (byte-identity, solver call counts, counter
values) stay hard asserts in the tests themselves.
"""

import json
import os


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
