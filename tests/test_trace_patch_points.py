"""Every entry point the benchmark's tracer patches by name still exists.

``bench/trace.py`` wraps the pipeline's entry points by attribute name; a
deleted or renamed one surfaces there as a ``KeyError`` only when a traced
run installs the patches.  Installing both patch sets here (driver and
sink) makes that a tier-1 failure, and ``unpatch`` must put every original
object back.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import trace  # noqa: E402


def test_every_patch_point_exists_and_unpatch_restores_it():
    tracer = trace.Tracer()
    try:
        trace.install_driver(tracer)
        trace.install_sink(tracer)
        originals = {}
        for owner, attribute, raw in tracer._patches:
            # A point patched twice (the driver's and the sink's decode)
            # holds the first wrapper as its second raw: keep the first.
            originals.setdefault((owner, attribute), raw)
    finally:
        tracer.unpatch()
    assert tracer._patches == []
    assert len(originals) > 30
    for (owner, attribute), raw in originals.items():
        assert vars(owner)[attribute] is raw, f"{owner!r}.{attribute} was not restored"
