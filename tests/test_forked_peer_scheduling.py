"""Forked peers give way to the driver.

The testbed forks its calculation child and its pool's workers
(``repro.dist.transport.fork``), and the driver wakes each of them every
epoch.  On Linux each runs under ``SCHED_BATCH``, which drops wake-up
preemption: a woken peer does not take the vCPU the driver is still
running on.  The driver keeps its own policy.
"""

import os

import pytest

from repro import Celestial
from repro.scenarios import dart_configuration

pytestmark = pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="a Linux policy")


def test_the_calculation_child_and_every_worker_run_batch():
    config = dart_configuration("central", buoy_count=2, sink_count=2, update_interval_s=1.0)
    driver_policy = os.sched_getscheduler(0)
    with Celestial(config, parallelism="processes", worker_count=2) as testbed:
        testbed.run(until=2.0)  # the child forks at the first differential update
        peers = [testbed.coordinator._child.process.pid] + [
            handle.process.pid for handle in testbed.coordinator._backend._handles
        ]
        assert len(peers) == 3
        for pid in peers:
            assert os.sched_getscheduler(pid) == os.SCHED_BATCH, pid
    assert os.sched_getscheduler(0) == driver_policy
