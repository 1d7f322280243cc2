"""Ablation — rebalancing microVMs across hosts (FirePlace-style, §6.1).

The paper suggests mitigating per-host bottlenecks by dynamically migrating
satellite-server microVMs across hosts.  This ablation creates a skewed
placement (as happens when a bounding box drifts over the region served by
one host), rebalances it with the migration scheduler and reports the
remaining imbalance and the per-machine downtime cost.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import ComputeParams
from repro.hosts import Host, MigrationScheduler
from repro.microvm import MachineBatch


def _skewed_hosts(host_count=3, machines=48, memory_mib=512):
    hosts = [Host(index=index, memory_mib=32 * 1024) for index in range(host_count)]
    rng = np.random.default_rng(1)
    compute = ComputeParams(vcpu_count=2, memory_mib=memory_mib)
    for index in range(machines):
        # Two thirds of the machines land on host 0 (the skew to correct).
        target = hosts[0] if rng.random() < 0.66 else hosts[1 + index % (host_count - 1)]
        target.place(MachineBatch.single(f"sat-{index}", 0, index, compute), boot_s=0.0)
    return hosts


def test_migration_rebalancing(benchmark):
    def build_and_rebalance():
        hosts = _skewed_hosts()
        scheduler = MigrationScheduler(hosts, imbalance_threshold_mib=1024.0)
        before = scheduler.imbalance_mib()
        events = scheduler.rebalance(now_s=300.0)
        return hosts, scheduler, before, events

    hosts, scheduler, before, events = benchmark(build_and_rebalance)
    after = scheduler.imbalance_mib()
    downtimes = [event.downtime_s for event in events]

    rows = [
        ["reserved-memory imbalance before [MiB]", before],
        ["reserved-memory imbalance after [MiB]", after],
        ["microVMs migrated", len(events)],
        ["mean downtime per migration [s]", float(np.mean(downtimes)) if downtimes else 0.0],
        ["machines per host after rebalance",
         " / ".join(str(len(host.machines)) for host in hosts)],
    ]
    print()
    print(render_table(["metric", "value"], rows,
                       title="Ablation — FirePlace-style microVM rebalancing"))

    assert before > 4096.0
    assert after <= before / 2
    assert len(events) >= 3
    assert all(0.0 < downtime < 5.0 for downtime in downtimes)
