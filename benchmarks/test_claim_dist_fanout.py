"""Thread vs process backend on a full-Starlink fleet: what one epoch costs.

Both backends drive identical full-Starlink epochs (4,409 satellites without
a bounding box, so every satellite owns a microVM — ~1,100 per host across
4 hosts/workers) and the benchmark records, per backend, the two quantities
of ``UpdateStats.fanout_seconds`` / ``sample_seconds``: the slice fan-out
and one usage-sample round trip.  Since PR 15 a sample is an O(1) reading of
each host's kept accounting (one pass over the machines only when one of
them changed), so neither backend walks every microVM per sample any more
and there is no compute sweep left for worker processes to parallelise: what
is compared is slice encode + loopback TCP + ack against a thread-pool call.
Constellation math is identical on both sides and excluded.

The measurements are always written to ``BENCH_dist.json`` (path
overridable via the ``BENCH_DIST_JSON`` environment variable), including
``sample_seconds_median`` per backend (at the PR 14 parent, with the
per-sample sweeps: threads 8.7–9.0 ms, processes 5.8–7.3 ms on the 2-vCPU
dev box; with this PR 0.11 ms and 0.86 ms).  The functional claim (both
backends drive the same 4,414 machines) is a hard assert; the
processes-vs-threads wall-clock ratio is recorded and a shortfall is a skip,
never a Tier-1 failure.
"""

import json
import os

import numpy as np

from _harness import ratio_gate
from repro.core import (
    ConstellationCalculation,
    ConstellationDatabase,
    Coordinator,
    MachineManager,
)
from repro.hosts import Host
from repro.scenarios import west_africa_configuration

#: Emulation hosts / worker processes of the sweep (acceptance: 4 workers).
HOSTS = 4
#: Measured steady-state epochs (after the full-replay warm-up epoch).
EPOCHS = 6


def _run_backend(parallelism: str) -> dict:
    config = west_africa_configuration(
        duration_s=3600.0, shells="all", use_bounding_box=False
    )
    calculation = ConstellationCalculation(config)
    managers = [
        MachineManager(
            Host(index=i, cpu_cores=64, memory_mib=1 << 21),
            rng=np.random.default_rng(1 + i),
        )
        for i in range(HOSTS)
    ]
    coordinator = Coordinator(
        config,
        calculation,
        ConstellationDatabase(),
        managers,
        parallelism=parallelism,
        worker_count=HOSTS,
    )
    try:
        coordinator.create_ground_stations(0.0)
        # Epoch 1: full replay; creates all 4,409 satellite microVMs.
        coordinator.update(0.0)
        coordinator.sample_all_usage(0.0, applying_update=True)  # warm both paths
        for step in range(1, EPOCHS + 1):
            now = step * config.update_interval_s
            coordinator.update(now)
            coordinator.sample_all_usage(now, applying_update=True)
        machines = sum(len(m.host.machines) for m in coordinator.managers)
        # Per epoch: slice fan-out + one usage-sample round trip; skip the
        # full-replay epoch and the warm-up sample.
        fanout = list(coordinator.stats.fanout_seconds)[1:]
        samples = list(coordinator.stats.sample_seconds)[1:]
        return {
            "backend": parallelism,
            "machines": machines,
            "epochs": EPOCHS,
            "fanout_seconds": fanout,
            "sample_seconds": samples,
            "sample_seconds_median": float(np.median(samples)),
            "sweep_seconds_median": float(
                np.median([f + s for f, s in zip(fanout, samples)])
            ),
        }
    finally:
        coordinator.close()


def test_process_backend_beats_thread_backend_on_full_starlink_sweep():
    threads = _run_backend("threads")
    processes = _run_backend("processes")
    assert threads["machines"] == processes["machines"] == 4409 + 5

    speedup = threads["sweep_seconds_median"] / processes["sweep_seconds_median"]
    results = {
        "scenario": "full-starlink-per-host-sweep",
        "hosts": HOSTS,
        "workers": HOSTS,
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "processes": processes,
        "speedup": speedup,
    }
    artifact = os.environ.get("BENCH_DIST_JSON", "BENCH_dist.json")
    with open(artifact, "w") as handle:
        json.dump(results, handle, indent=2)
    print(
        f"\nslice fan-out + usage sample (4,409 machines, {HOSTS} hosts): threads "
        f"{threads['sweep_seconds_median'] * 1000:.2f} ms (sample "
        f"{threads['sample_seconds_median'] * 1000:.2f}) | processes "
        f"{processes['sweep_seconds_median'] * 1000:.2f} ms (sample "
        f"{processes['sample_seconds_median'] * 1000:.2f}) "
        f"({speedup:.2f}x) -> {artifact}"
    )
    # A box on which process fan-out does not win reads as a skip, never as
    # a failure.
    ratio_gate(
        "processes_vs_threads_sweep",
        processes["sweep_seconds_median"] * 1000,
        threads["sweep_seconds_median"] * 1000,
        at_least=1.5, env="BENCH_DIST_JSON", default="BENCH_dist.json",
    )
