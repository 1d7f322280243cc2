"""The cost of the dist seam on a full-Starlink fleet, per backend.

Both backends drive identical full-Starlink epochs (4,409 satellites without
a bounding box, so every satellite owns a microVM — ~1,100 per host across
4 hosts/workers) and the benchmark records, per backend, the two quantities
of ``UpdateStats.fanout_seconds`` / ``sample_seconds``: milliseconds per
slice fan-out and per usage-sample round trip.  A sample is an O(1) reading
of each host's kept accounting and a slice is microseconds of bookkeeping
per manager, so there is no compute for worker processes to parallelise:
the in-process backend is a loop over the managers, the process backend is
slice encode + loopback TCP + ack, and the difference between the two is
what the seam costs — the price of exercising the remote-worker protocol,
not a race one side could win.  Constellation math is identical on both
sides and excluded.

It also records the set-up epoch, the one that creates all 4,409 satellite
microVMs: ``setup_epoch_ms`` per backend and, for the process backend,
``control_frames`` — the control-ledger frames per worker after it (every
lifecycle operation of a flush rides one ``CONTROL`` frame, so one each).

The measurements are always written to ``BENCH_dist.json`` (path
overridable via the ``BENCH_DIST_JSON`` environment variable).  The
functional claims — both backends drive the same 4,414 machines to identical
per-manager counters, the set-up epoch is one control frame per worker and
the workers' RNG streams stand where the shadows' do — are hard asserts; the
timings are recorded, never gated.
"""

import json
import os
import time

import numpy as np

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
        started = time.perf_counter()
        coordinator.update(0.0)
        setup_epoch_ms = (time.perf_counter() - started) * 1000
        control_frames = None
        if parallelism == "processes":
            backend = coordinator._backend
            control_frames = [len(handle.ledger) for handle in backend.supervisor._handles]
            workers = backend.worker_counters()
            assert [workers[position]["rng_state"] for position in range(HOSTS)] == [
                shadow._rng.bit_generator.state for shadow in backend.shadows
            ]
        coordinator.sample_all_usage(0.0, applying_update=True)  # warm both paths
        for step in range(1, EPOCHS + 1):
            now = step * config.update_interval_s
            coordinator.update(now)
            coordinator.sample_all_usage(now, applying_update=True)
        machines = sum(len(m.host.machines) for m in coordinator.managers)
        counters = [
            [m.suspension_count, m.resume_count, m.applied_diffs, len(m.host.machines)]
            for m in coordinator.managers
        ]
        # Per epoch: slice fan-out + one usage-sample round trip; skip the
        # full-replay epoch and the warm-up sample.
        fanout = list(coordinator.stats.fanout_seconds)[1:]
        samples = list(coordinator.stats.sample_seconds)[1:]
        return {
            "backend": parallelism,
            "machines": machines,
            "counters": counters,
            "epochs": EPOCHS,
            "setup_epoch_ms": setup_epoch_ms,
            "control_frames": control_frames,
            "fanout_seconds": fanout,
            "sample_seconds": samples,
            "fanout_ms_median": float(np.median(fanout)) * 1000,
            "sample_ms_median": float(np.median(samples)) * 1000,
        }
    finally:
        coordinator.close()


def test_both_backends_drive_the_same_fleet_and_the_seam_cost_is_recorded():
    threads = _run_backend("threads")
    processes = _run_backend("processes")
    assert threads["machines"] == processes["machines"] == 4409 + 5
    assert threads["counters"] == processes["counters"]
    assert processes["control_frames"] == [1] * HOSTS

    results = {
        "scenario": "full-starlink-per-host-sweep",
        "hosts": HOSTS,
        "workers": HOSTS,
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "processes": processes,
        "seam_cost_ms": {
            "slice_fanout": processes["fanout_ms_median"] - threads["fanout_ms_median"],
            "sample_round_trip": processes["sample_ms_median"] - threads["sample_ms_median"],
        },
    }
    artifact = os.environ.get("BENCH_DIST_JSON", "BENCH_dist.json")
    with open(artifact, "w") as handle:
        json.dump(results, handle, indent=2)
    print(
        f"\n4,409 machines, {HOSTS} hosts — slice fan-out: in process "
        f"{threads['fanout_ms_median']:.3f} ms | workers "
        f"{processes['fanout_ms_median']:.3f} ms; usage sample: in process "
        f"{threads['sample_ms_median']:.3f} ms | workers "
        f"{processes['sample_ms_median']:.3f} ms; set-up epoch: in process "
        f"{threads['setup_epoch_ms']:.0f} ms | workers "
        f"{processes['setup_epoch_ms']:.0f} ms -> {artifact}"
    )
