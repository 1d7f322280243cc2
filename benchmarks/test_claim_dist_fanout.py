"""The cost of the dist seam on a full-Starlink fleet, per backend.

Both backends drive identical full-Starlink epochs (4,409 satellites without
a bounding box, so every satellite owns a microVM — ~1,100 per host across
4 hosts/workers) and the benchmark records, per backend, the two quantities
of ``UpdateStats.fanout_seconds`` / ``sample_seconds``: driver-side
milliseconds per record fan-out and per usage-sample sweep.  A sample is an
O(1) reading of each host's kept accounting and applying an epoch's record
is microseconds of bookkeeping per manager.  The in-process backend hands
the record object to each manager in a loop; the process backend does the
same on its replica managers, encodes the record once, sends one frame per
worker over loopback TCP and returns — the fan-out also collects and
compares the acknowledgements of the previous record and sweeps, which the
workers sent while the driver computed.  A sweep is taken on the replica
and sent without waiting.  The difference between the two backends is what
the seam costs the driver; the target for the record fan-out under worker
processes is 0.2 ms, recorded, not asserted.  Constellation math is
identical on both sides and excluded.

It also records the set-up epoch, the one that creates all 4,409 satellite
microVMs: ``setup_epoch_ms`` per backend and, for the process backend,
``respawn_spec_bytes`` — the ``SPEC`` frame that restarts one worker after
it, its full fleet of hosts as the driver's replica holds them —
``recovery_ms`` — the epoch after one worker was SIGKILLed, from ``update``
to its return, the restart found by its collect included — and ``epoch_frame_bytes``, the
median size of the record frame one worker receives per steady-state epoch
(measured, not assumed: every satellite is active, so the active sets are
552 bytes of bits, the flip sets of a steady epoch are empty, and the
frame's metadata comes on top).  The recovery epoch runs on both backends, unmeasured in process,
so their counters stay comparable.

The measurements are always written to ``BENCH_dist.json`` (path
overridable via the ``BENCH_DIST_JSON`` environment variable).  The
functional claims — both backends drive the same 4,414 machines to identical
per-manager counters (under worker processes the replica managers' own, which
every acknowledgement's checkpoints are compared with) and every worker holds
as many rows per host as the driver's replica — are hard asserts; the
timings and the ``SPEC`` size are recorded, never gated.  Under worker
processes the set-up epoch includes the replica managers' own apply of the
first record.
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
from repro.dist import wire
from repro.hosts import Host
from repro.scenarios import west_africa_configuration

#: Emulation hosts / worker processes of the sweep (acceptance: 4 workers).
HOSTS = 4
#: Measured steady-state epochs (after the set-up epoch).
EPOCHS = 6


def _run_backend(parallelism: str, record_frames: list[int]) -> dict:
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
        # Epoch 1: the first record; creates all 4,409 satellite microVMs.
        started = time.perf_counter()
        coordinator.update(0.0)
        setup_epoch_ms = (time.perf_counter() - started) * 1000
        respawn_spec_bytes = recovery_ms = None
        if parallelism == "processes":
            backend = coordinator._backend
            workers = backend.worker_counters()
            assert [workers[position]["rows"] for position in range(HOSTS)] == [
                len(manager.host.machines) for manager in coordinator.managers
            ]
            respawn_spec_bytes = len(
                wire.encode_frame(
                    wire.FrameKind.SPEC,
                    *wire.spec_payload(backend._handles[0].managers),
                )
            )
        coordinator.sample_all_usage(0.0, applying_update=True)  # warm both paths
        if parallelism == "processes":
            process = backend._handles[0].process
            process.kill()
            process.join(timeout=5.0)
        started = time.perf_counter()
        coordinator.update(0.5 * config.update_interval_s)
        if parallelism == "processes":
            recovery_ms = (time.perf_counter() - started) * 1000
            assert backend.restart_count == 1
        del record_frames[:]  # the set-up and recovery epochs' frames
        for step in range(1, EPOCHS + 1):
            now = step * config.update_interval_s
            coordinator.update(now)
            coordinator.sample_all_usage(now, applying_update=True)
        # Under worker processes the counters and machine counts are the
        # replica managers' own.
        machines = sum(len(m.host.machines) for m in coordinator.managers)
        counters = [
            [m.suspension_count, m.resume_count, m.applied_diffs, len(m.host.machines)]
            for m in coordinator.managers
        ]
        # Per epoch: record fan-out + one usage-sample sweep; skip the
        # set-up and recovery epochs and the warm-up sample.
        fanout = list(coordinator.stats.fanout_seconds)[2:]
        samples = list(coordinator.stats.sample_seconds)[1:]
        return {
            "backend": parallelism,
            "machines": machines,
            "counters": counters,
            "epochs": EPOCHS,
            "setup_epoch_ms": setup_epoch_ms,
            "respawn_spec_bytes": respawn_spec_bytes,
            "recovery_ms": recovery_ms,
            "epoch_frame_bytes": (
                float(np.median(record_frames)) if record_frames else None
            ),
            "fanout_seconds": fanout,
            "sample_seconds": samples,
            "fanout_ms_median": float(np.median(fanout)) * 1000,
            "sample_ms_median": float(np.median(samples)) * 1000,
        }
    finally:
        coordinator.close()


def test_both_backends_drive_the_same_fleet_and_the_seam_cost_is_recorded(monkeypatch):
    # Every record frame goes through wire.encode_frame, once for all workers.
    record_frames: list[int] = []
    encode_frame = wire.encode_frame

    def measured(kind, *args, **kwargs):
        frame = encode_frame(kind, *args, **kwargs)
        if kind is wire.FrameKind.APPLY_EPOCH:
            record_frames.append(len(frame))
        return frame

    monkeypatch.setattr(wire, "encode_frame", measured)
    threads = _run_backend("threads", record_frames)
    processes = _run_backend("processes", record_frames)
    assert threads["machines"] == processes["machines"] == 4409 + 5
    assert threads["counters"] == processes["counters"]
    # One record frame per epoch, sent to every worker: 552 bytes of active
    # bits and empty flip sets.
    assert len(record_frames) == EPOCHS
    assert 552 < processes["epoch_frame_bytes"] < 552 + 512

    results = {
        "scenario": "full-starlink-per-host-sweep",
        "hosts": HOSTS,
        "workers": HOSTS,
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "processes": processes,
        "seam_cost_ms": {
            "record_fanout": processes["fanout_ms_median"] - threads["fanout_ms_median"],
            "sample_sweep": processes["sample_ms_median"] - threads["sample_ms_median"],
        },
    }
    artifact = os.environ.get("BENCH_DIST_JSON", "BENCH_dist.json")
    with open(artifact, "w") as handle:
        json.dump(results, handle, indent=2)
    print(
        f"\n4,409 machines, {HOSTS} hosts — record fan-out: in process "
        f"{threads['fanout_ms_median']:.3f} ms | workers "
        f"{processes['fanout_ms_median']:.3f} ms; usage sample: in process "
        f"{threads['sample_ms_median']:.3f} ms | workers "
        f"{processes['sample_ms_median']:.3f} ms; set-up epoch: in process "
        f"{threads['setup_epoch_ms']:.0f} ms | workers "
        f"{processes['setup_epoch_ms']:.0f} ms; one worker's recovery epoch "
        f"{processes['recovery_ms']:.0f} ms from a "
        f"{processes['respawn_spec_bytes']:,} B SPEC; record frame per worker "
        f"{processes['epoch_frame_bytes']:.0f} B -> {artifact}"
    )
