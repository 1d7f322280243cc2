"""PR 10 claim — single-encode fan-out beats per-client re-encoding.

The streaming gateway encodes each epoch's keyframe/diff exactly once
through the shared :class:`~repro.serve.codec.EpochUpdateCodec` and fans
the same ``bytes`` object out to every subscriber; the naive alternative
re-serialises the update for each client.  This benchmark drives a real
:class:`~repro.serve.gateway.GatewayServer` with 200 concurrent
subscribers over 10 Iridium epochs and reports

* p50/p99 end-to-end delivery latency (``set_state`` publication to the
  client's decoded, replica-applied update), and
* the measured speedup of serving cached encodings versus freshly
  re-encoding the same diff once per client.

The measurements are always written to ``BENCH_serve.json`` (path
overridable via ``BENCH_SERVE_JSON``; client/epoch counts via
``BENCH_SERVE_CLIENTS``/``BENCH_SERVE_EPOCHS``).  The ≥ 5× speedup
assertion is enforced at meaningful fan-out widths (≥ 50 clients); a
scaled-down run records the numbers and skips the assertion.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import (
    ComputeParams,
    Configuration,
    ConstellationCalculation,
    ConstellationDatabase,
    GroundStationConfig,
    NetworkParams,
    ShellConfig,
)
from repro.orbits import GroundStation, ShellGeometry
from repro.serve import EpochSnapshot
from repro.serve.client import SubscriptionClient
from repro.serve.codec import encode_diff_update
from repro.serve.gateway import GatewayServer

#: Concurrent subscribers (acceptance: 200) and streamed epochs.
CLIENTS = int(os.environ.get("BENCH_SERVE_CLIENTS", "200"))
EPOCHS = int(os.environ.get("BENCH_SERVE_EPOCHS", "10"))


def _iridium_configuration() -> Configuration:
    return Configuration(
        shells=(
            ShellConfig(
                name="iridium",
                geometry=ShellGeometry(6, 11, 780.0, 90.0, 180.0),
                network=NetworkParams(min_elevation_deg=8.2),
                compute=ComputeParams(vcpu_count=1, memory_mib=1024),
            ),
        ),
        ground_stations=(
            GroundStationConfig(station=GroundStation("hawaii", 21.3, -157.9)),
        ),
        update_interval_s=5.0,
    )


def _stream_load(calculation, database) -> dict:
    """Drive the live fan-out and collect per-delivery latencies."""
    state = calculation.state_at(0.0)
    database.set_state(state)
    publish_times: dict[int, float] = {}
    latencies_ms: list[float] = []
    #: Frame sizes as subscriber 0 received them (everyone gets the same bytes).
    frame_bytes: dict[str, list[int]] = {"KEYFRAME": [], "DIFF": []}
    latencies_lock = threading.Lock()
    final_epoch = 1 + EPOCHS
    finished = []

    def subscriber(host: str, port: int, index: int) -> None:
        with SubscriptionClient(
            host, port, client_id=f"bench-{index}", timeout_s=60.0
        ) as client:
            received = client.sync_to_epoch(1)
            samples = []
            while client.replica.epoch < final_epoch:
                update = client.recv_update()
                samples.append((update.epoch, time.perf_counter()))
                received.append(update)
            if index == 0:
                for update in received:
                    frame_bytes[update.kind.name].append(len(update.data))
            with latencies_lock:
                latencies_ms.extend(
                    (received - publish_times[epoch]) * 1000.0
                    for epoch, received in samples
                    if epoch in publish_times
                )
                finished.append(client.replica.snapshot())

    with GatewayServer(database) as server:
        host, port = server.address
        threads = [
            threading.Thread(target=subscriber, args=(host, port, index))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        # Wait for every subscription to be seeded before the flood.
        deadline = time.monotonic() + 60.0
        while server.statistics()["subscriptions"] < CLIENTS:
            if time.monotonic() > deadline:
                raise RuntimeError("subscribers failed to connect in time")
            time.sleep(0.05)
        for step in range(1, EPOCHS + 1):
            new_state, diff = calculation.diff_since(state, step * 30.0)
            publish_times[database.epoch + 1] = time.perf_counter()
            database.set_state(new_state, diff=diff)
            state = new_state
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        stats = server.statistics()

    # Every client reconstructed the final epoch bit-for-bit.
    reference = EpochSnapshot.from_state(state, final_epoch)
    assert len(finished) == CLIENTS
    assert all(snapshot.same_bits(reference) for snapshot in finished)
    assert stats["encode_count"] == 1 + EPOCHS  # seed keyframe + one per diff

    return {
        "deliveries": len(latencies_ms),
        "delivery_p50_ms": float(np.percentile(latencies_ms, 50)),
        "delivery_p99_ms": float(np.percentile(latencies_ms, 99)),
        "delivery_max_ms": float(np.max(latencies_ms)),
        "diff_bytes_p50": float(np.median(frame_bytes["DIFF"])),
        "keyframe_bytes": frame_bytes["KEYFRAME"][0],
        "evictions": stats["evictions"],
        "encode_count": stats["encode_count"],
    }


def _encode_comparison(calculation) -> dict:
    """Cached single-encode lookups vs re-encoding once per client."""
    database = ConstellationDatabase()
    state = calculation.state_at(0.0)
    database.set_state(state)
    shared_s = 0.0
    reencode_s = 0.0
    for step in range(1, EPOCHS + 1):
        state, diff = calculation.diff_since(state, step * 30.0)
        database.set_state(state, diff=diff)
        epoch = database.epoch

        begin = time.perf_counter()
        first = database.codec.diff_update(epoch, diff=diff)  # the one encode
        for _ in range(CLIENTS - 1):
            update = database.codec.diff_update(epoch)
            assert update.data is first.data
        shared_s += time.perf_counter() - begin

        begin = time.perf_counter()
        for _ in range(CLIENTS):
            encode_diff_update(diff, epoch)
        reencode_s += time.perf_counter() - begin
    return {
        "shared_seconds": shared_s,
        "reencode_seconds": reencode_s,
        "speedup": reencode_s / shared_s,
    }


def test_single_encode_fanout_beats_per_client_reencode():
    calculation = ConstellationCalculation(_iridium_configuration())
    stream = _stream_load(calculation, ConstellationDatabase())
    encode = _encode_comparison(calculation)
    results = {
        "scenario": "iridium-streaming-fanout",
        "clients": CLIENTS,
        "epochs": EPOCHS,
        "cpu_count": os.cpu_count(),
        "stream": stream,
        "encode": encode,
    }
    artifact = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")
    with open(artifact, "w") as handle:
        json.dump(results, handle, indent=2)
    print(
        f"\nstreaming fan-out ({CLIENTS} clients x {EPOCHS} epochs): delivery "
        f"p50 {stream['delivery_p50_ms']:.2f} ms | p99 "
        f"{stream['delivery_p99_ms']:.2f} ms | single-encode speedup "
        f"{encode['speedup']:.1f}x -> {artifact}"
    )
    if CLIENTS < 50:
        pytest.skip(
            f"recorded speedup {encode['speedup']:.1f}x, but the >= 5x "
            "assertion is only meaningful at >= 50 concurrent clients"
        )
    assert encode["speedup"] >= 5.0, (
        f"single-encode fan-out speedup {encode['speedup']:.1f}x below the "
        f"5x target (shared {encode['shared_seconds'] * 1000:.1f} ms, "
        f"re-encode {encode['reencode_seconds'] * 1000:.1f} ms)"
    )
