#!/usr/bin/env python3
"""The streaming serving tier: subscriptions, scopes and path queries.

This example runs a small Iridium constellation, attaches the streaming
gateway to its constellation database and connects three kinds of
subscribers over real sockets:

* a **full subscriber** that receives every epoch's keyframe/diff and
  reconstructs the constellation state bit-for-bit in its local replica,
* a **scoped subscriber** restricted to a geodetic bounding box — epochs
  whose changes fall outside the box arrive as lightweight skip markers
  that keep the epoch chain unbroken without shipping the payload,
* a **querying subscriber** that asks "path latency source → destination
  now" and is answered from the warm path tables, with its cache hits
  and misses attributed per client in the gateway statistics.

All subscribers share the same encoded bytes: each epoch is serialised
exactly once, however many clients are connected.

Run with:  python examples/streaming_clients.py [--epochs 8 --clients 4]
"""

import argparse
import json
import statistics
import threading

from repro.core import ConstellationCalculation, ConstellationDatabase
from repro.dist.wire import FrameKind
from repro.experiments import build
from repro.serve import EpochSnapshot
from repro.serve.client import SubscriptionClient
from repro.serve.gateway import GatewayServer


def stream_epochs(calculation, database, epochs: int, step_s: float) -> None:
    """Publish ``epochs`` coordinator-style epochs into the database."""
    state = calculation.state_at(0.0)
    database.set_state(state)
    for step in range(1, epochs):
        state, diff = calculation.diff_since(state, step * step_s)
        database.set_state(state, diff=diff)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=8,
                        help="number of published epochs")
    parser.add_argument("--clients", type=int, default=4,
                        help="number of full subscribers")
    args = parser.parse_args()

    config = build("iridium", duration_s=600.0, update_interval_s=5.0)
    calculation = ConstellationCalculation(config)
    database = ConstellationDatabase(keyframe_interval=10)

    with GatewayServer(database) as server:
        host, port = server.address
        print(f"gateway listening on {host}:{port}")

        # A fleet of full subscribers, each with its own replica.
        clients = [
            SubscriptionClient(host, port, client_id=f"full-{i}")
            for i in range(args.clients)
        ]
        # One subscriber scoped to a mid-Pacific bounding box.
        scoped = SubscriptionClient(
            host, port, client_id="pacific-box",
            scope={"kind": "bbox", "lat_min": 0.0, "lat_max": 30.0,
                   "lon_min": -170.0, "lon_max": -140.0},
        )

        publisher = threading.Thread(
            target=stream_epochs,
            args=(calculation, database, args.epochs, 30.0),
        )
        publisher.start()
        publisher.join()
        final_epoch = database.epoch

        # Every full subscriber reconstructs the final state bit-for-bit.
        reference = EpochSnapshot.from_state(database.state, final_epoch)
        for client in clients:
            received = client.sync_to_epoch(final_epoch)
            assert client.replica.snapshot().same_bits(reference)
        print(f"{len(clients)} full subscribers bit-identical at epoch "
              f"{final_epoch} ({reference.node_count} nodes, "
              f"{len(reference.node_a)} links)")
        diff_sizes = [len(u.data) for u in received if u.kind is FrameKind.DIFF]
        print(f"each received {len(diff_sizes)} DIFF frames, median "
              f"{statistics.median(diff_sizes):.0f} B")

        # The scoped subscriber stays chained through skip markers.
        updates = scoped.sync_to_epoch(final_epoch)
        skipped = sum(1 for u in updates if u.decoded()[0].get("skip"))
        print(f"scoped subscriber: {len(updates)} updates, {skipped} "
              f"out-of-box epochs arrived as skip markers; replica at "
              f"epoch {scoped.replica.epoch}")

        # Path queries are served from the warm tables.
        asker = clients[0]
        answer = asker.query("hawaii", "0.0.celestial")
        print(f"path hawaii -> 0.0.celestial: "
              f"{json.dumps(answer, indent=2)}")

        stats = server.statistics()
        print(f"gateway: {stats['published_epochs']} epochs published, "
              f"{stats['encode_count']} encodes "
              f"(single-encode fan-out to {stats['subscriptions']} "
              f"subscribers), {stats['queries']} queries answered")

        for client in clients:
            client.close()
        scoped.close()


if __name__ == "__main__":
    main()
