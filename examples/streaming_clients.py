#!/usr/bin/env python3
"""The streaming serving tier: fan-out, slow-client resync and path queries.

This example runs a small Iridium constellation, attaches the streaming
gateway to its constellation database and connects three kinds of
subscribers over real sockets:

* a **full subscriber** that receives every epoch's keyframe/diff and
  reconstructs the constellation state bit-for-bit in its local replica,
* a **slow subscriber** that stops reading while the publisher floods
  epochs: once its bounded queue overflows the gateway drops its backlog
  and resynchronises it from the current epoch's keyframe, after which it
  is bit-identical again,
* a **querying subscriber** that asks "path latency source → destination
  now" and is answered from the current epoch, whose state solves the
  path row the query needs.

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
    database = ConstellationDatabase()

    with GatewayServer(database, queue_limit=8) as server:
        host, port = server.address
        print(f"gateway listening on {host}:{port}")

        # A fleet of full subscribers, each with its own replica.
        clients = [
            SubscriptionClient(host, port, client_id=f"full-{i}")
            for i in range(args.clients)
        ]

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

        # Path queries are answered from the current epoch's state.
        asker = clients[0]
        answer = asker.query("hawaii", "0.0.celestial")
        print(f"path hawaii -> 0.0.celestial: "
              f"{json.dumps(answer, indent=2)}")

        stats = server.statistics()
        print(f"gateway: {stats['published_epochs']} epochs published, "
              f"{stats['encode_count']} encodes "
              f"(single-encode fan-out to {stats['subscriptions']} "
              f"subscribers), {stats['queries']} queries answered")

        # A subscriber that does not read while epochs pour in.  Two
        # alternating states make cheap epochs; published in bursts they
        # overflow its bounded queue, and the gateway drops its backlog and
        # resynchronises it from the current epoch's keyframe.
        slow = SubscriptionClient(host, port, client_id="slow")
        state_a = database.state
        state_b, diff_ab = calculation.diff_since(state_a, state_a.time_s + 30.0)
        state_a2, diff_ba = calculation.diff_since(state_b, state_a.time_s)
        flooded = 0
        while not server.statistics()["clients"]["slow"]["evictions"]:
            for _ in range(50):
                database.set_state(state_b, diff=diff_ab)
                database.set_state(state_a2, diff=diff_ba)
            flooded += 100
        slow.sync_to_epoch(database.epoch)
        assert slow.replica.snapshot().same_bits(
            EpochSnapshot.from_state(database.state, database.epoch))
        print(f"slow subscriber: evicted within {flooded} unread epochs, "
              f"caught up from {slow.replica.applied_keyframes} keyframes and "
              f"{slow.replica.applied_diffs} diffs, bit-identical at epoch "
              f"{slow.replica.epoch}")
        slow.close()

        for client in clients:
            client.close()


if __name__ == "__main__":
    main()
