"""The load generator: one child process, at most two subscriber connections.

The driver process is the system under test; everything a subscriber does —
reading the stream off loopback TCP, decoding, applying to an
``EpochReplica``, asking ``QUERY``s one at a time — happens here, in another
process, so the driver's numbers never include its own load generator.  No
threads: the loop below is the whole client.

Protocol (lines on stdin/stdout): the driver sends one JSON *plan* per replay;
the sink connects, answers ``ready``, and then per operation receives the
epoch, stamps receipt and application with ``time.monotonic_ns()`` (one clock
for every process on Linux), waits for ``go``, issues the operation's queries
and answers ``ok``.  ``finish`` returns the stamps, the query answers, the
replica digest and, when traced, the sink's spans.
"""

from __future__ import annotations

import json
import sys
import time

TIMEOUT_S = 30.0


def _run_replay(plan: dict, stdin, reply, tracer) -> dict:
    from repro.dist.wire import FrameKind
    from repro.serve.client import SubscriptionClient

    from bench.checks import snapshot_digest

    clock = time.monotonic_ns
    clients = []
    try:
        stream = SubscriptionClient(
            "127.0.0.1", plan["port"], client_id="bench-a", timeout_s=TIMEOUT_S
        )
        clients.append(stream)
        seed = stream.recv_update()
        if seed.kind is not FrameKind.KEYFRAME:
            raise RuntimeError(f"the stream started with a {seed.kind.name} frame")
        asker = stream
        if plan["streams"] == 2:
            # Connection B takes the stream without keeping a replica and
            # asks the queries, as a monitoring client would.
            asker = SubscriptionClient(
                "127.0.0.1", plan["port"], client_id="bench-b", timeout_s=TIMEOUT_S
            )
            clients.append(asker)
            asker.recv_update(apply=False)
        for source, destination in plan["warm"]:
            asker.query(source, destination)
        reply({"ready": True, "epoch": seed.epoch})

        recv_ns, applied_ns, frame_bytes, query_ns, answers = [], [], [], [], []
        expected = seed.epoch
        for operation, queries in enumerate(plan["queries"], start=1):
            if tracer is not None:
                tracer.epoch = operation
            expected += 1
            update = stream.recv_update(apply=False)
            recv_ns.append(clock())
            stream.replica.apply(update)
            applied_ns.append(clock())
            frame_bytes.append(len(update.data))
            received = [update]
            if asker is not stream:
                received.append(asker.recv_update(apply=False))
            for frame in received:
                if frame.kind is not FrameKind.DIFF or frame.epoch != expected:
                    # A keyframe mid-stream is an eviction/resync.
                    raise RuntimeError(
                        f"expected DIFF {expected}, got {frame.kind.name} {frame.epoch}"
                    )
            if stdin.readline().strip() != "go":
                raise RuntimeError("the driver abandoned the replay")
            for source, destination in queries:
                started = clock()
                answer = asker.query(source, destination)
                query_ns.append(clock() - started)
                answers.append(
                    [answer.get("epoch"), answer.get("delay_ms"), answer.get("error")]
                )
            reply("ok")
        if stdin.readline().strip() != "finish":
            raise RuntimeError("expected finish")
        return {
            "recv_ns": recv_ns,
            "applied_ns": applied_ns,
            "frame_bytes": frame_bytes,
            "query_ns": query_ns,
            "answers": answers,
            "replica_epoch": stream.replica.epoch,
            "replica_digest": snapshot_digest(stream.replica.snapshot()),
            "spans": tracer.take()[0] if tracer is not None else [],
        }
    finally:
        for client in clients:
            client.close()


def main() -> int:
    from bench import require_program

    require_program()
    import repro.serve.client  # noqa: F401 - paid before the first replay, not in it

    stdin, stdout = sys.stdin, sys.stdout

    def reply(message) -> None:
        stdout.write((message if isinstance(message, str) else json.dumps(message)) + "\n")
        stdout.flush()

    reply({"hello": True})
    tracer = None
    while line := stdin.readline():
        line = line.strip()
        if line in ("", "go", "finish"):
            continue  # left over from a replay that failed on this side
        plan = json.loads(line)
        if plan["op"] == "exit":
            return 0
        if plan["trace"] and tracer is None:
            from bench.trace import Tracer, install_sink

            tracer = Tracer()
            install_sink(tracer)
        try:
            reply(_run_replay(plan, stdin, reply, tracer if plan["trace"] else None))
        except Exception as error:  # reported to the driver, which counts it
            reply({"error": f"{type(error).__name__}: {error}"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
