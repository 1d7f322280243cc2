"""The benchmark command.

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` runs one
workload in this (fresh) interpreter and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs, each in its own child interpreter, and
every metric is printed by name with unit, value and sample count.
``--calibrate K`` repeats the full run K times and reports the spreads;
``--smoke`` shrinks everything to a few seconds for the tests.

Closed loop, lock-step, loopback TCP: see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ and bench/trace.py would shadow
    # the standard library's trace module; the package is imported instead.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from bench import ROOT, child_environment, estimator, metrics, require_program
from bench import trace as tracing
from bench.workloads import SMOKE_OPS, WORKLOADS, Workload

clock = time.monotonic_ns
OUT = ROOT / "bench" / "out"

#: One replay is sized to measure about this long on the baseline's box, so
#: ``--seconds`` buys ``seconds / REPLAY_SECONDS`` replays (5 … 8).
REPLAY_SECONDS = 3
#: Replays of a traced run: untraced ones first (counts, tracing overhead).
TRACED_RUN = (2, 2)
SINK_DEADLINE_S = 90.0


class ReplayFailed(RuntimeError):
    """A replay could not be completed; counted in ``failed``."""


def reference_kernel_ms() -> list[float]:
    """A fixed interpreter-bound kernel, 40 times: which machine phase is this?

    Context only (``host.ref_ms_*``); no timing is scaled by it.
    """
    samples = []
    for _ in range(40):
        started = clock()
        table = {}
        for key in range(20000):
            table[key] = key * 2
        samples.append((clock() - started) / 1e6)
    return samples


# -- the sink process --------------------------------------------------------------


class Sink:
    """The load-generator child (``bench/sink.py``) and its line protocol."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.sink"],
            cwd=ROOT,
            env=child_environment(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""

    def send(self, message) -> None:
        line = message if isinstance(message, str) else json.dumps(message)
        self.process.stdin.write(line.encode() + b"\n")
        self.process.stdin.flush()

    def readline(self) -> str:
        deadline = time.monotonic() + SINK_DEADLINE_S
        descriptor = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([descriptor], [], [], remaining)[0]:
                raise ReplayFailed("the sink did not answer in time")
            chunk = os.read(descriptor, 1 << 20)
            if not chunk:
                raise ReplayFailed("the sink exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def read_json(self) -> dict:
        answer = json.loads(self.readline())
        if "error" in answer:
            raise ReplayFailed(f"sink: {answer['error']}")
        return answer

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.send({"op": "exit"})
                self.process.stdin.close()
            self.process.wait(timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


# -- one replay ---------------------------------------------------------------------


@dataclass
class Replay:
    """Everything one from-scratch replay of a workload measured."""

    stages: dict[str, float]
    #: Simulated seconds per operation.
    interval_s: float = 0.0
    step_ns: list[int] = field(default_factory=list)
    epoch_ns: list[int] = field(default_factory=list)
    iteration_ns: list[int] = field(default_factory=list)
    publish_ns: list[int] = field(default_factory=list)
    links_changed: list[int] = field(default_factory=list)
    links_structural: list[int] = field(default_factory=list)
    ack_s: list[float] = field(default_factory=list)
    sink: dict = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    sim_digest: str = ""
    worker_rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def set_up_only(workload: Workload, smoke: bool) -> Replay:
    """Build → first epoch → close: one more set-up sample."""
    gc.collect()
    rig = workload.rig(smoke)
    try:
        rig.build()
        return Replay(stages=rig.stages)
    finally:
        rig.close()


def replay(workload: Workload, sink: Sink, seed: int, ops: int, smoke: bool, tracer=None) -> Replay:
    """Build the system from scratch and run ``ops`` lock-step operations."""
    gc.collect()
    rig = workload.rig(smoke)
    per_op = workload.queries_per_op
    result = Replay(
        stages={},
        interval_s=rig.interval_s,
        attempted=ops * (2 + per_op) + 3,
    )
    try:
        if tracer is not None:
            tracer.epoch = 0
            rig.tracer = tracer
        rig.build()
        result.stages = rig.stages
        warm, queries = rig.query_plan(random.Random(seed), ops, per_op)
        sink.send(
            {
                "op": "run",
                "port": rig.port,
                "streams": workload.streams,
                "warm": warm,
                "queries": queries,
                "trace": tracer is not None,
            }
        )
        sink.read_json()  # ready: subscribed, seeded, caches warm
        before = rig.counts()
        stations = rig.ground_names
        truths: list = []
        for operation in range(1, ops + 1):
            if tracer is not None:
                tracer.epoch = operation
            started = clock()
            step_ns, epoch_ns = rig.step(operation)
            sink.send("go")
            answer = sink.readline()
            finished = clock()
            if answer != "ok":
                raise ReplayFailed(answer)
            result.step_ns.append(step_ns)
            result.epoch_ns.append(epoch_ns)
            result.iteration_ns.append(finished - started)
            # Untimed: what the epoch changed, and the answers that can be
            # looked up without touching the extra-table cache's counters.
            topology = rig.database.latest_diff.topology
            result.links_changed.append(topology.change_count)
            result.links_structural.append(topology.structural_change_count)
            truths.extend(
                rig.truth(a, b) if a in stations and b in stations else "unchecked"
                for a, b in queries[operation - 1]
            )
        if tracer is not None:
            tracer.epoch = ops + 1
        # Read while the subscribers are still connected: the gateway forgets
        # a subscription, and its eviction count, when the client disconnects.
        after = rig.counts()
        sink.send("finish")
        result.sink = sink.read_json()
        result.counts = {
            key: value - before[key] if key.startswith(("engine.", "sim.")) else value
            for key, value in after.items()
        }
        result.publish_ns = rig.publish_ns[1:]
        for latencies in rig.coordinator.stats.worker_ack_seconds.values():
            result.ack_s.extend(latencies)
        truths[-per_op:] = [rig.truth(a, b) for a, b in queries[-1]]
        _check(result, rig, ops, truths, workload.streams)
        result.sim_digest = rig.sim_digest()
    except Exception as error:  # a failed operation: counted, reported, run goes on
        traceback.print_exc()
        result.failures.append(f"{type(error).__name__}: {error}")
    finally:
        rig.close()
        if tracer is not None:
            result.spans, result.totals = tracer.take()
    result.worker_rss_mb = rig.worker_rss_mb()
    return result


def _check(result: Replay, rig, ops: int, truths: list, streams: int) -> None:
    """Per-replay correctness; every miss is one failed operation."""
    sink, failures = result.sink, result.failures
    if len(result.publish_ns) != ops:
        failures.append(f"{len(result.publish_ns)} publications for {ops} operations")
    if sink["replica_epoch"] != rig.database.epoch or (
        sink["replica_digest"] != rig.snapshot_digest()
    ):
        failures.append("the subscriber's replica differs from the server's snapshot")
    if not rig.matches_cold_state():
        failures.append("the final incremental state differs from a cold state_at")
    per_op = len(truths) // ops
    for index, ((epoch, delay, error), truth) in enumerate(zip(sink["answers"], truths)):
        expected_epoch = index // per_op + 2
        if error is not None or epoch != expected_epoch:
            failures.append(f"query {index}: error={error} epoch={epoch}")
        elif truth != "unchecked" and delay != truth:
            failures.append(f"query {index}: answered {delay}, server has {truth}")
    if result.counts["dist.worker_restarts"]:
        failures.append("a dist worker was restarted")
    if result.counts["gateway.subscriptions"] != streams:
        failures.append("a subscriber was gone before the gateway's counts were read")
    if result.counts["gateway.evictions"]:
        failures.append("a subscriber was evicted and resynchronised")


# -- reducing replays to metrics -----------------------------------------------------


_p = estimator.quantile


def _min_ms(replays: list[Replay], series):
    """Per-operation minimum over the replays of one ns series, in ms."""
    return estimator.per_op_min([series(r) for r in replays]) / 1e6


def _since_publish_ns(r: Replay, stamps: str) -> list[int]:
    """Publish stamp → the sink's ``recv_ns`` or ``applied_ns`` stamp, per operation."""
    return [stamp - published for stamp, published in zip(r.sink[stamps], r.publish_ns)]


def cold_import_s() -> float:
    """``import repro`` in a fresh interpreter (min over two)."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    return min(
        float(
            subprocess.run(
                [sys.executable, "-c", code],
                env=child_environment(),
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for _ in range(2)
    )


def end_to_end(replays: list[Replay], setups: list[Replay]):
    """The end-to-end metrics: ``name -> (value, samples)``."""
    ops = len(replays[0].epoch_ns)
    epoch = _min_ms(replays, lambda r: r.epoch_ns)
    iteration = _min_ms(replays, lambda r: r.iteration_ns)
    return {
        "setup_s": (min(r.stages["setup_s"] for r in setups), len(setups)),
        "epoch_ms_p50": (_p(epoch, 0.5), ops),
        "sim_speed": (ops * replays[0].interval_s / (float(iteration.sum()) / 1e3), ops),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            len(replays),
        ),
        "update_bytes_p50": (_p(replays[0].sink["frame_bytes"], 0.5), ops),
    }


def per_layer(untraced: list[Replay], traced: list[Replay], host_ms: list[float]):
    """The per-layer metrics of a traced run: ``name -> (value, samples)``.

    Span times are reduced like the end-to-end ones: per operation, the
    minimum over the traced replays.
    """
    ops = len(traced[0].step_ns)
    all_ops = len(untraced[0].step_ns)
    driver = [tracing.layer_series(r.spans, ops) for r in traced]
    sink = [tracing.layer_series(r.sink["spans"], ops) for r in traced]

    def mean_ms(series, name: str, key: str = "self") -> float:
        if not all(name in s for s in series):
            return 0.0
        return float(estimator.per_op_min([s[name][key] for s in series]).mean()) / 1e6

    def self_ms(*names: str) -> float:
        return sum(mean_ms(driver, name) for name in names)

    def count(key: str) -> float:
        return untraced[0].counts.get(key, 0.0)

    def state_at_ms() -> float:
        return min(
            sum(s[tracing.END] - s[tracing.START]
                for s in tracing.spans_named(r.spans, "constellation.state_at", 0))
            for r in traced
        ) / 1e6

    def size_per_op(name: str) -> float:
        rows = [s[name]["size"] for s in driver if name in s]
        return statistics.fmean(rows[0]) if rows else 0.0

    everything = untraced + traced
    step_s = float(_min_ms(untraced, lambda r: r.step_ns).sum()) / 1e3
    epoch = _min_ms(untraced, lambda r: r.epoch_ns)
    delivery = _min_ms(untraced, lambda r: _since_publish_ns(r, "applied_ns"))
    query = _min_ms(untraced, lambda r: r.sink["query_ns"])
    ack = estimator.per_op_min([r.ack_s for r in untraced]) * 1e3
    lookups = count("engine.cache_hits") + count("engine.cache_misses")
    sends = [r.totals.get("net.send", [0, 0]) for r in traced]
    overhead = _p(_min_ms(traced, lambda r: r.epoch_ns), 0.5) / _p(epoch[:ops], 0.5)
    values = {
        "orbits.propagate_ms": self_ms("orbits.propagate"),
        "orbits.visibility_ms": self_ms("orbits.visibility"),
        "constellation.diff_since_ms": mean_ms(driver, "constellation.diff_since", "inclusive"),
        "constellation.self_ms": self_ms("constellation.diff_since"),
        "constellation.state_at_ms": state_at_ms(),
        "graph.build_ms": self_ms("graph.build"),
        "graph.diff_ms": self_ms("graph.diff"),
        "graph.links_changed": statistics.fmean(untraced[0].links_changed),
        "graph.links_structural": statistics.fmean(untraced[0].links_structural),
        "paths.advance_ms": self_ms("paths.advance"),
        "paths.query_ms": self_ms("paths.query"),
        "paths.tables_carried": count("engine.tables_advanced") / all_ops,
        "paths.solver_calls": count("engine.solver_calls"),
        "paths.kernel_calls": count("engine.kernel_calls"),
        "paths.repaired_rows": count("engine.rows_repaired"),
        "paths.bypass_share": 100.0 * count("engine.bypassed_epochs") / all_ops,
        "paths.cache_hit_share": 100.0 * count("engine.cache_hits") / lookups if lookups else 0.0,
        "database.set_state_ms": self_ms("database.set_state"),
        "coordinator.self_ms": self_ms("coordinator.update", "coordinator.sample"),
        "coordinator.epoch_ms_p95": _p(epoch, 0.95),
        "fanout.apply_ms": self_ms("fanout.apply"),
        "fanout.sample_ms": self_ms("fanout.sample"),
        "wire.encode_ms": self_ms("wire.encode"),
        "wire.decode_ms": self_ms("wire.decode"),
        "wire.slice_bytes": size_per_op("wire.encode"),
        "dist.ack_ms_p50": _p(ack, 0.5) if len(ack) else 0.0,
        "dist.worker_rss_mb": max(r.worker_rss_mb for r in untraced),
        "dist.worker_restarts": count("dist.worker_restarts"),
        "manager.apply_ms": self_ms("manager.apply"),
        "manager.sample_ms": self_ms("manager.sample"),
        "manager.machines": count("manager.machines"),
        "codec.encode_ms": self_ms("codec.encode"),
        "codec.frame_bytes": statistics.fmean(untraced[0].sink["frame_bytes"]),
        "gateway.publish_ms": self_ms("gateway.publish", "gateway.notify"),
        "gateway.encode_count": count("gateway.encode_count"),
        "gateway.evictions": count("gateway.evictions"),
        "serve.wire_ms": _p(_min_ms(untraced, lambda r: _since_publish_ns(r, "recv_ns")), 0.5),
        "serve.delivery_ms_p50": _p(delivery, 0.5),
        "serve.delivery_ms_p95": _p(delivery, 0.95),
        "serve.query_ms_p50": _p(query, 0.5),
        "serve.query_ms_p95": _p(query, 0.95),
        "client.decode_ms": mean_ms(sink, "client.decode"),
        "replica.apply_ms": mean_ms(sink, "replica.apply"),
        "sim.self_ms": self_ms("sim.run"),
        "sim.events": count("sim.events"),
        "sim.events_per_s": count("sim.events") / step_s,
        "sim.msgs_delivered": count("sim.msgs_delivered"),
        "sim.msgs_dropped": count("sim.msgs_dropped"),
        "sim.dart_latency_ms_mean": count("dart.latency_ms_mean"),
        "net.msgs_per_s": count("sim.msgs_sent") / step_s,
        "net.send_us": min(t / c for c, t in sends) / 1e3 if all(c for c, _ in sends) else 0.0,
        "net.apply_diff_ms": self_ms("net.apply_diff"),
        "setup.import_s": cold_import_s(),
        **{
            name: min(r.stages[name] for r in everything)
            for name in ("setup.calculation_s", "setup.coordinator_s", "setup.gateway_s",
                         "setup.first_epoch_s")
        },
        "host.ref_ms_p10": _p(host_ms, 0.1),
        "host.ref_ms_p50": _p(host_ms, 0.5),
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
    }
    return {name: (values[name], ops) for name, _, _ in metrics.PER_LAYER}, _shares(traced, ops)


def _shares(traced: list[Replay], ops: int) -> dict[str, float]:
    """Share of the traced operation each layer's self time takes on the driver
    thread (and the pool threads working for it while it is blocked)."""
    driver = [
        tracing.layer_series(r.spans, ops, keep=tracing.on_driver_thread) for r in traced
    ]
    step = float(_min_ms(traced, lambda r: r.step_ns).mean())
    shares = {}
    for name in sorted(set().union(*driver)):
        if all(name in s for s in driver):
            rows = [s[name]["self"] for s in driver]
            shares[name] = float(estimator.per_op_min(rows).mean()) / 1e6 / step
    return shares


# -- one workload --------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this interpreter and reduce it to a result record."""
    sink = Sink()
    tracer = None
    try:
        import repro  # noqa: F401 - paid here, while the sink imports too

        sink.read_json()  # hello
        host_ms = reference_kernel_ms()
        ops = SMOKE_OPS if smoke else workload.ops
        if smoke:
            plain, traced_count = (2, 1 if trace else 0)
        elif trace:
            plain, traced_count = TRACED_RUN
        else:
            plain, traced_count = max(5, min(8, int(seconds // REPLAY_SECONDS))), 0
        replays, traced, setups = [], [], []
        for _ in range(plain):
            replays.append(replay(workload, sink, seed, ops, smoke))
            if replays[-1].failures:
                break  # the sink may be out of step; the run is incorrect anyway
        if not replays[-1].failures:
            setups = list(replays)
            if not trace:
                target = 2 if smoke else workload.setups
                setups += [set_up_only(workload, smoke) for _ in range(target - len(setups))]
            if traced_count:
                tracer = tracing.Tracer()
                tracing.install_driver(tracer)
                for _ in range(traced_count):
                    traced.append(replay(workload, sink, seed, ops, smoke, tracer))
                    if traced[-1].failures:
                        break
        host_ms += reference_kernel_ms()
    finally:
        if tracer is not None:
            tracer.unpatch()
        sink.close()

    everything = replays + traced
    failures = [failure for r in everything for failure in r.failures]
    complete = [r for r in everything if not r.failures]
    for name, series in (
        ("sim_digest", [r.sim_digest for r in complete]),
        ("update bytes", [r.sink["frame_bytes"] for r in complete]),
        ("link counts", [r.links_changed for r in complete]),
    ):
        if series and not estimator.repeats_exactly(series):
            failures.append(f"{name} differed between replays")
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "replays": plain,
        "traced_replays": traced_count,
        "ops": ops,
        "attempted": sum(r.attempted for r in everything),
        "failed": len(failures),
        "correct": not failures,
        "failures": failures[:20],
        "sim_digest": complete[0].sim_digest if complete else "",
        "host_ref_ms_p50": _p(host_ms, 0.5),
        "metrics": {},
    }
    if failures:
        return record
    if trace:
        values, shares = per_layer(replays, traced, host_ms)
        units = metrics.PER_LAYER_UNITS
        record["shares"] = shares
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace_{workload.name}.json", "w") as handle:
            json.dump(
                {"fields": ["id", "name", "start_ns", "end_ns", "parent", "epoch", "thread",
                            "size"],
                 "driver": traced[-1].spans, "sink": traced[-1].sink["spans"]},
                handle,
            )
    else:
        values = end_to_end(replays, setups)
        units = metrics.END_TO_END_UNITS
    record["metrics"] = {
        name: {"value": value, "unit": units[name], "n": samples}
        for name, (value, samples) in values.items()
    }
    return record


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']}  seed={record['seed']} trace={record['trace']} "
        f"replays={record['replays']}+{record['traced_replays']} ops={record['ops']} "
        f"ops_total={record['attempted']} ops_failed={record['failed']}"
    )
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    for name, metric in record["metrics"].items():
        print(f"   {name:30s} {metric['value']:>16.6g} {metric['unit']:8s} n={metric['n']}")
    print(f"   reference kernel before and after (context, not applied): "
          f"p50 {record['host_ref_ms_p50']:.3f} ms")
    shares = record.get("shares", {})
    if shares:
        print("   self time on the driver thread, share of the traced operation:")
        for span, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"      {span:28s} {100 * share:5.1f}%")
        print(f"      {'(sum)':28s} {100 * sum(shares.values()):5.1f}%")
    print(f"   sim_digest {record['sim_digest'][:16]}")


def contract_line(record: dict) -> str:
    """The last line of standard output the driver of the benchmark reads."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


# -- every workload, calibration -------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:  # no git here; the checkout need not be a repository either
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "commit": commit or "unknown",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def result_path(workload: Optional[str], seed: int, trace: int) -> Path:
    """Where a run leaves its result unless ``--out`` says otherwise."""
    return OUT / f"run_{workload or 'all'}_s{seed}_t{trace}.json"


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Every workload, each in its own fresh child interpreter."""
    records = {}
    for name in WORKLOADS:
        for traced in ([0, 1] if trace else [0]):
            command = [
                sys.executable, "-m", "bench.run", "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(traced),
            ]
            if smoke:
                command.append("--smoke")
            path = result_path(name, seed, traced)
            path.unlink(missing_ok=True)
            done = subprocess.run(command, cwd=ROOT, env=child_environment())
            if done.returncode not in (0, 1) or not path.exists():
                raise SystemExit(f"bench: {name} did not produce a result")
            with open(path) as handle:
                record = json.load(handle)["workloads"][name]
            if traced:
                records[name]["layers"] = record
            else:
                records[name] = record
    return {"env": environment(), "seed": seed, "seconds": seconds, "workloads": records}


def calibrate(count: int, seed: int, seconds: float) -> int:
    """K full invocations: spreads and odd/even gaps, written to ``bench/out/``.

    Copy the file to ``bench/baseline/`` by hand when it is to become the
    committed baseline of a box.
    """
    runs = [run_all(seed + index, seconds, trace=False, smoke=False) for index in range(count)]
    if not all(record["correct"] for run in runs for record in run["workloads"].values()):
        raise SystemExit("bench: a run failed its checks; nothing to calibrate")
    print(f"\n{'workload':18s} {'metric':18s} {'median':>12s} {'IQR/med':>8s} "
          f"{'range/med':>9s} {'odd/even':>8s} {'bound':>6s}")
    summary, worst = {}, 0
    for name in WORKLOADS:
        summary[name] = {}
        for metric, unit, better, bound in metrics.END_TO_END:
            values = [run["workloads"][name]["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = estimator.quartiles(values)
            spread = (q3 - q1) / median
            full = (max(values) - min(values)) / median
            odd, even = values[0::2], values[1::2]
            gap = abs(statistics.median(odd) - statistics.median(even)) / median if even else 0.0
            verdict = "" if gap <= bound else "  GAP EXCEEDS BOUND"
            if metric != "setup_s" and spread > 2 * bound:
                verdict += "  SPREAD ABOVE TWICE THE BOUND: raise R, or stop gating it"
            worst += gap > bound
            print(f"{name:18s} {metric:18s} {median:12.6g} {spread:8.4f} {full:9.4f} "
                  f"{gap:8.4f} {bound:6.2f}{verdict}")
            summary[name][metric] = {
                "unit": unit, "better": better, "bound": bound, "values": values,
                "median": median, "q1": q1, "q3": q3,
                "spread": spread, "range": full, "odd_even_gap": gap,
            }
        records = [run["workloads"][name] for run in runs]
        summary[name]["sim_digest"] = sorted({record["sim_digest"] for record in records})
        summary[name]["host_ref_ms_p50"] = [record["host_ref_ms_p50"] for record in records]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"calibrate_{platform.system().lower()}-{os.cpu_count()}cpu.json"
    with open(path, "w") as handle:
        json.dump(
            {"env": runs[0]["env"], "seeds": [run["seed"] for run in runs],
             "seconds": seconds, "workloads": summary},
            handle, indent=1,
        )
    print(f"written to {path.relative_to(ROOT)}")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long one run measures (buys seconds/3 replays, 5..8)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="Iridium-sized, 5 operations")
    parser.add_argument("--calibrate", type=int, metavar="K")
    parser.add_argument("--out", type=Path,
                        help="write the result here instead of bench/out/ (JSON)")
    args = parser.parse_args(argv)
    require_program()

    if args.calibrate:
        return calibrate(args.calibrate, args.seed, args.seconds)
    if args.workload is None:
        result = run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
        records = result["workloads"].values()
        correct = all(r["correct"] and r.get("layers", r)["correct"] for r in records)
    else:
        record = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke
        )
        result = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
                  "workloads": {args.workload: record}}
        correct = record["correct"]
        print_record(record)
    out = args.out or result_path(args.workload, args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    if args.workload is not None:
        print(contract_line(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
