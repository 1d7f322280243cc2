"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` carries the same lists (a test keeps them equal); the
definitions are in ``bench/README.md``.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)`` — what a user of the system sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("epoch_ms_p50", "ms", "lower", 0.25),
    ("sim_speed", "sim-s/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("update_bytes_p50", "B", "lower", 0.01),
)

#: ``(name, unit, better)`` — single layers; no bound, never gated.
PER_LAYER = (
    ("orbits.propagate_ms", "ms", "lower"),
    ("orbits.visibility_ms", "ms", "lower"),
    ("constellation.diff_since_ms", "ms", "lower"),
    ("constellation.self_ms", "ms", "lower"),
    ("constellation.state_at_ms", "ms", "lower"),
    ("graph.build_ms", "ms", "lower"),
    ("graph.diff_ms", "ms", "lower"),
    ("graph.links_changed", "count", "lower"),
    ("graph.links_structural", "count", "lower"),
    ("paths.advance_ms", "ms", "lower"),
    ("paths.query_ms", "ms", "lower"),
    ("paths.tables_carried", "count", "lower"),
    ("paths.solver_calls", "count", "lower"),
    ("paths.kernel_calls", "count", "lower"),
    ("paths.repaired_rows", "count", "lower"),
    ("paths.bypass_share", "%", "lower"),
    ("paths.cache_hit_share", "%", "higher"),
    ("database.set_state_ms", "ms", "lower"),
    ("coordinator.self_ms", "ms", "lower"),
    ("coordinator.epoch_ms_p95", "ms", "lower"),
    ("fanout.apply_ms", "ms", "lower"),
    ("fanout.sample_ms", "ms", "lower"),
    ("wire.encode_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("wire.slice_bytes", "B", "lower"),
    ("dist.ack_ms_p50", "ms", "lower"),
    ("dist.worker_rss_mb", "MB", "lower"),
    ("dist.worker_restarts", "count", "lower"),
    ("manager.apply_ms", "ms", "lower"),
    ("manager.sample_ms", "ms", "lower"),
    ("manager.machines", "count", "lower"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.frame_bytes", "B", "lower"),
    ("gateway.publish_ms", "ms", "lower"),
    ("gateway.encode_count", "count", "lower"),
    ("gateway.evictions", "count", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.delivery_ms_p50", "ms", "lower"),
    ("serve.delivery_ms_p95", "ms", "lower"),
    ("serve.query_ms_p50", "ms", "lower"),
    ("serve.query_ms_p95", "ms", "lower"),
    ("client.decode_ms", "ms", "lower"),
    ("replica.apply_ms", "ms", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.msgs_delivered", "count", "higher"),
    ("sim.msgs_dropped", "count", "lower"),
    ("sim.dart_latency_ms_mean", "ms", "lower"),
    ("net.msgs_per_s", "1/s", "higher"),
    ("net.send_us", "us", "lower"),
    ("net.apply_diff_ms", "ms", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.calculation_s", "s", "lower"),
    ("setup.coordinator_s", "s", "lower"),
    ("setup.gateway_s", "s", "lower"),
    ("setup.first_epoch_s", "s", "lower"),
    ("host.ref_ms_p10", "ms", "lower"),
    ("host.ref_ms_p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
