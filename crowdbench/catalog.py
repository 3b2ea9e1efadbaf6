"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that the two agree.  Every workload reports every
metric: a per-layer metric of a layer the workload bypasses reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

END_TO_END: List[Tuple[str, str]] = [
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("acked_frac", "frac"),
    ("setup_s", "s"),
    ("server_cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MB"),
    ("test_error", "frac"),
]

PER_LAYER: List[Tuple[str, str]] = [
    # serve.client
    ("client.checkout_ms_p50", "ms"),
    ("client.checkins_ms_p50", "ms"),
    ("client.join_ms_p50", "ms"),
    ("client.requests_per_round", "count"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("client.connections_opened", "count"),
    # serve.service
    ("service.checkout_ms_p50", "ms"),
    ("service.checkins_ms_p50", "ms"),
    ("service.lock_wait_ms_p50", "ms"),
    ("service.decode_ms_p50", "ms"),
    ("service.encode_ms_p50", "ms"),
    ("service.errors", "count"),
    # derived: client time - server handler time - client codec time
    ("transport.gap_ms_p50", "ms"),
    ("transport.checkout_gap_ms_p50", "ms"),
    ("transport.checkins_gap_ms_p50", "ms"),
    # serve.wire
    ("wire.bytes_per_round", "bytes"),
    ("wire.client_codec_us_per_round", "us"),
    # core.device
    ("device.compute_ms", "ms"),
    ("device.observe_us", "us"),
    # core.server_core
    ("core.apply_us_per_checkin", "us"),
    ("core.checkout_us", "us"),
    ("core.batch_size_mean", "count"),
    ("core.duplicates_suppressed", "count"),
    ("core.rejected", "count"),
    # gateway.edge
    ("gateway.flush_ms_p50", "ms"),
    ("gateway.flush_size_mean", "count"),
    ("gateway.checkout_cache_hit_frac", "frac"),
    ("gateway.custody_requeues", "count"),
    # shard.frontend
    ("frontend.hop_ms_p50", "ms"),
    ("frontend.split_batches", "count"),
    ("frontend.stale_epoch_rejections", "count"),
    ("frontend.errors", "count"),
    # persist.checkpoint
    ("checkpoint.write_ms_p50", "ms"),
    ("checkpoint.bytes_per_round", "bytes"),
    ("checkpoint.snapshots_per_round", "count"),
    # simulation
    ("sim.events_per_sample", "count"),
    ("sim.event_loop_s", "s"),
    ("sim.data_s", "s"),
    ("sim.build_s", "s"),
    # the whole round
    ("round.traced_ms_p50", "ms"),
    ("round.unattributed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]


def report(values: Dict[str, float], catalogue: List[Tuple[str, str]]) -> Dict:
    """``{name: {"value", "unit"}}`` for every catalogued metric."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue
    }
