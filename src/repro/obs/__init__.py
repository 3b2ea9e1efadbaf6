"""Zero-dependency observability: metrics registry + request tracing.

Every layer of the stack reports into one :class:`MetricsRegistry`
(thread-safe counters, gauges, log-scale histograms with exact
percentile windows) and, on the serve path, a :class:`TraceRecorder`
that attributes per-request latency to named phases.  Both have
allocation-free null variants (:data:`NULL_REGISTRY`,
:data:`NULL_TRACER`) so instrumentation is unconditional in the code
and free when disabled.  The HTTP hosts, the service client and the
shard supervisor are the exception: their registry counters are their
public stats, so without a registry they count into a private one and
``metrics=`` only decides where the series are published.

Scrape a live service with ``GET /v1/metrics`` (Prometheus text or
``?format=json``) or the ``repro-obs`` CLI; the sharded front end
aggregates worker scrapes with :func:`merge_snapshots`.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    default_latency_buckets,
    default_size_buckets,
    label_snapshot,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import NullTraceRecorder, NULL_TRACER, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NullTraceRecorder",
    "NULL_TRACER",
    "TraceRecorder",
    "default_latency_buckets",
    "default_size_buckets",
    "label_snapshot",
    "merge_snapshots",
    "render_prometheus",
]
