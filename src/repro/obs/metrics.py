"""Zero-dependency metrics primitives: counters, gauges, histograms.

The observability layer every tier of the stack reports into.  Three
instrument kinds live in a named :class:`MetricsRegistry`:

* :class:`Counter` — a monotonically increasing total (requests served,
  duplicates suppressed, failovers).  Increments take a lock, so totals
  are **exact** under any number of threads — the stress suite hammers
  one counter from N threads and asserts the arithmetic sum.
* :class:`Gauge` — a last-value-wins sample (in-flight requests, fence
  epoch, most recent lock wait).
* :class:`Histogram` — fixed log-scale buckets (shared bounds across
  every process, so per-shard scrapes merge by bucket addition) plus a
  bounded window of recent raw observations, from which the snapshot
  reports **exact** p50/p95/p99 over the retained window rather than
  bucket-interpolated estimates.

Instruments are identified by ``(name, labels)``; asking the registry
for the same identity returns the same object, so call sites never need
to cache instruments themselves (though hot paths do, to skip the
lookup).

Disabled mode
-------------

:data:`NULL_REGISTRY` is a process-wide no-op registry: every instrument
request returns a shared singleton whose methods do nothing and allocate
nothing.  The protocol core, checkpointer, gateway aggregator, simulator
and traced spans bind it when no registry is passed
(``metrics or NULL_REGISTRY`` at construction) and pay only a no-op
method call when observability is off (the no-op suite pins the
zero-allocation property).

The HTTP hosts, :class:`~repro.serve.client.ServiceClient` and the shard
supervisor are different: their counters *are* their public stats
(``requests_served``, ``retries_used``, ``stats_snapshot()``, …), so
without a registry they create a private :class:`MetricsRegistry` and
read every view from its series.  Passing ``metrics=`` only decides
where those series are published — and, for a host, whether
``GET /v1/metrics`` exposes them.

Snapshots
---------

:meth:`MetricsRegistry.snapshot` returns a plain-dict document (flat
instrument lists, JSON-clean) that is the unit of exchange everywhere:
``GET /v1/metrics?format=json`` bodies, :func:`merge_snapshots` inputs
(the sharded front end merges per-worker scrapes), and
:func:`render_prometheus` inputs (the ``GET /v1/metrics`` text format).
Merged histograms recompute percentiles from the summed buckets (the
raw windows live in other processes), so aggregated quantiles are
log-bucket-resolution estimates while single-process quantiles stay
exact.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "default_latency_buckets",
    "default_size_buckets",
    "merge_snapshots",
    "label_snapshot",
    "render_prometheus",
]


def default_latency_buckets() -> Tuple[float, ...]:
    """Log-scale seconds bounds: 1µs … ~128s, factor 2 (28 buckets).

    Every process uses the same bounds, so cross-process merges add
    buckets index-wise.
    """
    return tuple(1e-6 * (2.0 ** k) for k in range(28))


def default_size_buckets() -> Tuple[float, ...]:
    """Log-scale count bounds: 1 … 16384, factor 2 (15 buckets)."""
    return tuple(float(2 ** k) for k in range(15))


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Thread-safe monotonic counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Thread-safe last-value-wins sample."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed log-scale buckets + an exact-percentile retention window.

    ``observe`` is O(log B) (bisect over ~28 bounds) plus a deque
    append; the window (default 512 observations) bounds memory while
    keeping snapshot percentiles exact over recent traffic.
    """

    __slots__ = (
        "name", "labels", "_lock", "_bounds", "_buckets", "_count",
        "_sum", "_min", "_max", "_window",
    )

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: Optional[Sequence[float]] = None,
        window: int = 512,
    ):
        self.name = name
        self.labels = dict(labels)
        bounds = tuple(
            float(b) for b in (
                buckets if buckets is not None else default_latency_buckets()
            )
        )
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._buckets = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._window: deque = deque(maxlen=max(int(window), 1))

    def observe(self, value: float) -> None:
        value = float(value)
        # Manual bisect: the bounds tuple is tiny and bisect.bisect_left
        # on a tuple attribute would be the same big-O anyway.
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        with self._lock:
            self._buckets[lo] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._window.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> Optional[float]:
        """Exact q-th percentile (0..100) over the retained window."""
        with self._lock:
            window = sorted(self._window)
        if not window:
            return None
        rank = max(0, min(len(window) - 1, round(q / 100.0 * (len(window) - 1))))
        return window[int(rank)]

    def _state(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: List[int] = []
            running = 0
            for count in self._buckets[:-1]:
                running += count
                cumulative.append(running)
            window = sorted(self._window)
            state = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "bounds": list(self._bounds),
                "cumulative": cumulative,  # per bound; +Inf is `count`
            }
        state["percentiles"] = _window_percentiles(window)
        return state


def _window_percentiles(window: Sequence[float]) -> Dict[str, Optional[float]]:
    if not window:
        return {"p50": None, "p95": None, "p99": None}
    last = len(window) - 1
    return {
        key: window[int(round(q / 100.0 * last))]
        for key, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))
    }


def _bucket_percentiles(
    bounds: Sequence[float], cumulative: Sequence[int], count: int
) -> Dict[str, Optional[float]]:
    """Estimate quantiles from merged buckets (upper bound of the bucket
    the rank falls in — the raw windows live in other processes)."""
    if count <= 0:
        return {"p50": None, "p95": None, "p99": None}
    out: Dict[str, Optional[float]] = {}
    for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        rank = q * count
        value: Optional[float] = None
        for bound, cum in zip(bounds, cumulative):
            if cum >= rank:
                value = bound
                break
        out[key] = value  # None = the rank fell in the +Inf overflow
    return out


class MetricsRegistry:
    """A named, thread-safe collection of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create on the
    ``(name, labels)`` identity; re-registering a name as a different
    kind raises.
    """

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = str(name)
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}

    def _get(self, kind, name: str, labels: Mapping[str, str], **kwargs):
        key = (str(name), _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind(str(name), labels, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        window: int = 512,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets, window=window)

    def series(self, name: str) -> List[Any]:
        """Every instrument registered under ``name``, whatever its labels."""
        with self._lock:
            return [i for i in self._instruments.values() if i.name == name]

    # -- export ---------------------------------------------------------- #

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict document of every instrument's current state."""
        with self._lock:
            instruments = list(self._instruments.values())
        counters, gauges, histograms = [], [], []
        for instrument in instruments:
            if isinstance(instrument, Counter):
                counters.append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            elif isinstance(instrument, Gauge):
                gauges.append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                })
            else:
                histograms.append({
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    **instrument._state(),
                })
        return {
            "enabled": True,
            "registry": self.name,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_text(self) -> str:
        return render_prometheus(self.snapshot())

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


# --------------------------------------------------------------------- #
# Disabled mode: shared no-op singletons                                #
# --------------------------------------------------------------------- #


class _NullCounter:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    labels: Dict[str, str] = {}
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> None:
        return None


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """No-op registry: every instrument is a shared do-nothing singleton.

    Instrument methods neither lock nor allocate, so disabled-mode
    instrumentation costs one no-op method call — the no-op suite pins
    this with an allocation-count gate on the check-in hot path.
    """

    enabled = False
    name = "null"

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, buckets=None, window: int = 512,
                  **labels: str) -> _NullHistogram:
        return NULL_HISTOGRAM

    def series(self, name: str) -> List[Any]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {
            "enabled": False,
            "registry": "null",
            "counters": [],
            "gauges": [],
            "histograms": [],
        }

    def render_text(self) -> str:
        return render_prometheus(self.snapshot())

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


#: Process-wide disabled registry; ``metrics or NULL_REGISTRY`` at
#: construction sites makes instrumentation unconditional and free.
NULL_REGISTRY = NullRegistry()


# --------------------------------------------------------------------- #
# Snapshot algebra: label, merge, render                                #
# --------------------------------------------------------------------- #


def label_snapshot(snapshot: Mapping[str, Any], **labels: str) -> Dict[str, Any]:
    """A copy of ``snapshot`` with ``labels`` stamped onto every entry.

    The sharded front end tags each worker's scrape with
    ``shard="<k>"`` before merging, so per-shard series stay
    distinguishable in the aggregate.
    """
    out = {
        "enabled": bool(snapshot.get("enabled", True)),
        "registry": str(snapshot.get("registry", "")),
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    for kind in ("counters", "gauges", "histograms"):
        for entry in snapshot.get(kind, []):
            stamped = dict(entry)
            stamped["labels"] = {**dict(entry.get("labels", {})), **labels}
            out[kind].append(stamped)
    return out


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge snapshot documents: counters add, gauges last-wins,
    histograms add bucket-wise (identical bounds required) with
    percentiles re-estimated from the merged buckets.

    Entries with distinct ``(name, labels)`` identities pass through
    side by side — tag per-source labels first (:func:`label_snapshot`)
    to keep sources distinguishable.
    """
    counters: Dict[Tuple, Dict[str, Any]] = {}
    gauges: Dict[Tuple, Dict[str, Any]] = {}
    histograms: Dict[Tuple, Dict[str, Any]] = {}
    names: List[str] = []
    for snapshot in snapshots:
        registry = str(snapshot.get("registry", ""))
        if registry and registry not in names:
            names.append(registry)
        for entry in snapshot.get("counters", []):
            key = (entry["name"], _label_key(entry.get("labels", {})))
            slot = counters.get(key)
            if slot is None:
                counters[key] = dict(entry)
            else:
                slot["value"] += entry["value"]
        for entry in snapshot.get("gauges", []):
            key = (entry["name"], _label_key(entry.get("labels", {})))
            gauges[key] = dict(entry)
        for entry in snapshot.get("histograms", []):
            key = (entry["name"], _label_key(entry.get("labels", {})))
            slot = histograms.get(key)
            if slot is None:
                histograms[key] = dict(entry)
                continue
            if list(slot["bounds"]) != list(entry["bounds"]):
                raise ValueError(
                    f"histogram {entry['name']!r}: cannot merge differing "
                    f"bucket bounds"
                )
            slot["count"] += entry["count"]
            slot["sum"] += entry["sum"]
            mins = [m for m in (slot["min"], entry["min"]) if m is not None]
            maxes = [m for m in (slot["max"], entry["max"]) if m is not None]
            slot["min"] = min(mins) if mins else None
            slot["max"] = max(maxes) if maxes else None
            slot["cumulative"] = [
                a + b for a, b in zip(slot["cumulative"], entry["cumulative"])
            ]
    for slot in histograms.values():
        slot["percentiles"] = _bucket_percentiles(
            slot["bounds"], slot["cumulative"], slot["count"]
        )
    return {
        "enabled": True,
        "registry": "+".join(names) if names else "merged",
        "counters": [counters[key] for key in sorted(counters)],
        "gauges": [gauges[key] for key in sorted(gauges)],
        "histograms": [histograms[key] for key in sorted(histograms)],
    }


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{key}="{value}"' for key, value in sorted(
            (str(k), str(v)) for k, v in labels.items()
        )
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int; keep it numeric
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot document as Prometheus-style exposition text.

    Histograms emit the standard ``_bucket``/``_sum``/``_count`` series
    plus ``{quantile="…"}`` summary lines carrying the snapshot's
    p50/p95/p99.
    """
    lines: List[str] = []
    typed: set = set()

    def _type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", []):
        name = entry["name"]
        _type_line(name, "counter")
        lines.append(
            f"{name}{_format_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", []):
        name = entry["name"]
        _type_line(name, "gauge")
        lines.append(
            f"{name}{_format_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", []):
        name = entry["name"]
        labels = entry.get("labels", {})
        _type_line(name, "histogram")
        for bound, cum in zip(entry["bounds"], entry["cumulative"]):
            le = 'le="%s"' % repr(bound)
            lines.append(f"{name}_bucket{_format_labels(labels, le)} {cum}")
        inf = 'le="+Inf"'
        lines.append(
            f"{name}_bucket{_format_labels(labels, inf)} {entry['count']}"
        )
        lines.append(
            f"{name}_sum{_format_labels(labels)} {_format_value(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_format_labels(labels)} {entry['count']}"
        )
        for key, value in entry.get("percentiles", {}).items():
            if value is None:
                continue
            quantile = 'quantile="%s"' % (
                {"p50": "0.5", "p95": "0.95", "p99": "0.99"}[key]
            )
            lines.append(
                f"{name}{_format_labels(labels, quantile)} "
                f"{_format_value(value)}"
            )
    return "\n".join(lines) + "\n"
