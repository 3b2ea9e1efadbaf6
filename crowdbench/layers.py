"""Per-layer numbers of a traced serve trial.

Three sources, none of them new instrumentation in the program:

* the benchmark's own spans around the public calls into each layer
  (``spans.py``) — client requests, wire codec, device compute, gateway;
* the server's existing ``GET /v1/metrics`` scrape, taken just before
  and just after the timed window (counters are window deltas);
* the server's existing ``--trace-dir`` phase spool (``decode``,
  ``lock_wait``, ``core_apply``, ``checkpoint``, ``encode`` per request),
  restricted to records that started inside the window.

The transport gap of an endpoint is the client's request time minus the
server's handler time minus the client's codec time: what the socket,
the kernel and the HTTP stacks cost.
"""

from __future__ import annotations

import glob
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from harness import median

_ENDPOINTS = ("checkout", "checkins")


def _counter(snapshot: Dict, name: str) -> float:
    return sum(e["value"] for e in snapshot.get("counters", []) if e["name"] == name)


def _gauge(snapshot: Dict, name: str) -> float:
    return sum(e["value"] for e in snapshot.get("gauges", []) if e["name"] == name)


def _histogram_totals(snapshot: Dict, name: str) -> Tuple[float, float]:
    count = total = 0.0
    for entry in snapshot.get("histograms", []):
        if entry["name"] == name:
            count += entry["count"]
            total += entry["sum"]
    return count, total


def _histogram_p50(snapshot: Dict, name: str, endpoint: str) -> float:
    for entry in snapshot.get("histograms", []):
        if entry["name"] == name and entry["labels"] == {"endpoint": endpoint}:
            value = entry["percentiles"]["p50"]
            return 0.0 if value is None else value * 1e3
    return 0.0


class ServeObservation:
    """Scrapes, spool and client counters around one traced window."""

    def __init__(self, control, trace_dir: str, client_stats: Callable[[], Dict]):
        self._control = control
        self._trace_dir = trace_dir
        self._client_stats = client_stats

    def _mark(self):
        mark = (time.perf_counter(), time.time(),
                self._control.metrics_snapshot(), self._client_stats())
        # Only the generator's own connections stay open in the window.
        self._control.close()
        return mark

    def before(self) -> None:
        self._start = self._mark()

    def after(self) -> None:
        self._end = self._mark()

    def _spool(self) -> List[Dict]:
        wall_start, wall_end = self._start[1], self._end[1]
        records = []
        for path in glob.glob(f"{self._trace_dir}/trace-*.jsonl"):
            with open(path) as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # a torn last line of a killed worker
                    if wall_start <= record["start"] <= wall_end:
                        records.append(record)
        return records

    def layers(self, threads: List[List], latencies: List[float],
               rounds: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer metrics and the round reconciliation table."""
        perf_start, perf_end = self._start[0], self._end[0]
        rounds = max(rounds, 1)
        durations: Dict[str, List[float]] = defaultdict(list)
        net: Dict[str, List[float]] = defaultdict(list)
        codec_of: Dict[str, List[float]] = defaultdict(list)
        sizes: Dict[str, int] = defaultdict(int)
        for spans in threads:
            codec = defaultdict(float)
            for name, start, end, parent, _, size in spans:
                if name.startswith("wire.") and parent >= 0:
                    codec[parent] += end - start
            for index, (name, start, end, parent, _, size) in enumerate(spans):
                if not perf_start <= start <= perf_end:
                    continue
                seconds = end - start
                durations[name].append(seconds)
                sizes[name] += size
                if name.startswith("client."):
                    net[name].append(seconds - codec[index])
                    codec_of[name].append(codec[index])

        def p50_ms(name):
            return median(durations[name]) * 1e3

        def count(name):
            return len(durations[name])

        records = self._spool()
        by_trace: Dict[str, List[Dict]] = defaultdict(list)
        for record in records:
            by_trace[record["trace"]].append(record)

        def server_p50(endpoint):
            return median([r["duration_ms"] for r in by_trace[f"POST /v1/{endpoint}"]])

        def phase_p50(phase, endpoint):
            return median([r["phases"][phase] for r in by_trace[f"POST /v1/{endpoint}"]
                           if phase in r["phases"]])

        def phase_per_round(phase):
            """Each endpoint's phase p50 times its requests per round."""
            return sum(phase_p50(phase, endpoint) * count(f"client.{endpoint}")
                       for endpoint in _ENDPOINTS) / rounds

        before, after = self._start[2], self._end[2]

        def delta(name):
            return _counter(after, name) - _counter(before, name)

        values: Dict[str, float] = {}
        stats_before, stats_after = self._start[3], self._end[3]
        values["client.checkout_ms_p50"] = p50_ms("client.checkout")
        values["client.checkins_ms_p50"] = p50_ms("client.checkins")
        # Joins are set-up traffic, before the window.
        values["client.join_ms_p50"] = median([
            end - start for spans in threads
            for name, start, end, *_ in spans if name == "client.join"]) * 1e3
        values["client.requests_per_round"] = (
            stats_after["requests_sent"] - stats_before["requests_sent"]) / rounds
        values["client.retries"] = stats_after["retries_used"] - stats_before["retries_used"]
        values["client.reconnects"] = stats_after["reconnects"] - stats_before["reconnects"]
        values["client.connections_opened"] = stats_after["connections_opened"]

        values["service.checkout_ms_p50"] = server_p50("checkout")
        values["service.checkins_ms_p50"] = server_p50("checkins")
        values["service.lock_wait_ms_p50"] = phase_per_round("lock_wait")
        values["service.decode_ms_p50"] = phase_per_round("decode")
        values["service.encode_ms_p50"] = phase_per_round("encode")
        values["service.errors"] = delta("service_errors_total")

        # What the client talks to: the worker, or the front end before it.
        sharded = any(e["name"] == "frontend_request_seconds"
                      for e in after.get("histograms", []))
        reconciliation = {"round_ms_p50": median(latencies) * 1e3,
                          "device.compute_ms": 0.0, "client.codec_ms": 0.0,
                          "server.handler_ms": 0.0, "frontend.hop_ms": 0.0,
                          "transport.gap_ms": 0.0}
        for endpoint in _ENDPOINTS:
            name = f"client.{endpoint}"
            share = count(name) / rounds
            worker = server_p50(endpoint)
            handler = (_histogram_p50(after, "frontend_request_seconds", endpoint)
                       if sharded else worker)
            gap = median(net[name]) * 1e3 - handler if net[name] else 0.0
            values[f"transport.{endpoint}_gap_ms_p50"] = gap
            reconciliation["transport.gap_ms"] += gap * share
            reconciliation["client.codec_ms"] += median(codec_of[name]) * 1e3 * share
            reconciliation["server.handler_ms"] += worker * share
            if sharded:
                reconciliation["frontend.hop_ms"] += (handler - worker) * share
        values["transport.gap_ms_p50"] = reconciliation["transport.gap_ms"]
        values["frontend.hop_ms_p50"] = reconciliation["frontend.hop_ms"]

        wire_names = [n for n in durations if n.startswith("wire.")]
        values["wire.bytes_per_round"] = sum(sizes[n] for n in wire_names) / rounds
        values["wire.client_codec_us_per_round"] = sum(
            sum(durations[n]) for n in wire_names) / rounds * 1e6

        values["device.compute_ms"] = p50_ms("device.complete_checkout")
        observed = sizes["device.observe"]
        values["device.observe_us"] = (
            sum(durations["device.observe"]) / observed * 1e6 if observed else 0.0)
        reconciliation["device.compute_ms"] = (
            values["device.compute_ms"] * count("device.complete_checkout") / rounds)

        batches, messages = (
            a - b for a, b in zip(_histogram_totals(after, "core_checkin_batch_size"),
                                  _histogram_totals(before, "core_checkin_batch_size")))
        batch_mean = messages / batches if batches else 0.0
        values["core.apply_us_per_checkin"] = (
            phase_p50("core_apply", "checkins") * 1e3 / batch_mean if batch_mean else 0.0)
        values["core.checkout_us"] = median([
            r["duration_ms"] - sum(r["phases"].values())
            for r in by_trace["POST /v1/checkout"]]) * 1e3
        values["core.batch_size_mean"] = batch_mean
        values["core.duplicates_suppressed"] = delta("core_duplicates_suppressed_total")
        values["core.rejected"] = _gauge(after, "core_rejected_messages")

        values["gateway.flush_ms_p50"] = p50_ms("gateway.flush")
        if "gateway" in stats_before:
            gateway_before, gateway_after = stats_before["gateway"], stats_after["gateway"]
            flushes = gateway_after["flushes"] - gateway_before["flushes"]
            flushed = gateway_after["messages_flushed"] - gateway_before["messages_flushed"]
            values["gateway.flush_size_mean"] = flushed / flushes if flushes else 0.0
            values["gateway.custody_requeues"] = (
                gateway_after["custody_requeues"] - gateway_before["custody_requeues"])
            served = count("gateway.checkout")
            values["gateway.checkout_cache_hit_frac"] = (
                1.0 - count("client.checkout") / served if served else 0.0)

        values["frontend.split_batches"] = delta("frontend_split_batches_total")
        values["frontend.stale_epoch_rejections"] = delta(
            "frontend_stale_epoch_rejections_total")
        values["frontend.errors"] = delta("frontend_errors_total")

        values["checkpoint.write_ms_p50"] = phase_p50("checkpoint", "checkins")
        values["checkpoint.bytes_per_round"] = delta("checkpoint_bytes_total") / rounds
        values["checkpoint.snapshots_per_round"] = (
            delta("checkpoint_snapshots_total") / rounds)

        values["round.traced_ms_p50"] = reconciliation["round_ms_p50"]
        attributed = sum(value for key, value in reconciliation.items()
                         if key != "round_ms_p50")
        reconciliation["unattributed_ms"] = reconciliation["round_ms_p50"] - attributed
        values["round.unattributed_ms"] = reconciliation["unattributed_ms"]
        return values, reconciliation
