"""Concurrency and overhead guarantees of the metrics layer.

Two properties the whole subsystem leans on:

* **exactness under threads** — counters and histogram counts are
  lock-protected, so N threads hammering one registry produce the exact
  arithmetic totals (no lost updates), and cumulative bucket counts stay
  monotone — including the host's error views, read while handler
  threads register new per-code series;
* **free when off** — the null instruments allocate nothing, so the
  check-in hot path pays only no-op method calls when observability is
  disabled.
"""

import gc
import http.client
import sys
import threading

from repro.core.auth import DeviceRegistry
from repro.core.protocol import CheckoutRequest
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.trace import NULL_TRACER
from repro.serve import CrowdService, wire

from tests.persist.conftest import make_core, make_message

THREADS = 8
ITERATIONS = 2_000


class TestThreadStress:
    def test_counter_totals_are_exact(self):
        registry = MetricsRegistry("stress")
        barrier = threading.Barrier(THREADS)

        def hammer(index):
            barrier.wait()
            for _ in range(ITERATIONS):
                # Re-look up every time: get-or-create must be safe too.
                registry.counter("shared_total").inc()
                registry.counter("per_thread_total", thread=str(index)).inc(2)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared_total").value == THREADS * ITERATIONS
        for index in range(THREADS):
            counter = registry.counter("per_thread_total", thread=str(index))
            assert counter.value == 2 * ITERATIONS

    def test_histogram_counts_exact_and_buckets_monotone(self):
        registry = MetricsRegistry("stress")
        hist = registry.histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
        barrier = threading.Barrier(THREADS)
        stop = threading.Event()
        monotone_ok = []

        def hammer():
            barrier.wait()
            for step in range(ITERATIONS):
                hist.observe(float(step % 8))

        def watch():
            # Concurrent snapshots must always see internally consistent
            # (monotone, capped-by-count) cumulative buckets.
            ok = True
            while not stop.is_set():
                state = hist._state()
                cumulative = state["cumulative"]
                if cumulative != sorted(cumulative):
                    ok = False
                if cumulative and cumulative[-1] > state["count"]:
                    ok = False
                if state["count"] > THREADS * ITERATIONS:
                    ok = False
            monotone_ok.append(ok)

        watcher = threading.Thread(target=watch)
        watcher.start()
        threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        assert monotone_ok == [True]
        state = hist._state()
        assert state["count"] == THREADS * ITERATIONS
        assert state["cumulative"][-1] <= state["count"]
        # Every observation below the top bound: +Inf overflow is empty.
        assert state["cumulative"][-1] == state["count"]

    def test_gauge_last_writer_wins_is_a_written_value(self):
        registry = MetricsRegistry("stress")
        gauge = registry.gauge("level")
        written = {float(v) for v in range(THREADS)}

        def hammer(value):
            for _ in range(ITERATIONS):
                gauge.set(value)

        threads = [
            threading.Thread(target=hammer, args=(float(i),))
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value in written


def _request(port, method, path, body):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(method, path, body=body)
        connection.getresponse().read()
    finally:
        connection.close()


class TestHostCounterStress:
    #: (method, path, body) → the typed error code the host answers with.
    FAULTS = [
        (("PUT", "/v1/checkins", b"{}"), wire.ErrorCode.METHOD_NOT_ALLOWED),
        (("POST", "/v2/nope", b"{}"), wire.ErrorCode.NOT_FOUND),
        (("POST", "/v1/checkins", b"garbage"), wire.ErrorCode.MALFORMED),
        (
            (
                "POST", "/v1/checkout",
                wire.encode_checkout_request(
                    CheckoutRequest(99, "forged", 0.0)
                ).encode(),
            ),
            wire.ErrorCode.AUTH_FAILED,
        ),
    ]
    PER_THREAD = 40  # a multiple of len(FAULTS): every code lands equally

    def test_error_views_exact_under_concurrent_reads(self):
        barrier = threading.Barrier(THREADS + 1)
        stop = threading.Event()
        read_failures = []

        def send(index, port):
            barrier.wait()
            for step in range(self.PER_THREAD):
                request, _ = self.FAULTS[(index + step) % len(self.FAULTS)]
                _request(port, *request)

        def read(host):
            barrier.wait()
            while not stop.is_set():
                try:
                    host.total_errors
                    host.stats_snapshot()
                except Exception as error:  # noqa: BLE001 - recorded
                    read_failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings between threads
        try:
            with CrowdService(make_core()) as host:
                reader = threading.Thread(target=read, args=(host,))
                reader.start()
                senders = [
                    threading.Thread(target=send, args=(i, host.port))
                    for i in range(THREADS)
                ]
                for thread in senders:
                    thread.start()
                for thread in senders:
                    thread.join(timeout=60)
                stop.set()
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [reader, *senders])
        total = THREADS * self.PER_THREAD
        each = total // len(self.FAULTS)
        assert read_failures == []
        assert host.errors_returned == {code: each for _, code in self.FAULTS}
        assert host.total_errors == host.requests_served == total
        assert host.stats_snapshot() == {
            "requests_served": total,
            "errors_returned": host.errors_returned,
            "total_errors": total,
        }


class TestNoOpMode:
    def test_core_without_metrics_binds_null_singletons(self):
        core = make_core()
        assert core._m_batches is NULL_REGISTRY.counter("x")
        assert core._m_duplicates is NULL_REGISTRY.counter("x")
        assert core._m_batch_size is NULL_REGISTRY.histogram("x")
        assert core._m_stopped is NULL_REGISTRY.gauge("x")

    def test_null_instruments_allocate_nothing(self):
        counter = NULL_REGISTRY.counter("x")
        gauge = NULL_REGISTRY.gauge("x")
        hist = NULL_REGISTRY.histogram("x")
        trace = NULL_TRACER.begin("warm")
        value = 1.5

        def spin():
            for _ in range(512):
                counter.inc()
                counter.inc(3)
                gauge.set(value)
                gauge.inc()
                gauge.dec()
                hist.observe(value)
                NULL_REGISTRY.counter("y")
                NULL_TRACER.begin("op")
                with trace.phase("decode"):
                    pass
                trace.add_phase("lock_wait", value)
                trace.finish(200)

        spin()  # warm: any lazy interning happens here
        gc.disable()
        try:
            gc.collect()
            # Interpreter-internal churn (free-list growth, caches) can
            # move the block count by a few either way; a path that is
            # genuinely allocation-free shows a zero delta on at least
            # one trial, while a single real allocation per iteration
            # would show +512 on every trial.
            deltas = []
            for _ in range(5):
                before = sys.getallocatedblocks()
                spin()
                deltas.append(sys.getallocatedblocks() - before)
        finally:
            gc.enable()
        assert min(deltas) <= 0, deltas

    def test_checkin_hot_path_is_uninstrumented_when_disabled(self):
        """Disabled mode must not add per-message work to check-ins.

        The per-batch boundary instruments are null singletons (pinned
        above); here the whole handle_checkins path runs under a
        disabled registry and the null instruments observe no calls —
        i.e. nothing on the per-message path even *reaches* a metric.
        """
        import numpy as np

        registry = DeviceRegistry(server_key="obs-test")
        core = make_core(registry=registry)
        assert isinstance(core._metrics, NullRegistry)
        rng = np.random.default_rng(7)
        token = core.register_device(0)
        messages = [
            make_message(core, 0, token, rng, seq=seq) for seq in range(16)
        ]
        acks = core.handle_checkins(messages)
        assert sum(ack is not None for ack in acks) == 16
        # The shared null singletons report zero forever — no hidden
        # real instruments were constructed by the disabled path.
        assert NULL_REGISTRY.counter("x").value == 0
        assert NULL_REGISTRY.histogram("x").count == 0
