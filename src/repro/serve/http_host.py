"""``HttpHost`` — the one stdlib HTTP host every Crowd-ML endpoint runs on.

:class:`~repro.serve.service.CrowdService` (one
:class:`~repro.core.server_core.ServerCore`) and
:class:`~repro.shard.frontend.ShardFrontEnd` (N shard workers behind one
URL) differ only in their routes.  Everything else lives here, once:

* a :class:`~http.server.ThreadingHTTPServer` (one daemon thread per
  connection) whose handler sends **every** method through one
  dispatch — a ``PUT`` gets a typed 405 envelope and is counted like any
  other request, never stdlib's HTML 501;
* the lifecycle — ``start`` / ``serve_forever`` / ``stop`` / ``drain``
  and the context-manager protocol — with in-flight accounting so
  ``drain`` can wait for requests already inside a handler;
* the error contract: a :class:`~repro.serve.wire.WireError` keeps its
  own code and status, :class:`AuthenticationError` is 401,
  :class:`ProtocolError` 400, and any other exception a 500 — all typed
  ``error`` envelopes, and the connection closes after any of them;
* body reading (``Content-Length`` checked, :data:`MAX_BODY_BYTES` cap)
  and response writing;
* per-endpoint ``<metric_prefix>_requests_total`` /
  ``_errors_total{code=}`` / ``_request_seconds`` series — the only
  store of the ``requests_served`` / ``errors_returned`` /
  ``total_errors`` views — and the ``GET /v1/metrics`` rendering
  (Prometheus text, or the JSON snapshot with ``?format=json``).

A request is counted, timed and its trace finished *before* the response
is written: once a client holds its answer, every counter and scrape
already includes that request.

Both hosts serve the same wire protocol, so the route table is fixed
here; a subclass implements the ``_handle_join`` / ``_handle_checkout``
/ ``_handle_checkins`` / ``_handle_status`` methods it names.  A POST
handler receives the request body, a GET handler the parsed query
string; both receive the request's trace.  A handler returns
``(status, payload)`` or ``(status, payload, content_type)`` and
signals failure by raising.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, render_prometheus
from repro.obs.trace import NULL_TRACER
from repro.serve import wire
from repro.utils.exceptions import AuthenticationError, ProtocolError

#: Requests with a larger declared body are refused outright (413).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Metric label values for the per-endpoint series (fixed set, so label
#: cardinality is bounded whatever clients request).
_ENDPOINTS = ("join", "checkout", "checkins", "status", "metrics", "other")

_ROUTE_ENDPOINTS = {
    "/v1/join": "join",
    "/v1/checkout": "checkout",
    "/v1/checkins": "checkins",
    "/v1/status": "status",
    "/v1/metrics": "metrics",
}

#: The wire protocol's routes and the host method answering each.
_HANDLERS = {
    ("POST", "/v1/join"): "_handle_join",
    ("POST", "/v1/checkout"): "_handle_checkout",
    ("POST", "/v1/checkins"): "_handle_checkins",
    ("GET", "/v1/status"): "_handle_status",
    ("GET", "/v1/metrics"): "_handle_metrics",
}


class HttpHost:
    """Serve a subclass's routes over HTTP with the shared wire contract.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` picks a free ephemeral port — read the
        chosen one from :attr:`port` / :attr:`url`.  The socket is bound
        at construction; :meth:`start` or :meth:`serve_forever` serves it.
    metrics / tracer:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`, which
        ``GET /v1/metrics`` exposes and the counter views read, and
        :class:`~repro.obs.trace.TraceRecorder` (default: no-op).  A host
        without a registry counts into a private, unexposed one.
    """

    #: Prefix of this host's series (``service`` → ``service_requests_total``).
    metric_prefix = "host"
    #: Name of the thread :meth:`start` serves on.
    thread_name = "http-host"

    def __init__(self, host: str, port: int, metrics=None, tracer=None):
        self._exposed = metrics is not None
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._started = time.monotonic()
        registry = self._metrics
        prefix = self.metric_prefix
        self._m_requests = {
            endpoint: registry.counter(f"{prefix}_requests_total", endpoint=endpoint)
            for endpoint in _ENDPOINTS
        }
        self._m_latency = {
            endpoint: registry.histogram(f"{prefix}_request_seconds", endpoint=endpoint)
            for endpoint in _ENDPOINTS
        }
        self._m_inflight = registry.gauge(f"{prefix}_inflight_requests")
        self._idle = threading.Condition()
        self._inflight = 0
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        dispatch = self._dispatch

        class _Handler(BaseHTTPRequestHandler):
            # Per-request handler bound to the enclosing host.
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass  # keep request logs out of stdout; counters cover it

            def __getattr__(self, name):
                # stdlib looks up ``do_<METHOD>``; every method resolves
                # to the one dispatch, so none bypasses the contract.
                if name.startswith("do_"):
                    return lambda: dispatch(self)
                raise AttributeError(name)

        self._http = ThreadingHTTPServer((host, int(port)), _Handler)
        self._http.daemon_threads = True

    # -- lifecycle ------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since construction, on the monotonic clock."""
        return time.monotonic() - self._started

    @property
    def requests_served(self) -> int:
        return sum(counter.value for counter in self._m_requests.values())

    @property
    def errors_returned(self) -> Dict[str, int]:
        """Error responses sent, keyed by wire error code."""
        by_code: Dict[str, int] = {}
        for counter in self._metrics.series(f"{self.metric_prefix}_errors_total"):
            code = counter.labels["code"]
            by_code[code] = by_code.get(code, 0) + counter.value
        return by_code

    @property
    def total_errors(self) -> int:
        return sum(self.errors_returned.values())

    def start(self):
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ProtocolError(f"{type(self).__name__} already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name=self.thread_name, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro-serve`` entry point)."""
        try:
            self._serving = True
            self._http.serve_forever()
        finally:
            # An exception (e.g. SIGINT/SIGTERM) may land anywhere in
            # this frame — including *before* the serve loop's own
            # shutdown handshake is armed.  Resetting here means a
            # subsequent stop() never blocks waiting for a loop exit
            # that already happened (or never started).
            self._serving = False

    def stop(self) -> None:
        """Shut the listener down and release the port (idempotent).

        Safe at any lifecycle point: before the serve loop ever ran it
        only closes the bound socket — ``shutdown()`` would block forever
        waiting for a loop exit that can never happen.
        """
        if self._serving:
            self._http.shutdown()
            self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no request is mid-dispatch; True if quiesced.

        Called after the listener stopped accepting: connections already
        inside a handler finish and get their responses before the
        process exits (the graceful-shutdown half of the durability
        story — the final snapshot must postdate every acked update).
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request plumbing ----------------------------------------------- #

    def _dispatch(self, handler: BaseHTTPRequestHandler) -> None:
        """Route one request; every exit path sends exactly one response."""
        with self._idle:
            self._inflight += 1
        try:
            self._dispatch_inner(handler)
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _dispatch_inner(self, handler: BaseHTTPRequestHandler) -> None:
        method = handler.command
        code = None
        content_type = "application/json"
        parsed = urlparse(handler.path)
        endpoint = _ROUTE_ENDPOINTS.get(parsed.path, "other")
        trace = self._tracer.begin(f"{method} {parsed.path}")
        start = time.perf_counter()
        try:
            result = self._route(handler, method, parsed, trace)
            status, payload = result[0], result[1]
            if len(result) > 2:
                content_type = result[2]
        except wire.WireError as error:
            code = error.code
            status, payload = error.http_status, wire.encode_error(code, str(error))
        except AuthenticationError as error:
            code = wire.ErrorCode.AUTH_FAILED
            status, payload = 401, wire.encode_error(code, str(error))
        except ProtocolError as error:
            # Stopped-task rejections are raised as typed WireErrors by
            # the route handlers, so a plain ProtocolError reaching here
            # is a bad payload.
            code = wire.ErrorCode.MALFORMED
            status, payload = 400, wire.encode_error(code, str(error))
        except Exception as error:  # noqa: BLE001 - the host must survive
            code = wire.ErrorCode.INTERNAL
            status, payload = 500, wire.encode_error(
                code, f"{type(error).__name__}: {error}"
            )
        if code is not None:
            # Error paths may not have consumed the request body; on a
            # kept-alive connection the unread bytes would be parsed as
            # the next request line, so close instead of desyncing.
            handler.close_connection = True
        elapsed = time.perf_counter() - start
        self._m_requests[endpoint].inc()
        if code is not None:
            self._metrics.counter(
                f"{self.metric_prefix}_errors_total", endpoint=endpoint, code=code
            ).inc()
        self._m_latency[endpoint].observe(elapsed)
        trace.finish(status)
        self._send(handler, status, payload, content_type)

    def _route(self, handler: BaseHTTPRequestHandler, method: str, parsed, trace):
        name = _HANDLERS.get((method, parsed.path))
        if name is None:
            if parsed.path in _ROUTE_ENDPOINTS:
                raise wire.WireError(
                    wire.ErrorCode.METHOD_NOT_ALLOWED,
                    f"{method} not supported on {parsed.path}",
                )
            raise wire.WireError(wire.ErrorCode.NOT_FOUND, f"no route {parsed.path}")
        if method == "POST":
            return getattr(self, name)(self._read_body(handler), trace)
        return getattr(self, name)(parse_qs(parsed.query), trace)

    def _read_body(self, handler: BaseHTTPRequestHandler) -> bytes:
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise wire.WireError(wire.ErrorCode.MALFORMED, "bad Content-Length header")
        if length < 0:
            raise wire.WireError(wire.ErrorCode.MALFORMED, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise wire.WireError(
                wire.ErrorCode.PAYLOAD_TOO_LARGE,
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit",
            )
        return handler.rfile.read(length)

    def _send(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        payload: str,
        content_type: str = "application/json",
    ) -> None:
        body = payload.encode("utf-8")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            if handler.command != "HEAD":  # a HEAD answer carries no body
                handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to answer

    # -- observability -------------------------------------------------- #

    def _handle_metrics(self, query, trace):
        snapshot = self.metrics_snapshot()
        if query.get("format", ["text"])[-1] == "json":
            return 200, json.dumps(snapshot, sort_keys=True), "application/json"
        return 200, render_prometheus(snapshot), "text/plain; version=0.0.4"

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry's snapshot with scrape-time gauges (if exposed)."""
        if not self._exposed:
            return NULL_REGISTRY.snapshot()
        self._m_inflight.set(self._inflight)
        self._metrics.gauge(f"{self.metric_prefix}_uptime_seconds").set(
            self.uptime_seconds
        )
        return self._metrics.snapshot()

    def stats_snapshot(self) -> Dict[str, object]:
        """Uniform plain-dict counter snapshot (:mod:`repro.obs` idiom)."""
        errors = self.errors_returned
        return {
            "requests_served": self.requests_served,
            "errors_returned": errors,
            "total_errors": sum(errors.values()),
        }
