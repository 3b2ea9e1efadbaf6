"""Live-server tests: CrowdService request validation and robustness.

Each test talks real HTTP over loopback.  The overriding contract: no
payload — malformed, version-mismatched, stale, oversized, or plain
garbage — crashes the service; every rejection is a 4xx/5xx ``error``
envelope and the very next valid request still succeeds.

The host-level cases (routing, body limits, fuzz bodies, internal
errors, lifecycle) live in the ``Host*`` mixins and run twice: against a
``CrowdService`` in ``TestRejections`` / ``TestRobustness``, and against
a ``ShardFrontEnd`` over one in-process worker in ``TestFrontEndHost`` —
both answer through the one shared ``HttpHost``.  ``TestSingleStore``
pins that every counter view reads its component's registry series.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.core.protocol import CheckinMessage, CheckoutRequest
from repro.core.server_core import ServerCore
from repro.models import MulticlassLogisticRegression
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    CrowdService,
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
    wire,
)
from repro.shard import ShardFrontEnd, ShardRouter, StaticEndpoints

DIM, CLASSES = 3, 2
NUM_PARAMETERS = MulticlassLogisticRegression(DIM, CLASSES).num_parameters


def make_core(max_iterations=1000, target_error=None):
    return ServerCore(
        MulticlassLogisticRegression(DIM, CLASSES),
        config=ServerConfig(
            max_iterations=max_iterations, target_error=target_error
        ),
    )


@pytest.fixture()
def service():
    with CrowdService(make_core()) as live:
        yield live


@pytest.fixture()
def make_host():
    """Builds unstarted hosts; ``TestFrontEndHost`` overrides it."""
    return lambda port=0: CrowdService(make_core(), port=port)


@pytest.fixture()
def host(make_host):
    with make_host() as live:
        yield live


@pytest.fixture()
def make_frontend():
    """Builds unstarted front ends over one in-process worker."""
    with CrowdService(make_core()) as worker:
        endpoints = StaticEndpoints({0: worker.url})
        yield lambda port=0, **kwargs: ShardFrontEnd(
            ShardRouter(1), endpoints, port=port, **kwargs
        )


def break_checkout(host, monkeypatch):
    """Plant a genuine bug on the host's own checkout path."""
    def boom(*args):
        raise RuntimeError("synthetic handler bug")

    if isinstance(host, CrowdService):
        monkeypatch.setattr(host.core, "handle_checkout", boom)
    else:
        monkeypatch.setattr(host.router, "shard_of", boom)


def raw_post(url, path, body: bytes, headers=None, method="POST"):
    """Send raw bytes, returning (status, body) without raising."""
    request = urllib.request.Request(
        url + path, data=body, method=method,
        headers=headers or {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def checkin_for(client, device_id, token):
    response = client.checkout(CheckoutRequest(device_id, token, 0.0))
    return CheckinMessage(
        device_id=device_id, token=token,
        gradient=np.full(NUM_PARAMETERS, 0.01),
        num_samples=1, noisy_error_count=0,
        noisy_label_counts=np.array([1, 0], dtype=np.int64),
        checkout_iteration=response.server_iteration,
    )


class TestHappyPath:
    def test_join_checkout_checkin_status(self, service):
        client = ServiceClient(service.url)
        token = client.join(7)
        response = client.checkout(CheckoutRequest(7, token, 0.0))
        assert response.parameters.shape == (NUM_PARAMETERS,)
        result = client.checkins([checkin_for(client, 7, token)])
        assert result.acks[0] is not None
        assert result.server_iteration == 1
        status = client.status(include_parameters=True)
        assert status.iteration == 1
        assert status.registered_devices == 1
        assert status.parameters.shape == (NUM_PARAMETERS,)
        assert service.total_errors == 0

    def test_batch_checkin_maps_onto_handle_checkins(self, service):
        client = ServiceClient(service.url)
        tokens = {m: client.join(m) for m in range(4)}
        batch = [checkin_for(client, m, tokens[m]) for m in range(4)]
        # Poison one message with a bad token: batch semantics reject
        # that slot (null ack) and apply the rest.
        batch[2] = CheckinMessage(
            device_id=2, token="forged", gradient=batch[2].gradient,
            num_samples=1, noisy_error_count=0,
            noisy_label_counts=batch[2].noisy_label_counts,
            checkout_iteration=0,
        )
        result = client.checkins(batch)
        assert [ack is not None for ack in result.acks] == [
            True, True, False, True]
        assert service.core.iteration == 3
        assert service.core.rejected_messages == 1

    def test_join_registers_with_core_registry(self, service):
        client = ServiceClient(service.url)
        client.join(3)
        assert service.core.registry.is_registered(3)


class HostRejections:
    """Rejections every host answers alike, whatever routes it serves."""

    def test_unknown_route_is_404_and_method_405(self, host):
        status, payload = raw_post(host.url, "/v2/checkout", b"{}")
        assert status == 404
        assert wire.decode_error(payload).code == wire.ErrorCode.NOT_FOUND
        request = urllib.request.Request(host.url + "/v1/checkout")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_other_methods_get_typed_errors_and_are_counted(self, host, method):
        status, payload = raw_post(host.url, "/v1/checkins", b"{}", method=method)
        assert status == 405
        assert wire.decode_error(payload).code == wire.ErrorCode.METHOD_NOT_ALLOWED
        status, payload = raw_post(host.url, "/v2/checkins", b"{}", method=method)
        assert status == 404
        assert wire.decode_error(payload).code == wire.ErrorCode.NOT_FOUND
        # HEAD gets the same typed status, without a body.
        assert raw_post(host.url, "/v1/checkins", None, method="HEAD") == (405, b"")
        assert host.requests_served == 3
        assert host.errors_returned == {
            wire.ErrorCode.METHOD_NOT_ALLOWED: 2, wire.ErrorCode.NOT_FOUND: 1,
        }

    def test_oversized_body_is_413(self, host):
        from repro.serve.service import MAX_BODY_BYTES

        request = urllib.request.Request(
            host.url + "/v1/checkout", data=b"x", method="POST",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413

    @pytest.mark.parametrize("length", ["-1", "ten"])
    def test_bad_content_length_is_400(self, host, length):
        status, payload = raw_post(
            host.url, "/v1/checkout", b"x", headers={"Content-Length": length}
        )
        assert status == 400
        assert wire.decode_error(payload).code == wire.ErrorCode.MALFORMED

    def test_stop_before_start_releases_port(self, make_host):
        # Construction binds the socket; stop() without a serve loop must
        # close it without blocking on a shutdown handshake.
        first = make_host()
        port = first.port
        first.stop()
        second = make_host(port=port)  # port is free again
        second.stop()
        second.stop()  # idempotent at any lifecycle point


class TestRejections(HostRejections):
    def test_unknown_device_is_401(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(RemoteAuthenticationError) as excinfo:
            client.checkout(CheckoutRequest(99, "nope", 0.0))
        assert excinfo.value.http_status == 401
        assert excinfo.value.code == wire.ErrorCode.AUTH_FAILED

    def test_stale_traffic_after_stop_is_409(self):
        with CrowdService(make_core(max_iterations=1)) as service:
            client = ServiceClient(service.url)
            token = client.join(0)
            message = checkin_for(client, 0, token)
            assert client.checkins([message]).stopped
            with pytest.raises(RemoteServiceError) as excinfo:
                client.checkout(CheckoutRequest(0, token, 1.0))
            assert excinfo.value.http_status == 409
            assert excinfo.value.code == wire.ErrorCode.STOPPED
            with pytest.raises(RemoteServiceError) as excinfo:
                client.checkins([message])
            assert excinfo.value.http_status == 409

    def test_version_mismatch_is_426(self, service):
        body = json.dumps({
            "protocol": wire.PROTOCOL_VERSION + 1,
            "kind": "checkout_request",
            "body": {"type": "checkout_request", "device_id": 0,
                     "token": "t", "request_time": 0.0},
        }).encode()
        status, payload = raw_post(service.url, "/v1/checkout", body)
        assert status == 426
        assert wire.decode_error(payload).code == wire.ErrorCode.VERSION_MISMATCH

    def test_join_disabled(self):
        core = make_core()
        core.register_device(0)
        with CrowdService(core, allow_join=False) as service:
            client = ServiceClient(service.url)
            with pytest.raises(RemoteAuthenticationError):
                client.join(1)
            # Pre-provisioned devices still work.
            token = core.registry.register(0)
            assert client.checkout(
                CheckoutRequest(0, token, 0.0)).parameters.size

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.status()
        assert excinfo.value.code == wire.ErrorCode.UNREACHABLE


class HostRobustness:
    """No request body, however garbled, takes a host down."""

    FUZZ_BODIES = [
        b"",
        b"garbage",
        b"\x00\x01\x02\xff\xfe",
        b"{",
        b'{"protocol": 2}',
        b'[]',
        b'{"protocol": 2, "kind": "checkout_request", "body": {}}',
        b'{"protocol": 2, "kind": "checkin_batch", "body": {"messages": [{}]}}',
        json.dumps({"protocol": 2, "kind": "checkin_batch", "body": {
            "messages": [{"type": "checkin", "device_id": "x"}]}}).encode(),
        json.dumps({"protocol": 2, "kind": "checkout_request", "body": {
            "type": "checkout_request", "device_id": 0, "token": "t",
            "request_time": "soon"}}).encode(),
        "∞ unicode ≠ ascii".encode("utf-8"),
    ]

    @pytest.mark.parametrize("path", ["/v1/checkout", "/v1/checkins", "/v1/join"])
    def test_fuzz_bodies_are_4xx_and_server_survives(self, host, path):
        for body in self.FUZZ_BODIES:
            status, payload = raw_post(host.url, path, body)
            assert 400 <= status < 500, (path, body[:40], status)
            # Every error is a decodable typed envelope.
            error = wire.decode_error(payload)
            assert error.code in (
                wire.ErrorCode.MALFORMED, wire.ErrorCode.VERSION_MISMATCH,
                wire.ErrorCode.AUTH_FAILED,
            )
        # The host is still fully functional afterwards.
        client = ServiceClient(host.url)
        token = client.join(1)
        result = client.checkins([checkin_for(client, 1, token)])
        assert result.acks[0] is not None
        assert host.total_errors == len(self.FUZZ_BODIES)

    def test_internal_errors_are_500_and_survivable(self, host, monkeypatch):
        # Force a genuine bug in a handler: the response must be a typed
        # 500 envelope, and the next request must succeed.
        client = ServiceClient(host.url)
        token = client.join(0)
        break_checkout(host, monkeypatch)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.checkout(CheckoutRequest(0, token, 0.0))
        assert excinfo.value.http_status == 500
        assert excinfo.value.code == wire.ErrorCode.INTERNAL
        monkeypatch.undo()
        assert client.checkout(CheckoutRequest(0, token, 0.0)) is not None
        assert host.errors_returned[wire.ErrorCode.INTERNAL] == 1

    def test_uptime_ignores_wall_clock_steps(self, host, monkeypatch):
        # Uptime tells failover incarnations apart; a wall clock stepped
        # back an hour after start must not make it negative.
        wall_clock = time.time
        monkeypatch.setattr(time, "time", lambda: wall_clock() - 3600.0)
        assert ServiceClient(host.url).status().uptime_seconds >= 0.0


class TestRobustness(HostRobustness):
    def test_wrong_envelope_kind_on_route(self, service):
        # A status envelope POSTed to /v1/checkout: valid wire, wrong kind.
        status, payload = raw_post(
            service.url, "/v1/checkout",
            wire.encode_envelope("status", {}).encode(),
        )
        assert status == 400
        assert wire.decode_error(payload).code == wire.ErrorCode.MALFORMED


class TestFrontEndHost(HostRejections, HostRobustness):
    """The host contract through a ShardFrontEnd over one in-process worker."""

    @pytest.fixture()
    def make_host(self, make_frontend):
        return make_frontend


class TestSingleStore:
    """Every counter view reads its component's own registry series —
    a passed registry's, or the private one built without ``metrics=``."""

    #: view → the counter series behind it, per component.
    VIEWS = {
        "service": {
            "requests_served": "service_requests_total",
            "total_errors": "service_errors_total",
        },
        "frontend": {
            "requests_served": "frontend_requests_total",
            "total_errors": "frontend_errors_total",
            "split_batches": "frontend_split_batches_total",
            "stale_epoch_rejections": "frontend_stale_epoch_rejections_total",
        },
        "client": {
            "requests_sent": "client_requests_total",
            "connections_opened": "client_connections_opened_total",
            "reconnects": "client_reconnects_total",
            "retries_used": "client_retries_total",
        },
    }

    @pytest.mark.parametrize("shared", [True, False], ids=["registry", "private"])
    @pytest.mark.parametrize("kind", ["service", "frontend", "client"])
    def test_views_equal_the_series(self, kind, shared, make_frontend, monkeypatch):
        registry = MetricsRegistry("views") if shared else None
        if kind == "frontend":
            host = make_frontend(metrics=registry)
        else:
            host = CrowdService(
                make_core(), metrics=registry if kind == "service" else None
            )
        with host:
            client = ServiceClient(
                host.url, retries=2, backoff=0.001,
                metrics=registry if kind == "client" else None,
            )
            token = client.join(0)
            client.checkins([checkin_for(client, 0, token)])
            raw_post(host.url, "/v1/checkins", b"garbage")
            break_checkout(host, monkeypatch)
            with pytest.raises(RemoteServiceError):
                client.checkout(CheckoutRequest(0, token, 0.0))
        # join + checkout + checkins, then one malformed and three 500s.
        assert host.requests_served == 7
        assert host.errors_returned == {
            wire.ErrorCode.MALFORMED: 1, wire.ErrorCode.INTERNAL: 3,
        }
        assert client.requests_sent == 6
        assert client.retries_used == 2
        component = client if kind == "client" else host
        counters = component._metrics.snapshot()["counters"]
        if shared:
            assert component._metrics is registry
        for view, name in self.VIEWS[kind].items():
            total = sum(c["value"] for c in counters if c["name"] == name)
            assert getattr(component, view) == total, view
            assert component.stats_snapshot()[view] == total, view
        if kind != "client":
            by_code = {}
            for counter in counters:
                if counter["name"] == f"{host.metric_prefix}_errors_total":
                    code = counter["labels"]["code"]
                    by_code[code] = by_code.get(code, 0) + counter["value"]
            assert host.errors_returned == by_code
            assert host.stats_snapshot()["errors_returned"] == by_code
