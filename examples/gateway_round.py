"""Gateway round: N devices × G gateways against a live ``repro-serve``.

The two-tier topology walkthrough: a crowd of
:class:`~repro.serve.RemoteDevice`\\ s reaches the server through
:class:`~repro.gateway.edge.EdgeGateway`\\ s instead of each device
holding its own HTTP conversation.  Each gateway pools its segment's
check-ins and flushes them as single batched ``POST /v1/checkins``
requests, and (by default) serves its whole segment's check-outs from
one cached upstream checkout per flush epoch — so a segment of D
devices costs ~2 requests per epoch instead of 2·D.

Three acts:

1. Per-device baseline: every device talks to the service directly —
   ``2·N`` requests per round of the crowd.
2. The same crowd behind G gateways: device→gateway assignment comes
   from the ``repro.registry.GATEWAY_ASSIGNMENTS`` policy registry, and
   the request counters show the collapse.
3. Sequential parity: a ``flush_size=1`` pass-through gateway replays
   act 1's schedule and lands on **bit-identical** final parameters —
   the tier is an optimization, not a semantic change.

Usage (self-hosting, prints everything)::

    PYTHONPATH=src python examples/gateway_round.py

Or against an externally launched server (fresh per run — the script
drives the task to completion)::

    repro-serve --num-features 50 --num-classes 10 --max-iterations 100000 &
    PYTHONPATH=src python examples/gateway_round.py --server-url http://127.0.0.1:8900
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.server_core import ServerCore
from repro.gateway import TwoTierTopology
from repro.gateway.edge import EdgeGateway
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import CrowdService, HttpTransport, RemoteDevice

NUM_DEVICES = 12
NUM_GATEWAYS = 3
NUM_ROUNDS = 4
BATCH_SIZE = 2
NUM_FEATURES = 50
NUM_CLASSES = 10
SEED = 7


def build_core() -> ServerCore:
    model = MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)
    optimizer = paper_sgd(
        model.init_parameters(),
        learning_rate_constant=1.0,
        projection_radius=100.0,
    )
    return ServerCore(model, optimizer, ServerConfig(max_iterations=100_000))


def drive_crowd(url: str, gateways=None, assignment=None):
    """Run a fixed schedule of device rounds; returns final status + stats.

    ``gateways`` is a list of :class:`EdgeGateway`; ``assignment`` maps
    device index → gateway index.  Without them every device uploads its
    own round (the documented one-message-per-round fallback).
    """
    transport = HttpTransport(url)
    model = MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)
    devices = []
    for d in range(NUM_DEVICES):
        gateway = gateways[assignment[d]] if gateways is not None else None
        devices.append(RemoteDevice.join(
            transport, d, model,
            DeviceConfig.default(batch_size=BATCH_SIZE, num_classes=NUM_CLASSES),
            np.random.default_rng(SEED + d),
            gateway=gateway,
        ))
    streams = [np.random.default_rng(1000 + d) for d in range(NUM_DEVICES)]
    for _ in range(NUM_ROUNDS):
        for device, stream in zip(devices, streams):
            while not device.observe(
                stream.normal(size=NUM_FEATURES),
                int(stream.integers(NUM_CLASSES)),
            ):
                pass
            device.run_round()
    if gateways is not None:
        for gateway in gateways:
            gateway.flush()  # trailing partial batches
    status = transport.client.status(include_parameters=True)
    return status, devices


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server-url", default=None,
                        help="existing repro-serve URL (default: self-host)")
    args = parser.parse_args()

    topo = TwoTierTopology(num_gateways=NUM_GATEWAYS, assignment="round_robin")
    assignment = topo.assign(NUM_DEVICES)
    print(f"{NUM_DEVICES} devices × {NUM_GATEWAYS} gateways "
          f"(round_robin): {assignment.tolist()}")

    def fresh_service():
        if args.server_url is not None:
            return None, args.server_url
        service = CrowdService(build_core()).start()
        return service, service.url

    # Act 1 — per-device HTTP: every round is its own checkout + POST.
    service, url = fresh_service()
    status, _ = drive_crowd(url)
    per_device_requests = 2 * NUM_DEVICES * NUM_ROUNDS
    print(f"\n[per-device] server applied {status.iteration} updates "
          f"(~{per_device_requests} data requests)")
    baseline_parameters = status.parameters
    if service is not None:
        service.stop()

    # Act 2 — the gateway tier: shared check-outs + batched uplinks.
    service, url = fresh_service()
    if args.server_url is not None:
        print("\n--server-url given: acts run against the same live task; "
              "request counters remain meaningful, parity (act 3) is not.")
    gateways = [
        EdgeGateway(url, flush_size=int(np.sum(assignment == g)),
                    device_id=2**31 - 1 - g)
        for g in range(NUM_GATEWAYS)
    ]
    status, devices = drive_crowd(url, gateways, assignment)
    made = sum(g.requests_made for g in gateways)
    pooled = sum(g.aggregator.stats.messages_flushed for g in gateways)
    print(f"[gateway]    server applied {status.iteration} updates through "
          f"{made} upstream requests ({pooled} check-ins pooled, "
          f"largest batch {max(g.aggregator.stats.largest_flush for g in gateways)})")
    print(f"             per-device rounds acked: "
          f"{sorted(set(d.rounds_completed for d in devices))}")
    if service is not None:
        service.stop()

    # Act 3 — sequential parity: flush_size=1, forwarded check-outs.
    if args.server_url is None:
        service, url = fresh_service()
        passthrough = [
            EdgeGateway(url, flush_size=1, share_checkouts=False,
                        device_id=2**31 - 1 - g)
            for g in range(NUM_GATEWAYS)
        ]
        status, _ = drive_crowd(url, passthrough, assignment)
        identical = np.array_equal(status.parameters, baseline_parameters)
        print(f"[parity]     pass-through gateway parameters identical to "
              f"per-device run: {identical}")
        service.stop()
        if not identical:
            raise SystemExit("parity check failed")


if __name__ == "__main__":
    main()
