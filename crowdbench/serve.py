"""The three serve workloads: closed-loop devices against a live repro-serve.

Each trial spawns a fresh server, enrolls the crowd (the set-up the
``setup_s`` metric times), drives Algorithm 1 rounds for a fixed window,
reads the server's answers, tears everything down and replays the same
schedule in-process for the parity check.  A round runs from a device's
check-out request to the moment the device sees its ack.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    Feeder,
    ServerProcess,
    cpu_delta_s,
    device_config,
    device_rng,
    fresh_dir,
    make_inputs,
    median,
    model,
    percentile,
    reference_core,
    serve_args,
    sub_seed,
    test_error,
)
from checks import serve_checks
from layers import ServeObservation
from spans import SpanRecorder, wrap_client_layers

from repro.core.device import Device
from repro.core.protocol import CheckoutRequest
from repro.gateway.edge import GATEWAY_DEVICE_ID, EdgeGateway
from repro.serve import HttpTransport, RemoteDevice, ServiceClient, wire
from repro.serve.client import RemoteServiceError
from repro.shard.routing import ShardRouter

perf = time.perf_counter

DEVICE_HTTP_DEVICES = 32
GATEWAY_DEVICES = 256
GATEWAY_FLUSH = 64
SHARDED_DEVICES = 32
SHARDED_WORKERS = 2
#: Local samples per device; devices cycle through them.
PER_DEVICE = 200


@dataclass
class Trial:
    """What one fresh server, set up once and driven once, produced."""

    setup_s: float
    window_s: float
    attempted: int
    acked: int
    latencies: List[float]
    cpu_s: float
    rss_mb: float
    test_error: float
    outcome: Dict
    checks: Dict[str, bool]
    exit_code: Optional[int] = None
    layers: Dict[str, float] = field(default_factory=dict)
    reconciliation: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Closed-loop drivers and their in-process replays                      #
# --------------------------------------------------------------------- #


def drive_device_rounds(devices, feeders, deadline, recorder, round_base=0):
    """Round-robin per-device rounds until ``deadline``.

    Returns (attempted, latencies of acked rounds, order of acked device
    positions).  A round that raises or is rejected counts as attempted
    and not acked.
    """
    attempted = 0
    latencies: List[float] = []
    order: List[int] = []
    count = len(devices)
    position = 0
    while perf() < deadline:
        remote = devices[position]
        feeders[position].fill(remote)
        attempted += 1
        if recorder is not None:
            recorder.set_round(round_base + attempted)
            with recorder.span("round"):
                start = perf()
                ack = _round(remote)
                end = perf()
            recorder.set_round(None)
        else:
            start = perf()
            ack = _round(remote)
            end = perf()
        if ack is not None:
            latencies.append(end - start)
            order.append(position)
        position = (position + 1) % count
    return attempted, latencies, order


def _round(remote):
    try:
        return remote.run_round()
    except RemoteServiceError:
        return None


def replay_device_rounds(parts, seed, device_ids: Sequence[int],
                         order: Sequence[int], inject_duplicate=False):
    """In-process Device/ServerCore replay of a per-device schedule."""
    core = reference_core()
    task, config = model(), device_config()
    devices = [Device(d, task, config, core.register_device(d), device_rng(seed, d))
               for d in device_ids]
    feeders = [Feeder(parts[k]) for k in range(len(device_ids))]
    message = None
    for position in order:
        device = devices[position]
        feeders[position].fill(device)
        device.mark_checkout_requested()
        response = core.handle_checkout(
            CheckoutRequest(device.device_id, device.token, 0.0))
        message = device.complete_checkout(
            response.parameters, response.server_iteration).message
        core.handle_checkins([message])
    if inject_duplicate and message is not None:
        core.handle_checkins([message])
    return core


def replay_gateway(parts, seed, num_devices: int, batches: Sequence[Sequence[int]],
                   inject_duplicate=False):
    """In-process replay of shared-epoch check-outs and batched check-ins."""
    core = reference_core()
    task, config = model(), device_config()
    devices = [Device(d, task, config, core.register_device(d), device_rng(seed, d))
               for d in range(num_devices)]
    feeders = [Feeder(parts[d]) for d in range(num_devices)]
    token = core.register_device(GATEWAY_DEVICE_ID)
    batch: List = []
    for positions in batches:
        response = core.handle_checkout(CheckoutRequest(GATEWAY_DEVICE_ID, token, 0.0))
        batch = []
        for position in positions:
            device = devices[position]
            feeders[position].fill(device)
            device.mark_checkout_requested()
            batch.append(device.complete_checkout(
                response.parameters, response.server_iteration).message)
        core.handle_checkins(batch)
    if inject_duplicate and batch:
        core.handle_checkins(batch[-1:])
    return core


def _shard_view(acked: int, status, parameters, reference) -> Dict:
    return {
        "acked": acked,
        "iteration": status.iteration,
        "rejected": status.rejected_messages,
        "duplicates": status.duplicates_suppressed,
        "parameters": parameters,
        "reference": reference.parameters,
    }


# --------------------------------------------------------------------- #
# Workloads                                                             #
# --------------------------------------------------------------------- #


class ServeWorkload:
    """Shared trial skeleton; subclasses set up and drive the crowd."""

    name = ""
    num_devices = 0

    def __init__(self, seed: int):
        self.base_seed = seed

    def server_argv(self, work_dir: str, traced: bool) -> List[str]:
        extra = ["--metrics", "--trace-dir", f"{work_dir}/traces"] if traced else []
        return serve_args(*extra)

    def trial(self, index: int, window: float, traced: bool) -> Trial:
        """One fresh server, trained on the ``index``-th derived seed."""
        self.seed = sub_seed(self.base_seed, index)
        self.parts, self.test = make_inputs(self.seed, self.num_devices, PER_DEVICE)
        work_dir = fresh_dir(f"{self.name}-trial")
        try:
            return self._trial(work_dir, window, traced)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def _trial(self, work_dir: str, window: float, traced: bool) -> Trial:
        recorder = SpanRecorder() if traced else None
        server = observation = None
        enrolled = False
        try:
            start = perf()
            server = ServerProcess(self.server_argv(work_dir, traced), work_dir)
            control = ServiceClient(server.url, timeout=60)
            self.setup(server.url, recorder)
            enrolled = True
            setup_s = perf() - start
            if traced:
                observation = ServeObservation(
                    control, f"{work_dir}/traces", self.data_client_stats)
                observation.before()
            cpu_before = server.cpu()
            window_start = perf()
            attempted, latencies = self.drive(window_start + window, recorder)
            window_s = perf() - window_start
            cpu_s = cpu_delta_s(cpu_before, server.cpu())
            rss_mb = server.peak_rss_mb()
            # Closing a connection ends its server handler thread, whose
            # CPU time /proc then no longer lists: close after the reading.
            self.close()
            if traced:
                observation.after()
            outcome, error = self.read_outcome(control)
            control.close()
        finally:
            if recorder is not None:
                recorder.unwrap_all()
            if enrolled:
                self.close()
            if server is not None:
                server.stop()
        checks = serve_checks(outcome)
        checks["server_processes_reaped"] = server.leaked == 0
        trial = Trial(
            setup_s=setup_s, window_s=window_s, attempted=attempted,
            acked=outcome["acked"], latencies=latencies, cpu_s=cpu_s,
            rss_mb=rss_mb, test_error=error, outcome=outcome, checks=checks,
            exit_code=server.exit_code,
        )
        if traced:
            trial.layers, trial.reconciliation = observation.layers(
                recorder.threads(), latencies, trial.acked)
        return trial

    # Subclass hooks.
    def setup(self, url: str, recorder) -> None:
        raise NotImplementedError

    def drive(self, deadline: float, recorder) -> Tuple[int, List[float]]:
        raise NotImplementedError

    def read_outcome(self, control: ServiceClient) -> Tuple[Dict, float]:
        raise NotImplementedError

    def data_client_stats(self) -> Dict:
        return self.client.stats_snapshot()

    def close(self) -> None:
        self.client.close()


class DeviceHttp(ServeWorkload):
    """32 devices, one keep-alive connection, one bare worker."""

    name = "device_http"
    num_devices = DEVICE_HTTP_DEVICES

    def setup(self, url, recorder):
        if recorder is not None:
            wrap_client_layers(recorder)
        self.client = ServiceClient(url, timeout=60)
        transport = HttpTransport(self.client)
        task, config = model(), device_config()
        self.devices = [
            RemoteDevice.join(transport, d, task, config, device_rng(self.seed, d))
            for d in range(self.num_devices)
        ]
        self.feeders = [Feeder(self.parts[d]) for d in range(self.num_devices)]

    def drive(self, deadline, recorder):
        self.attempted, latencies, self.order = drive_device_rounds(
            self.devices, self.feeders, deadline, recorder)
        return self.attempted, latencies

    def read_outcome(self, control):
        status = control.status(include_parameters=True)
        reference = replay_device_rounds(
            self.parts, self.seed, range(self.num_devices), self.order)
        acked = len(self.order)
        outcome = {
            "attempted": self.attempted,
            "acked": acked,
            "shards": [_shard_view(acked, status, status.parameters, reference)],
            "frontend_errors": None,
            "requests": None,
        }
        return outcome, test_error(status.parameters, self.test)


class GatewayCrowd(ServeWorkload):
    """256 devices behind one EdgeGateway (flush 64, shared check-outs)."""

    name = "gateway_crowd"
    num_devices = GATEWAY_DEVICES

    def setup(self, url, recorder):
        self.client = ServiceClient(url, timeout=60)
        self.gateway = EdgeGateway(self.client, flush_size=GATEWAY_FLUSH)
        if recorder is not None:
            wrap_client_layers(recorder, self.gateway)
        transport = HttpTransport(self.client)
        task, config = model(), device_config()
        self.devices = [
            RemoteDevice.join(transport, d, task, config, device_rng(self.seed, d),
                              gateway=self.gateway)
            for d in range(self.num_devices)
        ]
        # The gateway's own enrollment and the first epoch's check-out
        # belong to set-up, like the devices' joins.
        self.gateway.checkout(CheckoutRequest(GATEWAY_DEVICE_ID, "", 0.0))
        self.feeders = [Feeder(self.parts[d]) for d in range(self.num_devices)]

    def drive(self, deadline, recorder):
        gateway, devices, feeders = self.gateway, self.devices, self.feeders
        latencies: List[float] = []
        self.batches: List[List[int]] = []
        pending_starts: List[float] = []
        pending: List[int] = []
        attempted = 0
        position = 0
        while perf() < deadline:
            remote = devices[position]
            feeders[position].fill(remote)
            attempted += 1
            if recorder is not None:
                recorder.set_round(attempted)
                with recorder.span("round"):
                    start = perf()
                    _round(remote)
                recorder.set_round(None)
            else:
                start = perf()
                _round(remote)
            pending_starts.append(start)
            pending.append(position)
            if gateway.pending == 0:  # this round's add flushed the pool
                self._acked_now(latencies, pending_starts, pending)
            position = (position + 1) % self.num_devices
        if pending:
            try:
                gateway.flush()
            except RemoteServiceError:
                pass
            else:
                self._acked_now(latencies, pending_starts, pending)
        self.attempted = attempted
        return attempted, latencies

    def _acked_now(self, latencies, starts, positions):
        now = perf()
        latencies.extend(now - start for start in starts)
        self.batches.append(list(positions))
        starts.clear()
        positions.clear()

    def read_outcome(self, control):
        status = control.status(include_parameters=True)
        reference = replay_gateway(
            self.parts, self.seed, self.num_devices, self.batches)
        acked = sum(device.rounds_completed for device in self.devices)
        stats = self.gateway.stats_snapshot()
        outcome = {
            "attempted": self.attempted,
            "acked": acked,
            "shards": [_shard_view(acked, status, status.parameters, reference)],
            "frontend_errors": None,
            "requests": (stats["requests_made"], 1 + 2 * stats["flushes"]),
        }
        return outcome, test_error(status.parameters, self.test)

    def data_client_stats(self):
        stats = self.client.stats_snapshot()
        stats["gateway"] = self.gateway.stats_snapshot()
        return stats


class ShardedDurable(ServeWorkload):
    """repro-serve --workers 2 --state-dir --metrics, two generator threads.

    Generator thread k (the main thread for k = 0) drives the 16 devices
    the tier's own router assigns to shard k over its own connection, so
    each shard sees one closed-loop arrival order and its parameters can
    be replayed bit for bit.
    """

    name = "sharded_durable"
    num_devices = SHARDED_DEVICES

    def __init__(self, seed):
        super().__init__(seed)
        router = ShardRouter(SHARDED_WORKERS)
        self.shard_devices: List[List[int]] = [[] for _ in range(SHARDED_WORKERS)]
        per_shard = self.num_devices // SHARDED_WORKERS
        candidate = 0
        while any(len(ids) < per_shard for ids in self.shard_devices):
            ids = self.shard_devices[router.shard_of(candidate)]
            if len(ids) < per_shard:
                ids.append(candidate)
            candidate += 1

    def server_argv(self, work_dir, traced):
        extra = ["--workers", str(SHARDED_WORKERS), "--state-dir",
                 f"{work_dir}/state", "--metrics"]
        if traced:
            extra += ["--trace-dir", f"{work_dir}/traces"]
        return serve_args(*extra)

    def setup(self, url, recorder):
        if recorder is not None:
            wrap_client_layers(recorder)
        self.client = ServiceClient(url, timeout=60)  # one connection per thread
        self.transport = HttpTransport(self.client)
        self.deadline = 0.0
        self.results: List = [None] * SHARDED_WORKERS
        self.errors: List[BaseException] = []
        self.enrolled = threading.Event()
        self.go = threading.Event()
        self.driven = threading.Event()
        self.release = threading.Event()
        # The main thread is shard 0's generator; one more thread is shard 1's.
        self.helper = threading.Thread(target=self._helper, args=(recorder,),
                                       name="generator-1", daemon=True)
        self.helper.start()
        self.crowd = self._enroll(0)
        self.enrolled.wait(timeout=600)
        if self.errors:
            raise self.errors[0]

    def _enroll(self, shard: int):
        task, config = model(), device_config()
        ids = self.shard_devices[shard]
        offset = shard * len(ids)
        devices = [
            RemoteDevice.join(self.transport, d, task, config, device_rng(self.seed, d))
            for d in ids
        ]
        return devices, [Feeder(self.parts[offset + k]) for k in range(len(ids))]

    def _drive_shard(self, shard: int, crowd, recorder) -> None:
        devices, feeders = crowd
        self.results[shard] = drive_device_rounds(
            devices, feeders, self.deadline, recorder, round_base=(shard + 1) * 10**9)

    def _helper(self, recorder) -> None:
        try:
            crowd = self._enroll(1)
            self.enrolled.set()
            self.go.wait(timeout=600)
            self._drive_shard(1, crowd, recorder)
        except BaseException as error:  # noqa: BLE001 - re-raised by the main thread
            self.errors.append(error)
        finally:
            self.enrolled.set()
            self.driven.set()
            self.release.wait(timeout=600)
            self.client.close()  # this thread's pooled connection

    def drive(self, deadline, recorder):
        self.deadline = deadline
        self.go.set()
        self._drive_shard(0, self.crowd, recorder)
        self.driven.wait(timeout=600)
        if self.errors:
            raise self.errors[0]
        attempted = sum(result[0] for result in self.results)
        latencies = [value for result in self.results for value in result[1]]
        return attempted, latencies

    def close(self):
        self.go.set()  # a helper still waiting to start finds its deadline passed
        self.release.set()
        self.helper.join(timeout=600)
        self.client.close()

    def read_outcome(self, control):
        shards, errors = [], []
        acked_total = 0
        for shard, (_, _, order) in enumerate(self.results):
            raw = control.call_raw("GET", f"/v1/status?shard={shard}&parameters=1")
            status = wire.decode_status(raw)
            ids = self.shard_devices[shard]
            offset = shard * len(ids)
            reference = replay_device_rounds(
                self.parts[offset:offset + len(ids)], self.seed, ids, order)
            shards.append(_shard_view(len(order), status, status.parameters,
                                      reference))
            errors.append(test_error(status.parameters, self.test))
            acked_total += len(order)
        snapshot = control.metrics_snapshot()
        frontend_errors = sum(
            entry["value"] for entry in snapshot["counters"]
            if entry["name"] == "frontend_errors_total")
        outcome = {
            "attempted": sum(result[0] for result in self.results),
            "acked": acked_total,
            "shards": shards,
            "frontend_errors": frontend_errors,
            "requests": None,
        }
        return outcome, sum(errors) / len(errors)


WORKLOADS = {
    cls.name: cls for cls in (DeviceHttp, GatewayCrowd, ShardedDurable)
}


def end_to_end(trials: List[Trial]) -> Dict[str, float]:
    """Medians over trials; latency percentiles over all acked rounds."""
    acked = sum(t.acked for t in trials)
    latencies_ms = [value * 1e3 for t in trials for value in t.latencies]
    return {
        "rounds_per_s": median([t.acked / t.window_s for t in trials]),
        "round_p50_ms": median(latencies_ms),
        "round_p90_ms": percentile(latencies_ms, 90),
        "acked_frac": acked / max(sum(t.attempted for t in trials), 1),
        "setup_s": median([t.setup_s for t in trials]),
        "server_cpu_ms_per_round": median(
            [t.cpu_s / max(t.acked, 1) * 1e3 for t in trials]),
        "peak_rss_mb": median([t.rss_mb for t in trials]),
        "test_error": sum(t.test_error for t in trials) / len(trials),
    }
