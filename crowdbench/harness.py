"""Shared plumbing for the Crowd-ML benchmark.

Inputs made from the seed, the in-process reference core every serve
workload is replayed against, ``repro-serve`` process lifetime (spawn,
readiness, CPU and memory readings from ``/proc``, teardown and reaping),
small statistics helpers and the provenance block of every results file.

Nothing here instruments the program: the benchmark drives the public
API from outside and reads what the operating system and the program's
existing endpoints report.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeviceConfig, ServerConfig
from repro.core.server_core import ServerCore
from repro.data import iid_partition, make_mnist_like
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.serve import ServiceClient

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (state dirs, trace spools, results).
WORK_DIR = os.path.join(ROOT, ".crowdbench")

# The task every workload trains: the paper's MNIST-like multiclass
# logistic regression, devices sanitizing at a total epsilon of 10 so
# the Laplace mechanism runs on every check-in.
DIM, CLASSES = 50, 10
BATCH = 10
EPSILON = 10.0
# repro-serve's defaults, mirrored by the in-process reference core.
LEARNING_RATE = 1.0
PROJECTION_RADIUS = 100.0
MAX_ITERATIONS = 10**9
NUM_TEST = 2000
#: Fresh set-ups per end-to-end run; setup_s is their median.
SETUP_TRIALS = 3
#: Distinct training runs per benchmark run.  A quality number from one
#: seed varies by 10-15% across seeds; test_error is the mean over the
#: runs' seeds, all derived from --seed by :func:`sub_seed`.
SUB_SEEDS = 3


def sub_seed(seed: int, index: int) -> int:
    return seed * SUB_SEEDS + index % SUB_SEEDS


def model():
    return MulticlassLogisticRegression(DIM, CLASSES)


def device_config() -> DeviceConfig:
    return DeviceConfig.default(batch_size=BATCH, num_classes=CLASSES,
                                epsilon=EPSILON)


def device_rng(seed: int, device_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, device_id])


def make_inputs(seed: int, num_devices: int, per_device: int):
    """Per-device local datasets plus a held-out test set, from the seed."""
    train, test = make_mnist_like(
        num_train=num_devices * per_device, num_test=NUM_TEST, seed=seed
    )
    parts = iid_partition(train, num_devices, np.random.default_rng(seed))
    return parts, test


class Feeder:
    """Streams one device's local data into it, cycling when exhausted."""

    __slots__ = ("features", "labels", "position")

    def __init__(self, dataset):
        self.features = dataset.features
        self.labels = [int(label) for label in dataset.labels]
        self.position = 0

    def fill(self, device) -> None:
        """Routine 1 until the device asks for a check-out."""
        features, labels = self.features, self.labels
        size = len(labels)
        position = self.position
        while True:
            index = position % size
            position += 1
            if device.observe(features[index], labels[index]):
                break
        self.position = position


def reference_core() -> ServerCore:
    """The core ``repro-serve`` builds from the flags :func:`serve_args` passes."""
    task = model()
    return ServerCore(
        task,
        paper_sgd(task.init_parameters(), learning_rate_constant=LEARNING_RATE,
                  projection_radius=PROJECTION_RADIUS),
        ServerConfig(max_iterations=MAX_ITERATIONS),
    )


def serve_args(*extra: str) -> List[str]:
    return [
        "--num-features", str(DIM), "--num-classes", str(CLASSES),
        "--learning-rate-constant", str(LEARNING_RATE),
        "--projection-radius", str(PROJECTION_RADIUS),
        "--max-iterations", str(MAX_ITERATIONS),
        "--port", "0", *extra,
    ]


def test_error(parameters: np.ndarray, test) -> float:
    return float(model().error_rate(parameters, test.features, test.labels))


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------- #
# Processes                                                             #
# --------------------------------------------------------------------- #


def become_subreaper() -> None:
    """Adopt orphaned descendants (shard workers whose front end died),
    so teardown can reap them instead of leaving them to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _ppid_table() -> Dict[int, int]:
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        table[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return table


def descendants(pid: int) -> List[int]:
    table = _ppid_table()
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in table.items():
            if ppid == parent:
                found.append(child)
                frontier.append(child)
    return found


def task_cpu_ns(pids: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """On-CPU nanoseconds of every thread of ``pids`` (``/proc`` schedstat)."""
    out = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    out[(pid, int(tid))] = int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return out


def cpu_delta_s(before: Dict, after: Dict) -> float:
    """CPU seconds spent between two :func:`task_cpu_ns` readings."""
    return sum(ns - before.get(key, 0) for key, ns in after.items()) / 1e9


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class ServerProcess:
    """One ``repro-serve`` (front end plus any shard workers) under test."""

    def __init__(self, argv: Sequence[str], work_dir: str, timeout: float = 60.0):
        os.makedirs(work_dir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._stderr = open(os.path.join(work_dir, "server.stderr"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", *argv],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True, env=env,
            cwd=ROOT, start_new_session=True,
        )
        self.pid = self.process.pid
        self.exit_code: Optional[int] = None
        self.leaked = 0
        self._members: List[int] = []  # the front end and every worker
        try:
            self.url = self._announced_url(timeout)
            self._wait_ready(timeout)
        except BaseException:
            self.stop()
            raise
        self._members = [self.pid, *descendants(self.pid)]

    def _announced_url(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        match = re.match(r"serving on (http://[\d.]+:\d+)$", line.strip())
        if not match:
            raise RuntimeError(f"repro-serve did not announce a URL: {line!r}")
        return match.group(1)

    def _wait_ready(self, timeout: float) -> None:
        probe = ServiceClient(self.url, timeout=5.0)
        deadline = time.monotonic() + timeout
        try:
            while True:
                try:
                    probe.status()
                    return
                except Exception:  # noqa: BLE001 - not up yet
                    if time.monotonic() > deadline or self.process.poll() is not None:
                        raise
                    time.sleep(0.02)
        finally:
            probe.close()

    def cpu(self) -> Dict[Tuple[int, int], int]:
        return task_cpu_ns(self._members)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self._members)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every member is gone."""
        members = set(self._members) | set(descendants(self.pid))
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.process.wait(timeout=30)
        self.exit_code = self.process.returncode
        if self.process.stdout is not None:
            self.process.stdout.close()
        for pid in members - {self.pid}:
            if _alive(pid):
                self.leaked += 1
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._kill_group()
        deadline = time.monotonic() + 30
        for pid in members - {self.pid}:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            try:
                os.waitpid(pid, os.WNOHANG)  # adopted orphans are ours to reap
            except ChildProcessError:
                pass
        self._stderr.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------------- #
# Statistics and provenance                                             #
# --------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def _git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree (read from
    ``.git`` directly, so nothing outside the checkout is consulted)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git_dir, ref)):
            with open(os.path.join(git_dir, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC_DIR, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC_DIR).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
