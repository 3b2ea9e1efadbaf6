"""Self-test: every correctness check must fail on a corrupted result.

    python3 crowdbench/selftest.py

Runs one short trial of each workload against the real program, asserts
that the untouched outcome passes its checks, then corrupts copies of
the outcome — a dropped ack, one flipped parameter bit, a duplicate
check-in applied twice or suppressed, an extra request, a front-end
error, a perturbed simulator trace — and asserts that each corruption
makes the checks fail.  Also checks that ``BENCHMARK.json`` names the
metrics the benchmark reports.  Exit status 0 when all of that holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import catalog  # noqa: E402
import harness  # noqa: E402
import serve  # noqa: E402
import sim  # noqa: E402
from checks import serve_checks, sim_checks  # noqa: E402

FAILURES = []


def expect(label: str, checks, passes: bool) -> None:
    verdict = all(checks.values())
    failing = sorted(name for name, ok in checks.items() if not ok)
    status = "ok" if verdict == passes else "WRONG"
    print(f"  {status:5s} {label}: {'passes' if verdict else 'fails ' + str(failing)}")
    if verdict != passes:
        FAILURES.append(label)


def flip_bit(values: np.ndarray) -> np.ndarray:
    flipped = np.array(values, dtype=np.float64, copy=True)
    flipped.view(np.uint64)[len(flipped) // 2] ^= 1
    return flipped


def serve_corruptions(outcome: dict, duplicate_parameters):
    """(label, corrupted outcome) pairs for one serve workload."""
    cases = []

    dropped = copy.deepcopy(outcome)
    dropped["acked"] -= 1
    dropped["shards"][-1]["acked"] -= 1
    cases.append(("dropped ack", dropped))

    flipped = copy.deepcopy(outcome)
    flipped["shards"][-1]["parameters"] = flip_bit(flipped["shards"][-1]["parameters"])
    cases.append(("one flipped parameter bit", flipped))

    applied = copy.deepcopy(outcome)
    applied["shards"][-1]["iteration"] += 1
    applied["shards"][-1]["parameters"] = duplicate_parameters
    cases.append(("duplicate check-in applied twice", applied))

    suppressed = copy.deepcopy(outcome)
    suppressed["shards"][-1]["duplicates"] += 1
    cases.append(("duplicate check-in suppressed", suppressed))

    rejected = copy.deepcopy(outcome)
    rejected["shards"][-1]["rejected"] += 1
    cases.append(("rejected check-in", rejected))

    if outcome["requests"] is not None:
        extra = copy.deepcopy(outcome)
        made, expected = extra["requests"]
        extra["requests"] = (made + 1, expected)
        cases.append(("extra upstream request", extra))
    if outcome["frontend_errors"] is not None:
        errored = copy.deepcopy(outcome)
        errored["frontend_errors"] += 1
        cases.append(("front-end error", errored))
    return cases


def duplicate_parameters(workload) -> np.ndarray:
    """What the last shard's parameters would be had its last check-in
    been applied a second time."""
    if isinstance(workload, serve.GatewayCrowd):
        core = serve.replay_gateway(workload.parts, workload.seed,
                                    workload.num_devices, workload.batches,
                                    inject_duplicate=True)
    elif isinstance(workload, serve.ShardedDurable):
        shard = len(workload.results) - 1
        ids = workload.shard_devices[shard]
        offset = shard * len(ids)
        core = serve.replay_device_rounds(
            workload.parts[offset:offset + len(ids)], workload.seed, ids,
            workload.results[shard][2], inject_duplicate=True)
    else:
        core = serve.replay_device_rounds(
            workload.parts, workload.seed, range(workload.num_devices),
            workload.order, inject_duplicate=True)
    return core.parameters


def test_serve(name: str, window: float) -> None:
    print(f"{name}: one {window:g} s trial against the live program")
    workload = serve.WORKLOADS[name](seed=7)
    trial = workload.trial(0, window, traced=False)
    expect("untouched outcome", trial.checks, passes=True)
    if trial.acked < 2:
        FAILURES.append(f"{name}: trial acked {trial.acked} rounds; too few to test")
        return
    for label, corrupted in serve_corruptions(
            trial.outcome, duplicate_parameters(workload)):
        expect(label, serve_checks(corrupted), passes=False)


def test_sim() -> None:
    print("sim_crowd: a run and its repeat at the same seed")
    first = sim.run_trial(7)
    repeat = sim.run_trial(7)
    expect("untouched repeat", sim_checks(first.trace, repeat.trace), passes=True)
    trace = repeat.trace
    perturbations = {
        "one flipped final-parameter bit": {
            "final_parameters": flip_bit(trace.final_parameters)},
        "one online error flipped": {
            "online_errors": np.logical_xor(
                trace.online_errors, np.arange(trace.online_errors.size) == 0)},
        "one staleness value changed": {
            "staleness": trace.staleness + (np.arange(trace.staleness.size) == 0)},
        "one update fewer": {"server_iterations": trace.server_iterations - 1},
    }
    for label, change in perturbations.items():
        expect(label, sim_checks(first.trace, dataclasses.replace(trace, **change)),
               passes=False)


def test_catalogue() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    print("BENCHMARK.json: metric names and units match the catalogue")
    with open(path) as handle:
        spec = json.load(handle)
    for key, listed in (("end_to_end", catalog.END_TO_END),
                        ("per_layer", catalog.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != listed:
            FAILURES.append(f"BENCHMARK.json {key} differs from catalog.py")
            print(f"  WRONG {key}")
        else:
            print(f"  ok    {key}: {len(listed)} metrics")


def main() -> int:
    harness.become_subreaper()
    test_catalogue()
    test_sim()
    test_serve("device_http", 1.5)
    test_serve("sharded_durable", 1.5)
    test_serve("gateway_crowd", 2.0)
    if FAILURES:
        print(f"self-test FAILED: {FAILURES}")
        return 1
    print("self-test passed: every check fails on every corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
