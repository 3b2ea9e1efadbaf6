"""Crowd-ML benchmark: one command per workload, end to end or traced.

    python3 crowdbench/run.py --workload device_http --seed 1 --seconds 10 --trace 0

Workloads (see ``crowdbench/README.md`` for why each exists and which
layer it bypasses): ``device_http``, ``gateway_crowd``,
``sharded_durable``, ``sim_crowd``.

``--trace 0`` measures the end-to-end metrics with no benchmark
tracing: three fresh set-ups, each driven for a third of ``--seconds``
(``sim_crowd``: repeated runs of a fixed sample budget).  ``--trace 1``
runs one untraced and one traced trial, half the window each, and
reports the per-layer metrics plus the tracing overhead between them.

Every run checks the program's answers, writes
``.crowdbench/results/<workload>-seed<n>-trace<t>.json`` (seed, machine
fingerprint, rounds attempted/acked/failed per trial, checks, metrics,
and for traced serve runs the round reconciliation), prints each metric
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program under test is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("device_http", "gateway_crowd", "sharded_durable", "sim_crowd")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_serve(name: str, seed: int, seconds: float, traced: bool):
    import serve
    from catalog import END_TO_END, PER_LAYER, report
    from harness import SETUP_TRIALS

    workload = serve.WORKLOADS[name](seed)
    if not traced:
        trials = [workload.trial(index, seconds / SETUP_TRIALS, False)
                  for index in range(SETUP_TRIALS)]
        return trials, report(serve.end_to_end(trials), END_TO_END), {}
    plain = workload.trial(0, seconds / 2, False)
    traced_trial = workload.trial(1, seconds / 2, True)
    values = dict(traced_trial.layers)
    values["trace.overhead_frac"] = 1.0 - (
        (traced_trial.acked / traced_trial.window_s)
        / (plain.acked / plain.window_s))
    return ([plain, traced_trial], report(values, PER_LAYER),
            traced_trial.reconciliation)


def run_sim(seed: int, seconds: float, traced: bool):
    import sim
    from catalog import END_TO_END, PER_LAYER, report

    plain, traced_trials, recorder = sim.run_trials(seed, seconds, traced)
    if traced:
        metrics = report(sim.per_layer(plain, traced_trials, recorder), PER_LAYER)
    else:
        metrics = report(sim.end_to_end(plain), END_TO_END)
    return plain + traced_trials, metrics, {}


def trial_summary(trial) -> dict:
    return {
        "setup_s": trial.setup_s,
        "window_s": trial.window_s,
        "rounds_attempted": trial.attempted,
        "rounds_acked": trial.acked,
        "rounds_failed": trial.attempted - trial.acked,
        "server_exit_code": trial.exit_code,
        "checks": trial.checks,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "serve", "cli.py")):
        print(f"crowdbench: program sources not found under {SRC_DIR}",
              file=sys.stderr)
        return 2
    # One BLAS thread per process (generator and servers alike): the
    # matrices are small, and a thread pool per process would put more
    # runnable threads than CPUs on the machine and make timings noisy.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, SRC_DIR)
    import harness

    harness.become_subreaper()
    traced = bool(args.trace)
    if args.workload == "sim_crowd":
        trials, metrics, reconciliation = run_sim(args.seed, args.seconds, traced)
    else:
        trials, metrics, reconciliation = run_serve(
            args.workload, args.seed, args.seconds, traced)

    summaries = [trial_summary(trial) for trial in trials]
    attempted = sum(s["rounds_attempted"] for s in summaries)
    failed = sum(s["rounds_failed"] for s in summaries)
    correct = all(all(s["checks"].values()) for s in summaries)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.fingerprint(),
        "correct": correct,
        "rounds": {"attempted": attempted, "acked": attempted - failed,
                   "failed": failed},
        "trials": summaries,
        "metrics": metrics,
    }
    if reconciliation:
        results["reconciliation_ms_per_round"] = reconciliation
    results_dir = os.path.join(harness.WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True, default=float)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {results['machine']['nproc']} -> {os.path.relpath(path)}")
    for summary in summaries:
        failing = [name for name, ok in summary["checks"].items() if not ok]
        print(f"  trial: {summary['rounds_acked']}/{summary['rounds_attempted']} "
              f"rounds acked, setup {summary['setup_s']:.3f} s, "
              f"checks {'FAILED: ' + ', '.join(failing) if failing else 'ok'}")
    for key, value in reconciliation.items():
        print(f"  reconcile {key:<22s} {value:10.3f} ms/round")
    for name, entry in metrics.items():
        print(f"  {name:<34s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
