"""The in-process floor: a ``CrowdSimulator`` crowd with network delays.

No sockets and no codec: device compute, privacy noise, the server
core and the event queue are all there is.  Each trial builds the data
and the simulator from the seed and runs it to the end of its fixed
sample budget; trials repeat until the window is spent, and every
repeat must reproduce the first trial's trace exactly.  A "round" here
is one applied check-in; its latency is a trial's run time per round.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from checks import sim_checks
from harness import (
    BATCH,
    EPSILON,
    SUB_SEEDS,
    make_inputs,
    median,
    model,
    peak_rss_mb,
    percentile,
    sub_seed,
)
from spans import SpanRecorder, wrap_core_layer, wrap_device_layer

from repro.network.latency import LinkDelays
from repro.simulation import CrowdSimulator, SimulationConfig

perf = time.perf_counter

NUM_DEVICES = 1000
#: Samples per device per trial: 60k samples, about 6k check-ins.
PER_DEVICE = 60
DELAY_MULTIPLES = 200.0  # tau in units of Delta = 1 / (M * F_s)


def sim_config() -> SimulationConfig:
    probe = SimulationConfig(num_devices=NUM_DEVICES)
    return SimulationConfig(
        num_devices=NUM_DEVICES,
        batch_size=BATCH,
        epsilon=EPSILON,
        link_delays=LinkDelays.uniform(probe.delay_in_sample_units(DELAY_MULTIPLES)),
        num_snapshots=10,
    )


@dataclass
class SimTrial:
    seed: int
    data_s: float
    build_s: float
    run_s: float
    cpu_s: float
    trace: object
    events: int
    duplicates: int
    rejected: int
    checks: Dict[str, bool] = field(default_factory=dict)
    exit_code = None  # no server process

    @property
    def setup_s(self) -> float:
        return self.data_s + self.build_s

    @property
    def window_s(self) -> float:
        return self.run_s

    @property
    def rounds(self) -> int:
        return self.trace.server_iterations

    @property
    def acked(self) -> int:
        return self.rounds

    @property
    def attempted(self) -> int:
        return self.trace.communication.checkout_requests

    @property
    def ms_per_round(self) -> float:
        return self.run_s / max(self.rounds, 1) * 1e3


def run_trial(seed: int, recorder=None) -> SimTrial:
    if recorder is not None:
        wrap_device_layer(recorder)
        wrap_core_layer(recorder)
    try:
        start = perf()
        parts, test = make_inputs(seed, NUM_DEVICES, PER_DEVICE)
        built = perf()
        simulator = CrowdSimulator(model(), parts, test, sim_config(), seed=seed)
        ready = perf()
        cpu = time.process_time()
        trace = simulator.run()
        done = perf()
        cpu_s = time.process_time() - cpu
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    core = simulator.server.core
    return SimTrial(seed, built - start, ready - built, done - ready, cpu_s, trace,
                    simulator.events_fired, core.duplicates_suppressed,
                    core.rejected_messages)


def run_trials(seed: int, seconds: float, traced: bool):
    """Timed trials until ``seconds`` of run time are spent.

    Trials cycle over the seeds derived from ``seed``, so ``test_error``
    averages over several training runs.  An untimed
    first trial warms the process up; every trial of a seed after its
    first must reproduce that first trial's trace exactly, and the loop
    runs until each seed has been repeated.  A traced run alternates
    untraced and traced trials.  Returns (untraced trials, traced
    trials, span recorder or None).
    """
    seeds = [sub_seed(seed, k) for k in range(SUB_SEEDS)]
    references = {seeds[0]: run_trial(seeds[0]).trace}
    plain: List[SimTrial] = []
    traced_trials: List[SimTrial] = []
    recorder = SpanRecorder() if traced else None
    spent = 0.0
    count = 0
    while spent < seconds or count < 2 * SUB_SEEDS:
        trial_seed = seeds[count % SUB_SEEDS]
        use_trace = traced and count % 2 == 1
        trial = run_trial(trial_seed, recorder if use_trace else None)
        reference = references.setdefault(trial_seed, trial.trace)
        trial.checks = sim_checks(reference, trial.trace)
        (traced_trials if use_trace else plain).append(trial)
        spent += trial.run_s
        count += 1
    return plain, traced_trials, recorder


def end_to_end(trials: List[SimTrial]) -> Dict[str, float]:
    """Medians over trials; p90 of the per-trial time per round."""
    rounds = sum(t.rounds for t in trials)
    per_round_ms = [t.ms_per_round for t in trials]
    return {
        "rounds_per_s": median([t.rounds / t.run_s for t in trials]),
        "round_p50_ms": median(per_round_ms),
        "round_p90_ms": percentile(per_round_ms, 90),
        "acked_frac": rounds / max(sum(t.attempted for t in trials), 1),
        "setup_s": median([t.setup_s for t in trials]),
        "server_cpu_ms_per_round": median(
            [t.cpu_s / max(t.rounds, 1) * 1e3 for t in trials]),
        "peak_rss_mb": peak_rss_mb(os.getpid()),
        "test_error": mean_test_error(trials),
    }


def mean_test_error(trials: List[SimTrial]) -> float:
    """Mean final test error over the distinct training runs."""
    errors = {t.seed: t.trace.final_error for t in trials}
    return sum(errors.values()) / len(errors)


def per_layer(plain: List[SimTrial], traced: List[SimTrial],
              recorder: SpanRecorder) -> Dict[str, float]:
    durations: Dict[str, List[float]] = defaultdict(list)
    sizes: Dict[str, int] = defaultdict(int)
    for spans in recorder.threads():
        for name, start, end, _, _, size in spans:
            durations[name].append(end - start)
            sizes[name] += size
    rounds = max(sum(t.rounds for t in traced), 1)
    calls = len(durations["core.handle_checkin"]) + len(durations["core.handle_checkins"])
    applied = len(durations["core.handle_checkin"]) + sizes["core.handle_checkins"]
    apply_s = sum(durations["core.handle_checkin"]) + sum(durations["core.handle_checkins"])
    observe_s = sum(durations["device.observe"])
    observed = sizes["device.observe"]
    last = plain[-1]
    traced_ms = median([t.ms_per_round for t in traced])
    attributed_s = (sum(durations["device.complete_checkout"]) + observe_s
                    + sum(durations["core.handle_checkout"]) + apply_s)
    return {
        "device.compute_ms": median(durations["device.complete_checkout"]) * 1e3,
        "device.observe_us": observe_s / observed * 1e6 if observed else 0.0,
        "core.apply_us_per_checkin": apply_s / applied * 1e6 if applied else 0.0,
        "core.checkout_us": median(durations["core.handle_checkout"]) * 1e6,
        "core.batch_size_mean": applied / calls if calls else 0.0,
        "core.duplicates_suppressed": last.duplicates,
        "core.rejected": last.rejected,
        "sim.events_per_sample": last.events / max(last.trace.total_samples_consumed, 1),
        "sim.event_loop_s": median([t.run_s for t in plain]),
        "sim.data_s": median([t.data_s for t in plain]),
        "sim.build_s": median([t.build_s for t in plain]),
        "round.traced_ms_p50": traced_ms,
        "round.unattributed_ms": traced_ms - attributed_s / rounds * 1e3,
        "trace.overhead_frac": 1.0 - (
            median([t.rounds / t.run_s for t in traced])
            / median([t.rounds / t.run_s for t in plain])),
    }
