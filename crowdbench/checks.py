"""Correctness checks over one trial's outcome.

Every workload reduces what it observed to an outcome record, and these
functions decide whether the program answered correctly.  They are
kept free of I/O so the self-test (``selftest.py``) can feed them
corrupted outcomes and prove that no check is vacuous.

A serve outcome is a dict::

    {"attempted": int, "acked": int,
     "shards": [{"acked", "iteration", "rejected", "duplicates",
                 "parameters", "reference"}, ...],
     "frontend_errors": int | None,
     "requests": (made, expected) | None}

``device_http`` and ``gateway_crowd`` have one shard, the bare worker.
"""

from __future__ import annotations

from typing import Dict, List

from harness import bits_equal

from repro.evaluation.compare import trace_differences


def serve_checks(outcome: Dict) -> Dict[str, bool]:
    shards: List[Dict] = outcome["shards"]
    results = {
        "every_round_acked": outcome["acked"] == outcome["attempted"],
        "iterations_equal_rounds_acked": (
            all(s["iteration"] == s["acked"] for s in shards)
            and sum(s["acked"] for s in shards) == outcome["acked"]
        ),
        "zero_rejected": all(s["rejected"] == 0 for s in shards),
        "no_duplicates_applied": all(s["duplicates"] == 0 for s in shards),
        "parameters_bit_identical_to_replay": all(
            bits_equal(s["parameters"], s["reference"]) for s in shards
        ),
    }
    if outcome.get("frontend_errors") is not None:
        results["zero_frontend_errors"] = outcome["frontend_errors"] == 0
    if outcome.get("requests") is not None:
        made, expected = outcome["requests"]
        results["request_count_is_1_plus_2_flushes"] = made == expected
    return results


def sim_checks(reference, trace) -> Dict[str, bool]:
    """A repeat run at the same seed must reproduce the first run's trace."""
    return {
        "trace_identical_to_repeat_run": not trace_differences(reference, trace),
        "rounds_applied": trace.server_iterations > 0,
    }
