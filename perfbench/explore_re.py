"""Workload ``explore-re``: round-elimination exploration, cold then warm.

Each fresh process sets up (imports plus building the two root
problems), then explores from them twice with the default policy
(sequence verification on):

* cold: against an empty on-disk :class:`ProblemStore` -- R / R-bar
  steps, relaxation searches, classification, verification and store
  writes;
* warm: against a fresh store object over the same directory -- every
  step and link is a disk read, and the report must be byte-identical
  with ``computed == 0``.

The roots are the paper's matching problems, so the seed only names the
run: the same inputs every time.  Run as a script, this file is the child
process; :func:`run` is the parent.
"""

from __future__ import annotations

import json
import sys
import time

import layers
import proc
from tracing import Tracer

DELTA = 4
SMOKE_DELTA = 3
MAX_DEPTH, MAX_NODES = 1, 4


def child(args: dict) -> dict:
    from repro.problems.matching import pi_matching
    from repro.roundelim.explore import (
        ExplorationLimits,
        ProblemStore,
        explore,
        reports_identical,
    )

    tracer = Tracer() if args["trace"] else None
    if tracer is not None:
        layers.install_explore(tracer)
    delta = args["delta"]
    roots = [pi_matching(delta, 0, 1), pi_matching(delta, 1, 1)]
    limits = ExplorationLimits(max_depth=MAX_DEPTH, max_nodes=MAX_NODES)
    proc.announce_ready()

    def timed(kind):
        span = tracer.open("explore", kind) if tracer is not None else None
        start = time.perf_counter()
        report = explore(roots, limits=limits, store=ProblemStore(root=args["store"]))
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        return elapsed, report

    cold_s, cold = timed("cold")
    warm_s, warm = timed("warm")
    out = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "identical": reports_identical(cold, warm),
        "stats": [cold.store_stats, warm.store_stats],
        "budget_exhausted_ops": cold.counts["budget_exhausted_ops"]
        + warm.counts["budget_exhausted_ops"],
        "rss_mb": proc.peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Fresh processes until ``seconds`` pass; a traced run alternates
    untraced and traced processes."""

    def check(_args, result):
        errors = [] if result["identical"] else ["warm report differs from cold"]
        warm = result["stats"][1]
        if warm["computed"] or warm["computed_links"]:
            errors.append(f"warm run recomputed: {warm}")
        return errors

    with proc.scratch_dir(layers.EXPLORE) as scratch:
        sampled = proc.sample_processes(
            "explore_re.py", seconds, trace,
            lambda index: {
                "delta": SMOKE_DELTA if smoke else DELTA,
                "store": str(scratch / f"store-{index}"),
            },
            check,
        )
    measured = {"explore.budget_exhausted_ops": 0}
    for result in sampled.traced:
        measured["explore.budget_exhausted_ops"] += result["budget_exhausted_ops"]
        for stats in result["stats"]:
            for key in ("memory_hits", "disk_hits", "misses", "computed"):
                name = f"explore.store.{key}"
                measured[name] = measured.get(name, 0) + stats[key]
    hits = measured.get("explore.store.memory_hits", 0) + measured.get(
        "explore.store.disk_hits", 0
    )
    lookups = hits + measured.get("explore.store.misses", 0)
    measured["explore.store_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics, errors = layers.process_metrics(layers.EXPLORE, sampled, trace, measured)
    return {
        "attempted": sampled.attempted,
        "errors": sampled.errors + errors,
        "metrics": metrics,
        "samples": proc.sample_summary(sampled),
    }


if __name__ == "__main__":
    print(json.dumps(child(json.loads(sys.argv[1]))))
