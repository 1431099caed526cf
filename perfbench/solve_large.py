"""Workload ``solve-large``: one large ``api.solve`` per fresh process.

Each process sets up (imports plus an n=64 warm-up solve), then makes
two calls a user of :func:`repro.api.solve` makes:

* cold: ``api.solve(PROBLEM, n=N, ...)`` then ``report.canonical_json()``,
  which builds the network, compiles it, runs the vectorized kernel,
  finalizes, checks and serializes;
* warm: the same solve on the network the cold call built (passed as
  ``network=``), which reuses the network and its compiled arrays and so
  bypasses network build and compile.

Both must be valid and byte-identical.  Run as a script, this file is
the child process; :func:`run` is the parent.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

import layers
import proc
from tracing import Tracer

PROBLEM = "maximal-matching:delta=3"
ALGORITHM = "matching:proposal"
ENGINE = "vectorized"
N = 100_000
SMOKE_N = 2_000


def child(args: dict) -> dict:
    from repro import api

    tracer = Tracer() if args["trace"] else None
    # Keep the network the cold call builds, for the warm call.
    algorithm = api.resolve_algorithm(ALGORITHM)
    build = algorithm.default_network
    held = {}

    def keep(spec, *, n, seed):
        held["network"] = build(spec, n=n, seed=seed)
        return held["network"]

    algorithm.default_network = keep
    if tracer is not None:
        layers.install_solve(tracer)
    api.solve(PROBLEM, algorithm=ALGORITHM, engine=ENGINE, n=64).canonical_json()
    if tracer is not None:
        tracer.reset()
    proc.announce_ready()

    def timed(kind, **where):
        span = tracer.open("solve", kind) if tracer is not None else None
        start = time.perf_counter()
        report = api.solve(
            PROBLEM, algorithm=ALGORITHM, engine=ENGINE,
            seed=args["seed"], check=True, **where,
        )
        text = report.canonical_json()
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        return elapsed, report.valid, hashlib.sha256(text.encode()).hexdigest()

    cold_s, cold_valid, cold_sha = timed("cold", n=args["n"])
    warm_s, warm_valid, warm_sha = timed("warm", network=held.pop("network"))
    out = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "valid": [cold_valid, warm_valid],
        "sha": [cold_sha, warm_sha],
        "rss_mb": proc.peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Fresh processes until ``seconds`` pass; a traced run alternates
    untraced and traced processes on the same graph seeds."""
    rng = random.Random(f"{layers.SOLVE}:{seed}")
    n = SMOKE_N if smoke else N
    first_sha = {}

    def check(args, result):
        errors = []
        if result["valid"] != [True, True]:
            errors.append(f"invalid report ({args}): {result['valid']}")
        if result["sha"][0] != result["sha"][1]:
            errors.append(f"warm bytes differ from cold ({args})")
        if first_sha.setdefault(args["seed"], result["sha"][0]) != result["sha"][0]:
            errors.append(f"traced bytes differ from untraced ({args})")
        return errors

    seeds = {}

    def args_for(index):
        # A traced process repeats the graph of the untraced one before it.
        pair = index // 2 if trace else index
        if pair not in seeds:
            seeds[pair] = rng.randrange(2**31)
        return {"seed": seeds[pair], "n": n}

    sampled = proc.sample_processes("solve_large.py", seconds, trace, args_for, check)
    metrics, errors = layers.process_metrics(layers.SOLVE, sampled, trace)
    return {
        "attempted": sampled.attempted,
        "errors": sampled.errors + errors,
        "metrics": metrics,
        "samples": proc.sample_summary(sampled),
    }


if __name__ == "__main__":
    print(json.dumps(child(json.loads(sys.argv[1]))))
