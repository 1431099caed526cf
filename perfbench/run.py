"""The repository's benchmark: one command, three workloads, split by layer.

Run from the root of a checkout (nothing needs installing; ``src`` is put
on ``PYTHONPATH`` for every process it starts)::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and
``perfbench/layers.py`` for the layers each one exercises or bypasses):

* ``solve-large`` -- ``api.solve`` of a maximal matching at n=100,000 on
  the vectorized engine, in fresh processes;
* ``service-mix`` -- the solve daemon under a closed loop of 2
  connections: 90% repeats of a pre-warmed population, 10% fresh solves;
* ``explore-re`` -- round-elimination exploration, cold then warm over
  an on-disk store.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Lines before the last describe the
run for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

WORKLOADS = ("solve-large", "service-mix", "explore-re")


def fingerprint(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import networkx
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the last line prints."""
    if name == "solve-large":
        import solve_large as workload
    elif name == "service-mix":
        import service_mix as workload
    else:
        import explore_re as workload
    try:
        outcome = workload.run(seed, seconds, trace)
    except Exception:  # noqa: BLE001 - reported as an incorrect run
        outcome = {"attempted": 1, "errors": [traceback.format_exc()],
                   "metrics": {}, "samples": {}}
    errors = outcome["errors"]
    for error in errors:
        print(f"{name}: FAILED {error}")
    verdict = "correct" if not errors else "INCORRECT"
    print(f"{name}: {verdict}; samples {json.dumps(outcome['samples'])}")
    for metric, entry in outcome["metrics"].items():
        # A p50 is printed with the number of samples it is the median of.
        kind = outcome["samples"].get(metric.replace("_p50", ""), {})
        count = f" (n={kind['n']})" if "n" in kind else ""
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}{count}")
    return {
        "correct": not errors and bool(outcome["metrics"]),
        "attempted": max(outcome["attempted"], 1),
        "failed": min(len(errors), max(outcome["attempted"], 1)),
        "metrics": outcome["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "api" / "__init__.py").is_file():
        print("error: run from the root of a checkout of the repository "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    print("fingerprint: " + json.dumps(fingerprint(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name}: " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
