"""One gate harness for the fast paths and their reference oracles.

Every fast path in the repo keeps a reference implementation as its
oracle; each bench here times both sides on a matrix of workloads and
gates the ratio (reference seconds / fast seconds):

* ``engines`` — the object vs the vectorized LOCAL engine on the
  matching workload: ≥ 15× at n = 2·10^4, identical outputs and rounds;
* ``roundelim`` — reference vs bitmask-kernel ``round_elimination``
  (Appendix B): ≥ 4× on the Δ=4 matching step, identical ``Problem``;
* ``solvers`` — CSP backtracking vs CDCL SAT on the zero-round lift gate
  (Theorem 3.2): ≥ 3× at Δ=4 with identical verdicts, plus two blocks —
  ``frontier`` (at Δ=5 the CSP side exhausts a 50k-placement budget
  while SAT answers) and ``symmetry_breaking`` (lex-leader constraints
  shrink the raw model count, same expanded solution set);
* ``explore`` — a cold vs a warm ``ProblemStore``: ≥ 3× on
  ``matching-d4``, identical reports and no recompute when warm, and
  serial vs ``jobs=4`` reports byte-identical;
* ``service`` — cold solves vs warm cache hits through a live HTTP
  daemon: p50 ≥ 10× lower warm, hit rate ≥ 0.5, responses
  byte-identical to direct ``api.solve``; its ``service`` block holds
  the latency quantiles, throughput and cache stats.

Usage (run from the repo root; ``src`` is put on the path)::

    python benchmarks/harness.py <bench> [--smoke] [--out F] [--baseline F]

``--smoke`` runs the CI matrix, ``--out`` (default ``BENCH_<bench>.json``)
receives the payload and ``--baseline`` gates each row against a
committed baseline in ``benchmarks/baselines/``.  The exit status is
non-zero when a gate fails; a run whose two sides disagree raises, since
the benchmark is then void.  The payload, schema ``repro.bench/v2``::

    {"schema": "repro.bench/v2", "bench": "roundelim", "mode": "smoke",
     "criterion": {"key": "matching:delta=4,x=0,y=1", "min_ratio": 4.0},
     "rows": [{"bench": "roundelim", "key": "matching:delta=4,x=0,y=1",
               "seconds": {"reference": 1.04, "kernel": 0.2},
               "ratio": 5.2}]}

plus the bench's extra blocks.  ``ratio`` is null on a row that times
one side only (the engines scaling points).  The ``engines``,
``roundelim`` and ``solvers`` rows time their two sides in interleaved
pairs (:func:`paired`): ``ratio`` is the median of the per-pair ratios
and ``seconds`` holds each side's best time.  Ratios, not seconds, are
gated, so the gates are machine-portable: a row fails the baseline gate
when its ratio drops more than the bench's tolerance below the baseline
row with the same key, and rows whose slower side runs under
``MIN_GATE_SECONDS`` are reported but not gated.  A ratio moves when
either side does, so a change that speeds up a reference side refreshes
that bench's baseline in the same change, from measured runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import api  # noqa: E402
from repro.api.engines import resolve_engine  # noqa: E402
from repro.core.lift import lift  # noqa: E402
from repro.core.zero_round import zero_round_solvable  # noqa: E402
from repro.formalism.problems import problem_from_lines  # noqa: E402
from repro.graphs import cycle, mark_bipartition  # noqa: E402
from repro.problems import pi_matching, pi_ruling  # noqa: E402
from repro.roundelim import round_elimination  # noqa: E402
from repro.roundelim.explore import (  # noqa: E402
    ExplorationLimits,
    ExplorationPolicy,
    ProblemStore,
    explore,
    reports_identical,
)
from repro.roundelim.explore.classify import smallest_biregular_support  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceClient,
    SolveService,
    solve_request,
    start_http_service,
)
from repro.solvers import SolverBudget, make_solver  # noqa: E402
from repro.solvers.csp import CSP_BUDGET_UNIT  # noqa: E402
from repro.solvers.sat import SatLabelingSolver  # noqa: E402
from repro.solvers.sat.solver import CdclSolver  # noqa: E402
from repro.utils import SolverLimitError  # noqa: E402
from repro.utils.serialization import canonical_dumps  # noqa: E402
from repro.utils.tables import print_table  # noqa: E402

SCHEMA = "repro.bench/v2"

#: Timed rounds per row; a round calls each side once, reference first.
PAIRS = 5

#: A single run above this duration is measured once — repeating a
#: multi-second workload adds runtime, not precision.
HEAVY_CUTOFF_SECONDS = 2.0

#: Rows whose slower side runs faster than this are reported but not
#: gated against the baseline: millisecond-scale ratios are too noisy on
#: shared CI runners to gate on.
MIN_GATE_SECONDS = 0.05


def paired(
    runs: dict[str, Callable[[], object]], clock: Callable[[], float] = time.perf_counter
) -> tuple[dict, float | None, dict]:
    """Time the sides of ``runs`` (the reference, then the fast side if
    any) in up to ``PAIRS`` interleaved rounds.

    Returns each side's best time, the median of the per-round ratios
    (reference / fast; ``None`` for one side) and each side's last
    result.  Both halves of a pair run under the same machine load, and
    the median drops a pair that a load spike hit on one side only;
    best-of per side can take its two minima from different load regimes.
    A round whose slower side runs over ``HEAVY_CUTOFF_SECONDS`` is the
    last one.
    """
    best = dict.fromkeys(runs, float("inf"))
    results: dict = {}
    ratios = []
    for _ in range(PAIRS):
        elapsed = []
        for side, run in runs.items():
            start = clock()
            results[side] = run()
            elapsed.append(clock() - start)
            best[side] = min(best[side], elapsed[-1])
        if len(elapsed) == 2:
            ratios.append(elapsed[0] / elapsed[1])
        if max(elapsed) > HEAVY_CUTOFF_SECONDS:
            break
    return best, statistics.median(ratios) if ratios else None, results


def void_unless(agree: bool, what: str) -> None:
    """Raise when the two sides disagree: comparing the timings of
    different answers would be meaningless."""
    if not agree:
        raise AssertionError(f"{what} — benchmark void")


# --------------------------------------------------------------------------
# engines: object vs vectorized LOCAL engine
# --------------------------------------------------------------------------

ENGINES_SPEC = "matching:delta=4,x=0,y=1"
BOTH_ENGINES = ("object", "vectorized")


def engines_matrix(smoke: bool) -> dict:
    """Row key → (n, engines timed).  The vectorized-only rows are
    scaling points: the object engine would take minutes there."""
    sizes = [(2_000, BOTH_ENGINES), (20_000, BOTH_ENGINES)]
    if not smoke:
        sizes += [
            (100_000, BOTH_ENGINES),
            (1_000_000, ("vectorized",)),
            (10_000_000, ("vectorized",)),
        ]
    return {f"n={n}": (n, engines) for n, engines in sizes}


def engines_measure(matrix: dict) -> tuple[dict, dict, dict]:
    spec = api.ProblemSpec.parse(ENGINES_SPEC)
    algorithm = api.resolve_algorithm("matching:proposal")
    seconds, ratios = {}, {}
    for key, (n, names) in matrix.items():
        # One network and program per size, so only engine time is timed.
        network = algorithm.default_network(spec, n=n, seed=0)
        program = algorithm.program(network, spec, {})
        runs = {
            name: partial(resolve_engine(name).run, network, program, seed=0)
            for name in names
        }
        for run in runs.values():
            run()  # warm
        seconds[key], ratios[key], results = paired(runs)
        first = results[names[0]]
        void_unless(
            all(
                (result.outputs, result.rounds) == (first.outputs, first.rounds)
                for result in results.values()
            ),
            f"engine outputs differ at n={n}",
        )
    return seconds, ratios, {}


# --------------------------------------------------------------------------
# roundelim: reference vs bitmask-kernel round elimination
# --------------------------------------------------------------------------

ROUNDELIM_SMOKE = (
    "matching:delta=3,x=0,y=1",
    "matching:delta=4,x=0,y=1",
    "maximal-matching:delta=3",
    "maximal-matching:delta=4",
)
ROUNDELIM_FULL = ROUNDELIM_SMOKE + (
    "matching:delta=5,x=0,y=1",
    "ruling-set:delta=3,colors=1,beta=2",
)


def roundelim_measure(matrix: dict) -> tuple[dict, dict, dict]:
    seconds, ratios = {}, {}
    for key, problem in matrix.items():
        seconds[key], ratios[key], outputs = paired({
            engine: partial(round_elimination, problem, engine=engine)
            for engine in ("reference", "kernel")
        })
        void_unless(
            outputs["reference"] == outputs["kernel"],
            f"engine outputs differ on {key}",
        )
    return seconds, ratios, {}


# --------------------------------------------------------------------------
# solvers: CSP backtracking vs CDCL SAT on the zero-round gate
# --------------------------------------------------------------------------

SOLVERS_SMOKE = ("maximal-matching:delta=3", "maximal-matching:delta=4")
SOLVERS_FULL = ("maximal-matching:delta=2",) + SOLVERS_SMOKE

#: The frontier: one Δ beyond the criterion row.  CSP completes this gate
#: only after ~1.16M placements (minutes; Δ=6 exceeds the 5M default
#: budget), so it must exhaust a reduced budget while SAT answers.
FRONTIER_SPEC = "maximal-matching:delta=5"
FRONTIER_CSP_BUDGET = 50_000

SYMMETRY_CYCLE_LENGTH = 12


def gate_support(problem):
    """The support the zero-round gate of ``problem`` is decided on."""
    return smallest_biregular_support(problem.white_arity, problem.black_arity)


def solvers_measure(matrix: dict) -> tuple[dict, dict, dict]:
    seconds, ratios = {}, {}
    for key, problem in matrix.items():
        support = gate_support(problem)
        seconds[key], ratios[key], verdicts = paired({
            backend: partial(zero_round_solvable, support, problem, backend=backend)
            for backend in ("csp", "sat")
        })
        void_unless(
            verdicts["csp"] == verdicts["sat"], f"backend verdicts differ on {key}"
        )
    return seconds, ratios, {
        "frontier": solvers_frontier(),
        "symmetry_breaking": solvers_symmetry_breaking(),
    }


def solvers_frontier() -> dict:
    problem = api.ProblemSpec.parse(FRONTIER_SPEC).build()
    support = gate_support(problem)
    # The exact instance zero_round_solvable decides: the rank/Δ lift.
    lifted = lift(problem, problem.white_arity, problem.black_arity).to_problem()
    budget = SolverBudget(FRONTIER_CSP_BUDGET, unit=CSP_BUDGET_UNIT)
    start = time.perf_counter()
    try:
        make_solver(support, lifted, backend="csp", budget=budget).solve()
        csp_finished = True
    except SolverLimitError:
        csp_finished = False
    csp_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sat_verdict = zero_round_solvable(support, problem, backend="sat")
    return {
        "key": FRONTIER_SPEC,
        "csp_budget": FRONTIER_CSP_BUDGET,
        "csp_budget_unit": CSP_BUDGET_UNIT,
        "csp_finished": csp_finished,
        "csp_probe_seconds": round(csp_seconds, 6),
        "sat_verdict": sat_verdict,
        "sat_seconds": round(time.perf_counter() - start, 6),
    }


def solvers_symmetry_breaking() -> dict:
    """Enumerate an S3-label-symmetric problem (white: two equal labels,
    black: two distinct ones) on a marked cycle with and without
    lex-leader breaking; the orbit-expanded solution sets must agree."""
    labels = "ABC"
    problem = problem_from_lines(
        [f"{label} {label}" for label in labels],
        [f"{a} {b}" for index, a in enumerate(labels) for b in labels[index + 1:]],
        name="sym3",
    )
    graph = mark_bipartition(cycle(SYMMETRY_CYCLE_LENGTH))
    record = {"problem": problem.name, "cycle_length": SYMMETRY_CYCLE_LENGTH}
    expanded = {}
    for key, broken in (("broken", True), ("unbroken", False)):
        solver = SatLabelingSolver(graph, problem, symmetry_breaking=broken)
        record["automorphism_group_order"] = len(solver.encoding.automorphisms)
        # Raw CDCL models, before orbit re-expansion, via blocking clauses.
        cdcl = CdclSolver(solver.encoding.formula, seed=0)
        models = 0
        while cdcl.solve():
            models += 1
            cdcl.add_clause(solver.encoding.blocking_clause(cdcl.model()))
        record[key] = {
            "raw_models": models,
            "decisions": cdcl.decisions,
            "conflicts": cdcl.conflicts,
        }
        expanded[key] = {
            tuple(sorted((tuple(sorted(map(str, edge))), label)
                         for edge, label in labeling.items()))
            for labeling in solver.iter_solutions()
        }
    void_unless(
        expanded["broken"] == expanded["unbroken"],
        "orbit re-expansion lost solutions under symmetry breaking",
    )
    record["expanded_solutions"] = len(expanded["broken"])
    record["reduction"] = round(
        record["unbroken"]["raw_models"] / record["broken"]["raw_models"], 3
    )
    return record


def solvers_checks(payload: dict) -> list[str]:
    failures = []
    frontier = payload["frontier"]
    if frontier["csp_finished"]:
        failures.append(
            f"frontier: CSP finished {FRONTIER_SPEC} within "
            f"{FRONTIER_CSP_BUDGET} placements — no longer a frontier"
        )
    if not frontier["sat_verdict"]:
        failures.append(f"frontier: SAT verdict flipped on {FRONTIER_SPEC}")
    symmetry = payload["symmetry_breaking"]
    if symmetry["broken"]["raw_models"] >= symmetry["unbroken"]["raw_models"]:
        failures.append("symmetry breaking did not reduce the raw model count")
    return failures


# --------------------------------------------------------------------------
# explore: cold vs warm ProblemStore
# --------------------------------------------------------------------------

#: Worker processes for every exploration run, and the determinism check
#: byte-compares a serial run against this many workers.
EXPLORE_JOBS = 4

#: Expansion, classification and linking without sequence
#: re-verification: that deliberately recomputes RE outside the store
#: (it audits the cache), so timing it warm would time the auditor.
EXPLORE_POLICY = ExplorationPolicy(verify_sequences=False)

EXPLORE_SMOKE = ("matching-d3", "matching-d4")


def explore_matrix(smoke: bool) -> dict:
    """Row key → (roots, limits)."""
    matrix = {
        "matching-d3": (
            [pi_matching(3, x, 1) for x in (0, 1, 2)],
            ExplorationLimits(max_depth=1, max_nodes=8),
        ),
        "matching-d4": (
            [pi_matching(4, 0, 1), pi_matching(4, 1, 1)],
            ExplorationLimits(max_depth=1, max_nodes=4),
        ),
        "ruling-d3": (
            [pi_ruling(3, 1, 2)],
            ExplorationLimits(max_depth=1, max_nodes=2),
        ),
    }
    return {key: matrix[key] for key in matrix if not smoke or key in EXPLORE_SMOKE}


def explore_measure(matrix: dict) -> tuple[dict, dict, dict]:
    seconds = {}
    for key, (roots, limits) in matrix.items():
        store = ProblemStore()
        start = time.perf_counter()
        cold = explore(roots, policy=EXPLORE_POLICY, limits=limits, store=store,
                       jobs=EXPLORE_JOBS)
        cold_seconds = time.perf_counter() - start
        computed = store.stats.computed
        start = time.perf_counter()
        warm = explore(roots, policy=EXPLORE_POLICY, limits=limits, store=store,
                       jobs=EXPLORE_JOBS)
        seconds[key] = {"cold": cold_seconds, "warm": time.perf_counter() - start}
        void_unless(reports_identical(cold, warm), f"cold and warm reports differ on {key}")
        void_unless(store.stats.computed == computed, f"warm run recomputed steps on {key}")
        serial = explore(roots, policy=EXPLORE_POLICY, limits=limits, jobs=1)
        void_unless(
            serial.canonical_json() == cold.canonical_json(),
            f"jobs={EXPLORE_JOBS} report differs from serial on {key}",
        )
    return seconds, {}, {}


# --------------------------------------------------------------------------
# service: cold solves vs warm cache hits through the HTTP daemon
# --------------------------------------------------------------------------

#: (spec, algorithm, sizes).  A cold solve at these sizes costs tens of
#: milliseconds, which dwarfs the HTTP round trip of a warm hit.
SERVICE_WORKLOADS = (
    ("maximal-matching:delta=3", "matching:proposal", (2048, 4096)),
    ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep", (2048, 4096)),
)

#: (mixed-phase requests, client threads, sizes per workload, seeds).
SERVICE_LOAD = {"smoke": (60, 2, 1, 2), "full": (200, 4, 2, 3)}

SERVICE_MIN_HIT_RATE = 0.5


def service_matrix(smoke: bool) -> dict:
    return {"p50": SERVICE_LOAD["smoke" if smoke else "full"]}


def _quantiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "p50_ms": round(1000 * statistics.median(ordered), 3),
        "p99_ms": round(1000 * ordered[min(len(ordered) - 1,
                                           int(0.99 * len(ordered)))], 3),
        "mean_ms": round(1000 * statistics.fmean(ordered), 3),
    }


def service_measure(matrix: dict) -> tuple[dict, dict, dict]:
    """Cold phase, then a threaded mixed phase.

    Cold: each distinct request once, timed one by one (every one a real
    solve).  Mixed: ``requests`` replays of that population spread
    round-robin over the client threads — all of them cache hits.
    """
    requests, clients, sizes_per_workload, seeds = matrix["p50"]
    population = [
        solve_request(spec, algorithm=algorithm, n=n, seed=seed)
        for spec, algorithm, sizes in SERVICE_WORKLOADS
        for n in sizes[:sizes_per_workload]
        for seed in range(seeds)
    ]
    service = SolveService(jobs=1, capacity=1024)
    server, thread = start_http_service(service)
    client = ServiceClient(server.url)
    try:
        cold = []
        for request in population:
            start = time.perf_counter()
            response = client.request(request)
            cold.append(time.perf_counter() - start)
            void_unless(
                response["status"] == "ok" and response["cached"] is False,
                f"cold phase request not solved fresh: {response}",
            )

        for spec, algorithm, sizes in SERVICE_WORKLOADS:
            response = client.request(
                solve_request(spec, algorithm=algorithm, n=sizes[0], seed=0)
            )
            direct = api.solve(spec, algorithm=algorithm, n=sizes[0], seed=0)
            void_unless(
                canonical_dumps(response["report"]) == direct.canonical_json(),
                f"service response differs from direct solve on {spec}",
            )

        warm: list[list[float]] = [[] for _ in range(clients)]
        errors: list[dict] = []

        def worker(index: int) -> None:
            worker_client = ServiceClient(server.url)
            for position in range(index, requests, clients):
                start = time.perf_counter()
                response = worker_client.request(
                    population[position % len(population)]
                )
                warm[index].append(time.perf_counter() - start)
                if response["status"] != "ok" or not response["cached"]:
                    errors.append(response)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(clients)
        ]
        mixed_start = time.perf_counter()
        for worker_thread in threads:
            worker_thread.start()
        for worker_thread in threads:
            worker_thread.join()
        mixed_seconds = time.perf_counter() - mixed_start
        void_unless(not errors, f"mixed phase saw failures: {errors[:3]}")
        warm_flat = [latency for bucket in warm for latency in bucket]
        status = service.status()
    finally:
        server.shutdown()
        thread.join(timeout=10)
    return {
        "p50": {
            "cold": statistics.median(cold),
            "warm": statistics.median(warm_flat),
        }
    }, {}, {
        "service": {
            "unique_requests": len(population),
            "mixed_requests": len(warm_flat),
            "clients": clients,
            "cold": _quantiles(cold),
            "warm": _quantiles(warm_flat),
            "throughput_rps": round(len(warm_flat) / mixed_seconds, 1),
            "mixed_seconds": round(mixed_seconds, 3),
            "cache": status["cache"],
            "coalesced": status["coalesced"],
            "solves_computed": status["solves_computed"],
        }
    }


def service_checks(payload: dict) -> list[str]:
    rate = payload["service"]["cache"]["hit_rate"]
    if rate >= SERVICE_MIN_HIT_RATE:
        return []
    return [f"warm hit rate {rate} < {SERVICE_MIN_HIT_RATE}"]


# --------------------------------------------------------------------------
# the shared core: bench table, payload, gates, CLI
# --------------------------------------------------------------------------


def _specs(smoke_keys: tuple, full_keys: tuple) -> Callable[[bool], dict]:
    """A matrix of problem-spec row keys, each mapped to its problem."""
    def matrix(smoke: bool) -> dict:
        keys = smoke_keys if smoke else full_keys
        return {key: api.ProblemSpec.parse(key).build() for key in keys}
    return matrix


@dataclass(frozen=True)
class Bench:
    title: str
    #: (reference, fast): a row's ratio is reference seconds / fast seconds.
    sides: tuple[str, str]
    #: The row whose ratio must reach ``min_ratio``.
    criterion: str
    min_ratio: float
    #: smoke → {row key: workload}.
    matrix: Callable[[bool], dict]
    #: matrix → ({row key: {side: seconds}}, {row key: ratio} for the rows
    #: timed by ``paired``, extra payload blocks).  A row without a paired
    #: ratio gets reference seconds / fast seconds, or none on one side.
    measure: Callable[[dict], tuple[dict, dict, dict]]
    #: Allowed fractional ratio drop below a baseline row; ``None`` for a
    #: bench without a committed baseline.
    tolerance: float | None = None
    #: Gates on the extra blocks.
    checks: Callable[[dict], list[str]] = lambda payload: []


BENCHES = {
    "engines": Bench(
        title="ENGINES: matching workload, object vs vectorized",
        sides=BOTH_ENGINES,
        criterion="n=20000",
        min_ratio=15.0,
        matrix=engines_matrix,
        measure=engines_measure,
        tolerance=0.25,
    ),
    "roundelim": Bench(
        title="ROUNDELIM: reference vs bitmask kernel round elimination",
        sides=("reference", "kernel"),
        criterion="matching:delta=4,x=0,y=1",
        min_ratio=4.0,
        matrix=_specs(ROUNDELIM_SMOKE, ROUNDELIM_FULL),
        measure=roundelim_measure,
        tolerance=0.25,
    ),
    "solvers": Bench(
        title="SOLVERS: zero-round gate, CSP backtracker vs CDCL SAT",
        sides=("csp", "sat"),
        criterion="maximal-matching:delta=4",
        min_ratio=3.0,
        matrix=_specs(SOLVERS_SMOKE, SOLVERS_FULL),
        measure=solvers_measure,
        # Wider than the others: the CSP side has cold-start variance.
        tolerance=0.4,
        checks=solvers_checks,
    ),
    "explore": Bench(
        title="EXPLORE: cold vs warm problem store",
        sides=("cold", "warm"),
        criterion="matching-d4",
        min_ratio=3.0,
        matrix=explore_matrix,
        measure=explore_measure,
    ),
    "service": Bench(
        title="SERVICE: cold solve vs warm cache hit, p50 latency",
        sides=("cold", "warm"),
        criterion="p50",
        min_ratio=10.0,
        matrix=service_matrix,
        measure=service_measure,
        checks=service_checks,
    ),
}


def make_row(
    bench: str, key: str, seconds: dict, sides: tuple[str, str], ratio: float | None = None
) -> dict:
    reference, fast = sides
    if ratio is None and reference in seconds and fast in seconds:
        ratio = seconds[reference] / seconds[fast]
    return {
        "bench": bench,
        "key": key,
        "seconds": {side: round(value, 6) for side, value in seconds.items()},
        "ratio": None if ratio is None else round(ratio, 3),
    }


def run(name: str, smoke: bool) -> dict:
    """Measure bench ``name``; returns its ``repro.bench/v2`` payload."""
    bench = BENCHES[name]
    seconds, ratios, blocks = bench.measure(bench.matrix(smoke))
    return {
        "schema": SCHEMA,
        "bench": name,
        "mode": "smoke" if smoke else "full",
        "criterion": {"key": bench.criterion, "min_ratio": bench.min_ratio},
        "rows": [
            make_row(name, key, row, bench.sides, ratios.get(key))
            for key, row in seconds.items()
        ],
        **blocks,
    }


def criterion_failures(payload: dict) -> list[str]:
    """The criterion row's ratio against its minimum; raises when the row
    is missing."""
    key = payload["criterion"]["key"]
    minimum = payload["criterion"]["min_ratio"]
    rows = [row for row in payload["rows"] if row["key"] == key]
    if not rows:
        raise LookupError(f"criterion row {key!r} missing from the payload")
    ratio = rows[0]["ratio"]
    if ratio is not None and ratio >= minimum:
        return []
    return [f"criterion: {key} ratio {ratio}x < {minimum}x"]


def baseline_failures(payload: dict, baseline: dict, tolerance: float) -> list[str]:
    """Rows whose ratio dropped more than ``tolerance`` (a fraction)
    below the baseline row with the same key.

    Rows absent from the baseline, rows timing one side only and rows
    whose slower side runs under ``MIN_GATE_SECONDS`` are not gated.
    """
    expected = {row["key"]: row["ratio"] for row in baseline["rows"]}
    failures = []
    for row in payload["rows"]:
        if expected.get(row["key"]) is None or row["ratio"] is None:
            continue
        if max(row["seconds"].values()) < MIN_GATE_SECONDS:
            continue
        floor = expected[row["key"]] * (1.0 - tolerance)
        if row["ratio"] < floor:
            failures.append(
                f"{row['key']}: ratio {row['ratio']:.2f}x < {floor:.2f}x "
                f"(baseline {expected[row['key']]:.2f}x - {tolerance:.0%})"
            )
    return failures


def print_payload(payload: dict) -> None:
    bench = BENCHES[payload["bench"]]

    def cell(row: dict, side: str) -> str:
        value = row["seconds"].get(side)
        return "-" if value is None else f"{value:.4f}"

    print_table(
        ["key", *(f"{side} (s)" for side in bench.sides), "ratio"],
        [
            (
                row["key"],
                *(cell(row, side) for side in bench.sides),
                "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
            )
            for row in payload["rows"]
        ],
        title=f"{bench.title} ({payload['mode']})",
    )
    for block in sorted(set(payload) - {"schema", "bench", "mode", "criterion", "rows"}):
        print(f"{block}: {canonical_dumps(payload[block])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(BENCHES))
    parser.add_argument("--smoke", action="store_true",
                        help="the CI matrix (fewer, smaller workloads)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default BENCH_<bench>.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate the row ratios against")
    args = parser.parse_args(argv)
    bench = BENCHES[args.bench]
    if args.baseline and bench.tolerance is None:
        parser.error(f"bench {args.bench!r} has no baseline gate")

    payload = run(args.bench, args.smoke)
    print_payload(payload)
    out = args.out or f"BENCH_{args.bench}.json"
    Path(out).write_text(canonical_dumps(payload, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)

    failures = criterion_failures(payload) + bench.checks(payload)
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        failures += baseline_failures(payload, baseline, bench.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        criterion = next(r for r in payload["rows"] if r["key"] == bench.criterion)
        print(f"ok: {bench.criterion} ratio {criterion['ratio']:.2f}x "
              f">= {bench.min_ratio}x", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
