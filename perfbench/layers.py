"""The layers the benchmark splits time into, and the wrappers that time them.

:data:`LAYERS` is the map every later performance change is judged
against: for each per-layer metric, the public call it wraps, the
end-to-end metric and workload it should move, and the workloads that
bypass it, where a change to that layer is predicted to show no change.
The ``expected`` workloads are also the coverage guard: a traced run of
one of them fails when the wrapper recorded no call, so a renamed entry
point cannot silently zero its layer.

The ``install_*`` functions replace public functions, methods and
registry entries of ``repro`` with traced forms.  They run only in a
traced run and never touch the program's files.
"""

from __future__ import annotations

import statistics
import time

from stats import percentile
from tracing import children_of, self_ns, totals

SOLVE, SERVICE, EXPLORE = "solve-large", "service-mix", "explore-re"
WORKLOADS = (SOLVE, SERVICE, EXPLORE)

#: span -> (public call wrapped, what it should move, workloads where it
#: must fire).  Workloads not listed bypass the layer.
LAYERS = {
    "api.network": (
        "Algorithm.default_network (repro.api.networks, repro.graphs, "
        "repro.local.Network)",
        "cold_p50_ms on solve-large (large share); cold_p50_ms on "
        "service-mix (small share); not warm_p50_ms on solve-large",
        (SOLVE, SERVICE),
    ),
    "local.compile": (
        "repro.local.vectorized.VectorNetwork.of",
        "cold_p50_ms on solve-large; service-mix runs the object engine",
        (SOLVE,),
    ),
    "algorithms.program": (
        "Algorithm.program (repro.algorithms)",
        "cold_p50_ms and warm_p50_ms on solve-large",
        (SOLVE, SERVICE),
    ),
    "algorithms.finalize": (
        "Algorithm.finalize (repro.algorithms)",
        "cold_p50_ms and warm_p50_ms on solve-large",
        (SOLVE, SERVICE),
    ),
    "local.engine": (
        "Engine.run (repro.local); counts rounds and messages",
        "cold_p50_ms on solve-large (vectorized) and service-mix (object)",
        (SOLVE, SERVICE),
    ),
    "checkers.check": (
        "the repro.api.FAMILY_CHECKERS entry called (repro.checkers)",
        "cold_p50_ms on service-mix (dominant); solve-large (minor)",
        (SOLVE, SERVICE),
    ),
    "api.report_json": (
        "repro.api.types.SolveReport.canonical_json",
        "cold_p50_ms and warm_p50_ms on solve-large",
        (SOLVE, SERVICE),
    ),
    "service.submit": (
        "repro.service.server.SolveService.submit",
        "warm_p50_ms and cold_p50_ms on service-mix",
        (SERVICE,),
    ),
    "service.canonicalize": (
        "repro.service.protocol canonicalize_request + request_digest",
        "warm_p50_ms on service-mix (roundelim hits pay normal_form here)",
        (SERVICE,),
    ),
    "service.cache_lookup": (
        "repro.service.cache.ReportCache.lookup",
        "warm_p50_ms on service-mix",
        (SERVICE,),
    ),
    "service.cache_record": (
        "repro.service.cache.ReportCache.record",
        "cold_p50_ms on service-mix",
        (SERVICE,),
    ),
    "service.render": (
        "repro.service.protocol.render_ok_response",
        "warm_p50_ms on service-mix",
        (SERVICE,),
    ),
    "service.queue_wait": (
        "SolveService queue: put to SupervisedWorkerPool.run_batch",
        "cold_p50_ms and throughput_per_s on service-mix",
        (SERVICE,),
    ),
    "service.worker": (
        "repro.reliability.supervise.SupervisedWorkerPool.run_batch",
        "cold_p50_ms and throughput_per_s on service-mix",
        (SERVICE,),
    ),
    "roundelim.step": (
        "repro.roundelim.explore.store.compute_step (bitmask R / R-bar)",
        "cold_p50_ms on explore-re",
        (EXPLORE,),
    ),
    "formalism.relaxation": (
        "repro.formalism.relaxations via store.compute_relaxation",
        "cold_p50_ms on explore-re",
        (EXPLORE,),
    ),
    "roundelim.verify": (
        "repro.roundelim.sequences.LowerBoundSequence.verify",
        "cold_p50_ms and most of warm_p50_ms on explore-re",
        (EXPLORE,),
    ),
    "explore.classify": (
        "zero-round classification (repro.roundelim.explore.classify)",
        "cold_p50_ms and warm_p50_ms on explore-re",
        (EXPLORE,),
    ),
    "formalism.normal_form": (
        "repro.roundelim.explore.store.ProblemStore.intern",
        "cold_p50_ms and warm_p50_ms on explore-re",
        (EXPLORE,),
    ),
}


#: End-to-end metrics, printed by every untraced run of every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "throughput_per_s": "1/s",
}


def end_to_end(*, setup_s, peak_rss_mb, cold_ms, warm_ms, throughput_per_s) -> dict:
    """The untraced run's metric block; ``cold_ms``/``warm_ms`` are samples."""
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "cold_p50_ms": percentile(cold_ms, 50),
        "warm_p50_ms": percentile(warm_ms, 50),
        "throughput_per_s": throughput_per_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def expected_spans(workload: str) -> list[str]:
    """Spans a traced run of ``workload`` must record at least once."""
    return [name for name, (_c, _m, on) in LAYERS.items() if workload in on]


def install_solve(tracer) -> None:
    """Trace the api.solve path: network, compile, program, engine,
    finalize, check and the report's canonical JSON."""
    from repro import api
    from repro.api.types import SolveReport
    from repro.local.vectorized import VectorNetwork

    for algorithm in api.ALGORITHMS.values():
        tracer.patch(algorithm, "default_network", "api.network")
        tracer.patch(algorithm, "program", "algorithms.program")
        tracer.patch(algorithm, "finalize", "algorithms.finalize")
    for engine in api.ENGINES.values():
        engine.run = _counting_run(tracer, engine.run)
    tracer.patch(VectorNetwork, "of", "local.compile")
    for family, checker in list(api.FAMILY_CHECKERS.items()):
        api.FAMILY_CHECKERS[family] = tracer.wrap(checker, "checkers.check")
    canonical_json = tracer.wrap(SolveReport.canonical_json, "api.report_json")

    def counted_json(report, *args, **kwargs):
        text = canonical_json(report, *args, **kwargs)
        tracer.count("api.report_bytes", len(text.encode("utf-8")))
        return text

    SolveReport.canonical_json = counted_json


def _counting_run(tracer, run):
    """Engine.run in a span, counting rounds and messages off its probe."""

    def traced_run(network, program, *, probe=None, **kwargs):
        tally = {"delivered": 0, "dropped": 0}

        def counting(trace):
            tally["delivered"] += trace.messages_delivered
            tally["dropped"] += trace.messages_dropped
            if probe is not None:
                probe(trace)

        # The vectorized engine reports its path through this hook.
        note = getattr(probe, "note_engine_path", None)
        if note is not None:
            counting.note_engine_path = note
        index = tracer.open("local.engine")
        try:
            result = run(network, program, probe=counting, **kwargs)
        finally:
            tracer.close(index)
        tracer.count("local.rounds", result.rounds)
        tracer.count("local.messages_delivered", tally["delivered"])
        tracer.count("local.messages_dropped", tally["dropped"])
        return result

    return traced_run


def install_service(tracer) -> None:
    """Trace the daemon's request path; call before the service starts."""
    from repro.reliability.supervise import SupervisedWorkerPool
    from repro.service import cache, server, worker

    tracer.patch(server, "canonicalize_request", "service.canonicalize")
    digest = tracer.wrap(server.request_digest, "service.canonicalize")

    def keyed_digest(canonical):
        key = digest(canonical)
        tracer.tag(key)
        return key

    server.request_digest = keyed_digest
    tracer.patch(server.SolveService, "submit", "service.submit")
    tracer.patch(cache.ReportCache, "lookup", "service.cache_lookup")
    tracer.patch(cache.ReportCache, "record", "service.cache_record")
    tracer.patch(server, "render_ok_response", "service.render")
    tracer.patch(worker, "compute_step", "roundelim.step")

    # Queue wait: the queue item is (digest, canonical), and run_batch
    # receives the same canonical objects, so identity joins the two.
    enqueued: dict[int, tuple[int, str]] = {}
    init = server.SolveService.__init__

    def traced_init(service, *args, **kwargs):
        init(service, *args, **kwargs)
        put = service._queue.put

        def timed_put(item, *put_args, **put_kwargs):
            if isinstance(item, tuple):
                enqueued[id(item[1])] = (time.perf_counter_ns(), item[0])
            return put(item, *put_args, **put_kwargs)

        service._queue.put = timed_put

    server.SolveService.__init__ = traced_init
    run_batch = tracer.wrap(SupervisedWorkerPool.run_batch, "service.worker")

    def traced_batch(pool, batch):
        start = time.perf_counter_ns()
        for canonical in batch:
            put_at, key = enqueued.pop(id(canonical), (None, None))
            if put_at is not None:
                tracer.record("service.queue_wait", put_at, start, key)
        return run_batch(pool, batch)

    SupervisedWorkerPool.run_batch = traced_batch


def install_explore(tracer) -> None:
    """Trace the explorer: steps, relaxations, verification,
    classification and interning."""
    from repro.roundelim.explore import frontier, store
    from repro.roundelim.sequences import LowerBoundSequence

    tracer.patch(store, "compute_step", "roundelim.step")
    tracer.patch(store, "compute_relaxation", "formalism.relaxation")
    tracer.patch(LowerBoundSequence, "verify", "roundelim.verify")
    tracer.patch(frontier, "uniform_zero_round", "explore.classify")
    tracer.patch(frontier, "exhaustive_zero_round", "explore.classify")
    tracer.patch(store.ProblemStore, "intern", "formalism.normal_form")


#: Operation spans the benchmark opens around each measured call; their
#: self time is the part no layer wrapper covers.
OPERATION_SELF = {"solve": "solve.unattributed_s", "explore": "explore.frontier_self_s"}

#: Call counts with a name of their own; other layers use ``<span>.calls``.
CALL_COUNTS = {
    "roundelim.step": "roundelim.steps_computed",
    "formalism.relaxation": "explore.links_computed",
}

#: Values the workloads measure outside the span lists, with their units.
OTHER_METRICS = {
    "local.rounds": "count",
    "local.messages_delivered": "count",
    "local.messages_dropped": "count",
    "api.report_bytes": "B",
    "solve.unattributed_s": "s",
    "service.transport_ms": "ms",
    "service.batches": "count",
    "service.coalesced": "count",
    "service.cache.hit_rate": "ratio",
    "service.solves_computed": "count",
    "service.errors": "count",
    "service.shed": "count",
    "explore.store.memory_hits": "count",
    "explore.store.disk_hits": "count",
    "explore.store.misses": "count",
    "explore.store.computed": "count",
    "explore.store_hit_ratio": "ratio",
    "explore.budget_exhausted_ops": "count",
    "explore.frontier_self_s": "s",
    "trace.operations": "count",
    "trace.coverage": "ratio",
    "trace.overhead_cold_ms": "ms",
    "trace.overhead_warm_ms": "ms",
    "trace.missing_layers": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}_s"] = "s"
        units[CALL_COUNTS.get(name, f"{name}.calls")] = "count"
    units.update(OTHER_METRICS)
    return units


def span_metrics(dumps) -> dict[str, float]:
    """Layer totals, call counts, counters, operation self times, and the
    share of the operation spans' time that layer spans cover.

    ``dumps`` are :meth:`Tracer.dump` outputs, one per process; span
    parent indices are local to their dump.
    """
    out: dict[str, float] = {}
    operations_s = uncovered_s = 0.0
    for dump in dumps:
        spans = dump["spans"]
        for name, (seconds, calls) in totals(spans).items():
            if name in LAYERS:
                out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + seconds
                count = CALL_COUNTS.get(name, f"{name}.calls")
                out[count] = out.get(count, 0) + calls
        for name, _time, amount in dump["counts"]:
            out[name] = out.get(name, 0) + amount
        children = children_of(spans)
        for index, span in enumerate(spans):
            metric = OPERATION_SELF.get(span[0])
            if metric is not None and span[2] is not None:
                own = self_ns(span, children.get(index, ())) / 1e9
                out[metric] = out.get(metric, 0.0) + own
                operations_s += (span[2] - span[1]) / 1e9
                uncovered_s += own
    if operations_s:
        out["trace.coverage"] = 1 - uncovered_s / operations_s
    return out


def process_metrics(workload: str, sampled, trace: bool, measured=None):
    """Metrics of a workload run by :func:`proc.sample_processes`.

    Its processes report ``cold_s``, ``warm_s``, ``rss_mb`` and, when
    traced, ``trace``; ``measured`` adds per-layer values found
    elsewhere.  Returns (metrics, errors); no metrics when a kind of
    process never succeeded (its failures are already in the errors).
    """
    plain, traced = sampled.plain, sampled.traced
    if not plain or (trace and not traced):
        return {}, []
    if not trace:
        return end_to_end(
            setup_s=statistics.median(sampled.setups),
            peak_rss_mb=statistics.median(r["rss_mb"] for r in plain),
            cold_ms=[1000 * r["cold_s"] for r in plain],
            warm_ms=[1000 * r["warm_s"] for r in plain],
            throughput_per_s=2 * len(plain) / sampled.wall,
        ), []
    values = {**span_metrics([r["trace"] for r in traced]), **(measured or {})}
    values["trace.operations"] = 2 * len(traced)
    for kind in ("cold", "warm"):
        values[f"trace.overhead_{kind}_ms"] = 1000 * (
            statistics.median(r[f"{kind}_s"] for r in traced)
            - statistics.median(r[f"{kind}_s"] for r in plain)
        )
    metrics, missing = per_layer_metrics(workload, values)
    return metrics, [f"layer {name} recorded no call" for name in missing]


def per_layer_metrics(workload: str, measured: dict[str, float]):
    """The traced run's metric block: every per-layer metric, zero where
    ``workload`` bypasses the layer, plus the coverage guard's verdict."""
    missing = [
        name for name in expected_spans(workload)
        if not measured.get(CALL_COUNTS.get(name, f"{name}.calls"))
    ]
    values = {**measured, "trace.missing_layers": len(missing)}
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in per_layer_units().items()
    }
    return metrics, missing
