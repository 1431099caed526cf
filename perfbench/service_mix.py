"""Workload ``service-mix``: the solve daemon under a mixed closed loop.

The daemon runs as ``python -m repro.service serve`` with its default
flags (one inline worker, object engine).  This process is the load
generator: two connections in a closed loop, each sending its next
request only when the previous reply arrived -- the daemon's callers
(``ServiceClient``, the command line) wait for each reply.

Traffic, all derived from the seed: a population of 10 solves at
n=4096 (two seeds for each of five families) plus three round-
elimination requests is pre-warmed before the load starts.  The request
stream then comes in blocks of ten: nine repeats of the population
(cache hits, the warm path) and one solve with a fresh seed (a miss that
runs the whole solve and check, the cold path).  Families and
population entries are dealt in shuffled rounds, so every run has the
same mix.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

import layers
import proc
from stats import TooFewSamplesError, summarize

FAMILIES = (
    ("maximal-matching:delta=3", "matching:proposal"),
    ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep"),
    ("mis:delta=3", "mis:luby"),
    ("coloring:delta=3", "coloring:class-sweep"),
    ("arbdefective:delta=3,colors=2", "arbdefective:class-sweep"),
)
RE_PROBLEMS = (
    "sinkless-orientation:delta=3",
    "maximal-matching:delta=3",
    "matching:delta=3,x=0,y=1",
)
N = 4096
SMOKE_N = 256
SEEDS_PER_FAMILY = 2
CONNECTIONS = 2
BLOCK = 10
#: Daemon start-ups timed per run; set-up is their median.
SETUPS = 3
#: Cold responses re-solved directly and compared byte for byte.
VERIFIED_COLD = 2
READY_TIMEOUT = 30
REQUEST_TIMEOUT = 30
STOP_TIMEOUT = 15


def request_stream(seed: int, n: int):
    """(population, endless iterator of (kind, request)) for ``seed``."""
    from repro.service.protocol import roundelim_request, solve_request

    rng = random.Random(f"{layers.SERVICE}:{seed}")
    seeds = rng.sample(range(10**6), len(FAMILIES) * SEEDS_PER_FAMILY)
    population = [
        solve_request(spec, algorithm=algorithm, n=n, seed=seeds.pop())
        for spec, algorithm in FAMILIES
        for _ in range(SEEDS_PER_FAMILY)
    ] + [roundelim_request(problem, op="RE") for problem in RE_PROBLEMS]

    def dealt(items):
        while True:
            batch = list(items)
            rng.shuffle(batch)
            yield from batch

    def stream():
        warm = dealt(population)
        families = dealt(FAMILIES)
        fresh = itertools.count(10**6 + rng.randrange(10**6) * 10**4)
        while True:
            cold_at = rng.randrange(BLOCK)
            for position in range(BLOCK):
                if position == cold_at:
                    spec, algorithm = next(families)
                    yield "cold", solve_request(
                        spec, algorithm=algorithm, n=n, seed=next(fresh)
                    )
                else:
                    yield "warm", next(warm)

    return population, stream()


class Daemon:
    """One daemon process, started and stopped by the generator."""

    def __init__(self, scratch, name: str, spans_file=None) -> None:
        self.ready_file = scratch / f"{name}.ready"
        self.log = open(scratch / f"{name}.log", "w")
        serve = ["serve", "--port", "0", "--ready-file", str(self.ready_file)]
        if spans_file is None:
            command = [sys.executable, "-m", "repro.service", *serve]
        else:
            command = [sys.executable, str(proc.HERE / "serve.py"), str(spans_file), *serve]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
            cwd=proc.ROOT, env=proc.child_env(),
        )
        while True:
            fields = self.ready_file.read_text().split() if self.ready_file.exists() else []
            if len(fields) == 2:
                break
            if self.proc.poll() is not None or time.perf_counter() - start > READY_TIMEOUT:
                self.stop()
                raise RuntimeError(f"daemon did not start: {self.tail()}")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start
        self.url = f"http://{fields[0]}:{fields[1]}"

    def tail(self) -> str:
        self.log.flush()
        with open(self.log.name) as log:
            return log.read()[-500:]

    def stop(self) -> float:
        """Shut down gracefully (kill on timeout); returns peak RSS in MB."""
        from repro.service.client import ServiceClient, ServiceUnavailableError

        if self.proc.poll() is None and hasattr(self, "url"):
            try:
                ServiceClient(self.url, retries=0).shutdown()
            except ServiceUnavailableError:
                pass
        deadline = time.perf_counter() + STOP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return usage.ru_maxrss / 1024


def load(url: str, stream, seconds: float) -> tuple[list, int, int]:
    """Closed loop on ``CONNECTIONS`` connections for ``seconds``.

    Returns (records, start_ns, end_ns); a record is (kind, request,
    latency_ns, response or None, error or None).
    """
    from repro.service.client import ServiceClient

    records = []
    lock = threading.Lock()
    start_ns = time.perf_counter_ns()
    deadline = start_ns + int(seconds * 1e9)

    def connection():
        client = ServiceClient(url, retries=0, timeout=REQUEST_TIMEOUT)
        while time.perf_counter_ns() < deadline:
            with lock:
                kind, request = next(stream)
            sent = time.perf_counter_ns()
            response = error = None
            try:
                response = client.request(request)
            except Exception as failure:  # noqa: BLE001 - counted, not fatal
                error = f"{type(failure).__name__}: {failure}"
            latency = time.perf_counter_ns() - sent
            with lock:
                records.append((kind, request, latency, response, error))

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, start_ns, time.perf_counter_ns()


def check(records, digests: set) -> list[str]:
    """Every response ok; hits cached, fresh requests not."""
    errors = []
    for kind, _request, _latency, response, error in records:
        if error is not None or response.get("status") != "ok":
            errors.append(f"{kind} request failed: {error or response.get('error')}")
        elif kind == "warm" and not (response["cached"] and response["digest"] in digests):
            errors.append(f"warm request not a cache hit: {response['digest']}")
        elif kind == "cold" and response["cached"]:
            errors.append(f"fresh request answered from cache: {response['digest']}")
    return errors


def verify_cold(records) -> list[str]:
    """Re-solve the first cold requests directly; bytes must match."""
    from repro import api
    from repro.utils.serialization import canonical_dumps

    errors = []
    cold = [r for r in records if r[0] == "cold" and r[3] is not None][:VERIFIED_COLD]
    for _kind, request, _latency, response, _error in cold:
        direct = api.solve(
            request["problem"], algorithm=request["algorithm"], n=request["n"],
            seed=request["seed"], max_rounds=request["max_rounds"],
            check=request["check"],
        ).canonical_json()
        if canonical_dumps(response["report"]) != direct:
            errors.append(f"service bytes differ from api.solve for {request}")
    return errors


def session(scratch, name: str, seed: int, n: int, seconds: float,
            setups: int, spans_file=None) -> dict:
    """Start the daemon ``setups`` times, pre-warm, load, stop."""
    from repro.service.client import ServiceClient

    setup_times = []
    for attempt in range(setups):
        daemon = Daemon(scratch, f"{name}-{attempt}", spans_file)
        setup_times.append(daemon.setup_s)
        if attempt < setups - 1:
            daemon.stop()
    try:
        population, stream = request_stream(seed, n)
        client = ServiceClient(daemon.url, retries=0)
        prewarm = [client.request(request) for request in population]
        errors = [f"pre-warm failed: {r.get('error')}" for r in prewarm if r.get("status") != "ok"]
        digests = {r.get("digest") for r in prewarm}
        before = client.status()
        records, start_ns, end_ns = load(daemon.url, stream, seconds)
        after = client.status()
    finally:
        rss_mb = daemon.stop()
    errors += check(records, digests)
    return {
        "setup_s": setup_times,
        "rss_mb": rss_mb,
        "records": records,
        "window": (start_ns, end_ns),
        "status": (before, after),
        "errors": errors,
    }


def latencies_ms(records, kind: str) -> list[float]:
    return [r[2] / 1e6 for r in records if r[0] == kind and r[4] is None]


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    n = SMOKE_N if smoke else N
    with proc.scratch_dir(layers.SERVICE) as scratch:
        if not trace:
            result = session(scratch, "plain", seed, n, seconds, SETUPS)
            phases = [result]
        else:
            spans_file = scratch / "spans.json"
            plain = session(scratch, "plain", seed, n, seconds / 2, 1)
            result = session(scratch, "traced", seed, n, seconds / 2, 1, spans_file)
            dump = json.loads(spans_file.read_text())
            phases = [plain, result]
        errors = [e for phase in phases for e in phase["errors"]]
        errors += verify_cold(result["records"])
    records = result["records"]
    attempted = sum(len(phase["records"]) for phase in phases)
    cold, warm = latencies_ms(records, "cold"), latencies_ms(records, "warm")
    if not cold or not warm:
        return {"attempted": attempted, "errors": errors + ["no samples"],
                "metrics": {}, "samples": {}}
    # Tails for people: the highest percentile each sample count supports.
    samples = {}
    for name, values, tail in (("warm_ms", warm, 90), ("cold_ms", cold, 75)):
        try:
            samples[name] = summarize(values, tail=tail)
        except TooFewSamplesError:
            samples[name] = summarize(values)
    if trace:
        metrics, missing = _layers(plain, result, dump)
        errors += [f"layer {name} recorded no call" for name in missing]
    else:
        start_ns, end_ns = result["window"]
        metrics = layers.end_to_end(
            setup_s=statistics.median(result["setup_s"]),
            peak_rss_mb=result["rss_mb"],
            cold_ms=cold,
            warm_ms=warm,
            throughput_per_s=len(cold + warm) / ((end_ns - start_ns) / 1e9),
        )
    return {"attempted": attempted, "errors": errors, "metrics": metrics,
            "samples": samples}


def _layers(plain: dict, traced: dict, dump: dict):
    """Per-layer metrics of the traced phase's load window."""
    start_ns = traced["window"][0]
    # Pre-warm work happened before the window.  Earlier spans become
    # placeholders that match no layer, so parent indices stay valid.
    window = {
        "spans": [s if s[1] >= start_ns else ["", 0, 0, None, None] for s in dump["spans"]],
        "counts": [c for c in dump["counts"] if c[1] >= start_ns],
    }
    measured = layers.span_metrics([window])

    records = traced["records"]
    client_ns, server_ns = {}, {}
    for _kind, _request, latency, response, error in records:
        if error is None:
            key = response["digest"]
            client_ns[key] = client_ns.get(key, 0) + latency
    for span in window["spans"]:
        if span[0] == "service.submit" and span[2] is not None and span[4] in client_ns:
            server_ns[span[4]] = server_ns.get(span[4], 0) + span[2] - span[1]
    served = len([r for r in records if r[4] is None])
    total_client = sum(client_ns.values())
    total_server = sum(server_ns.values())
    measured["service.transport_ms"] = (total_client - total_server) / 1e6 / max(served, 1)
    measured["trace.coverage"] = total_server / total_client if total_client else 0.0
    measured["trace.operations"] = served

    before, after = traced["status"]
    for key in ("batches", "coalesced", "solves_computed", "errors"):
        measured[f"service.{key}"] = after[key] - before[key]
    measured["service.shed"] = after["reliability"]["shed"] - before["reliability"]["shed"]
    hits = sum(after["cache"][k] - before["cache"][k] for k in ("memory_hits", "disk_hits"))
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    measured["service.cache.hit_rate"] = hits / lookups if lookups else 0.0

    for kind in ("cold", "warm"):
        measured[f"trace.overhead_{kind}_ms"] = statistics.median(
            latencies_ms(traced["records"], kind)
        ) - statistics.median(latencies_ms(plain["records"], kind))
    return layers.per_layer_metrics(layers.SERVICE, measured)
