"""Process plumbing shared by the workloads.

Every measured call runs in a process the benchmark starts from the
checkout root, with ``src`` on ``PYTHONPATH`` and nothing installed.  A
child reports set-up done by printing ``ready``, then prints one JSON
line with its results; the parent times process start to ``ready``.
Scratch files go under ``.bench_tmp`` in the checkout and are removed.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Seconds a child may take before it is killed.
CHILD_TIMEOUT = 100


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def announce_ready() -> None:
    """Child side: set-up is done, the measured work starts now."""
    print("ready", flush=True)


def peak_rss_mb() -> float:
    """Child side: this process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(script: str, args: dict) -> tuple[float, dict]:
    """Run ``perfbench/<script>`` with ``args``; return (set-up s, result).

    Raises ``RuntimeError`` when the child fails or prints no result.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), json.dumps(args)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, CHILD_TIMEOUT - setup_s))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{script} child failed (exit {proc.returncode}); "
            f"stdout: {(first + rest)[-500:]!r}"
        )
    return setup_s, json.loads(lines[-1])


@dataclass
class Sampled:
    """What :func:`sample_processes` collected."""

    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    wall: float = 0.0


def sample_processes(script: str, seconds: float, trace: bool, args_for, check) -> Sampled:
    """Run ``script`` in fresh processes until ``seconds`` pass.

    A traced run alternates untraced (even index) and traced (odd index)
    processes and runs at least one of each.  ``args_for(index)`` gives a
    process's arguments, ``check(args, result)`` its correctness errors.
    Each process makes two calls, a cold and a warm one.
    """
    sampled = Sampled()
    start = time.perf_counter()
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 1
        args = args_for(index)
        index += 1
        sampled.attempted += 2
        try:
            setup_s, result = run_child(script, {**args, "trace": traced})
        except RuntimeError as error:
            sampled.errors.append(str(error))
            continue
        sampled.errors += check(args, result)
        sampled.setups.append(setup_s)
        (sampled.traced if traced else sampled.plain).append(result)
    sampled.wall = time.perf_counter() - start
    return sampled


def sample_summary(sampled: Sampled) -> dict:
    """Process count and the untraced per-call times, for people."""
    summary = {"processes": len(sampled.plain) + len(sampled.traced)}
    for kind in ("cold", "warm"):
        values = [round(1000 * r[f"{kind}_s"], 1) for r in sampled.plain]
        summary[f"{kind}_ms"] = {"n": len(values), "values": values}
    return summary


@contextmanager
def scratch_dir(name: str):
    """A fresh directory under ``.bench_tmp`` in the checkout, removed after."""
    path = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
