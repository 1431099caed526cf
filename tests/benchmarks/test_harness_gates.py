"""The gate logic of ``benchmarks/harness.py`` on synthetic payloads.

Nothing here times anything: the payloads are built by hand, so these
tests pin what the gates decide, and that the committed baselines still
match the harness's schema and smoke matrices.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

_spec = importlib.util.spec_from_file_location("bench_harness", BENCHMARKS / "harness.py")
harness = sys.modules["bench_harness"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

BASELINES = {
    "engines": BENCHMARKS / "baselines" / "BENCH_engines.json",
    "roundelim": BENCHMARKS / "baselines" / "BENCH_roundelim.json",
    "solvers": BENCHMARKS / "baselines" / "BENCH_solvers.json",
}


def payload(*rows, criterion="a", min_ratio=4.0):
    return {
        "schema": harness.SCHEMA,
        "bench": "roundelim",
        "criterion": {"key": criterion, "min_ratio": min_ratio},
        "rows": [
            harness.make_row("roundelim", key, seconds, ("reference", "kernel"))
            for key, seconds in rows
        ],
    }


def baseline(**ratios):
    return {"rows": [{"key": key, "ratio": ratio} for key, ratio in ratios.items()]}


class TestRows:
    def test_ratio_is_reference_over_fast(self):
        row = harness.make_row("b", "k", {"reference": 1.0, "kernel": 0.25},
                               ("reference", "kernel"))
        assert row == {
            "bench": "b",
            "key": "k",
            "seconds": {"reference": 1.0, "kernel": 0.25},
            "ratio": 4.0,
        }

    def test_one_sided_row_has_no_ratio(self):
        row = harness.make_row("b", "k", {"kernel": 0.25}, ("reference", "kernel"))
        assert row["ratio"] is None


class TestCriterion:
    def test_ratio_at_minimum_passes(self):
        assert harness.criterion_failures(payload(("a", {"reference": 4.0, "kernel": 1.0}))) == []

    def test_ratio_below_minimum_fails(self):
        failures = harness.criterion_failures(
            payload(("a", {"reference": 3.9, "kernel": 1.0}))
        )
        assert len(failures) == 1 and "a" in failures[0]

    def test_missing_criterion_row_raises(self):
        with pytest.raises(LookupError, match="'a'"):
            harness.criterion_failures(payload(("b", {"reference": 9.0, "kernel": 1.0})))


class TestBaseline:
    def test_row_below_tolerance_floor_fails(self):
        # Floor: 3.0 × (1 − 0.25) = 2.25.
        measured = payload(("a", {"reference": 1.0, "kernel": 0.5}))
        failures = harness.baseline_failures(measured, baseline(a=3.0), 0.25)
        assert len(failures) == 1 and failures[0].startswith("a:")

    def test_row_above_tolerance_floor_passes(self):
        measured = payload(("a", {"reference": 1.0, "kernel": 0.44}))
        assert harness.baseline_failures(measured, baseline(a=3.0), 0.25) == []

    def test_row_with_fast_slower_side_is_skipped(self):
        slow = harness.MIN_GATE_SECONDS * 0.9
        measured = payload(("a", {"reference": slow, "kernel": slow / 2}))
        assert harness.baseline_failures(measured, baseline(a=100.0), 0.25) == []

    def test_rows_without_a_baseline_or_a_ratio_are_skipped(self):
        measured = payload(("a", {"reference": 1.0, "kernel": 0.5}),
                           ("b", {"kernel": 1.0}))
        assert harness.baseline_failures(measured, baseline(b=100.0), 0.25) == []


@pytest.mark.parametrize("name", sorted(harness.BENCHES))
def test_criterion_row_is_in_both_matrices(name):
    bench = harness.BENCHES[name]
    for smoke in (True, False):
        assert bench.criterion in bench.matrix(smoke)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_matches_harness(name):
    data = json.loads(BASELINES[name].read_text())
    bench = harness.BENCHES[name]
    assert data["schema"] == harness.SCHEMA
    assert data["bench"] == name
    assert data["criterion"] == {"key": bench.criterion, "min_ratio": bench.min_ratio}
    assert bench.tolerance is not None
    for row in data["rows"]:
        assert row["bench"] == name
        assert isinstance(row["ratio"], float)
    keys = {row["key"] for row in data["rows"]}
    assert set(bench.matrix(True)) <= keys
    assert harness.criterion_failures(data) == []
