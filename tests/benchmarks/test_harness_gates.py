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


def scripted_clock(durations):
    """A fake clock whose successive start/stop readings span
    ``durations`` in order, one per timed call."""
    readings, now = [], 0.0
    for duration in durations:
        readings += [now, now + duration]
        now += duration + 1.0
    return iter(readings).__next__


def recording(calls, side):
    def run():
        calls.append(side)
        return f"{side}-{len(calls)}"
    return run


class TestPaired:
    def test_sides_alternate_and_ratio_is_the_median_of_pair_ratios(self, monkeypatch):
        monkeypatch.setattr(harness, "PAIRS", 3)
        calls = []
        # Per-pair (reference, fast): ratios 2, 10 and 4; median 4.
        clock = scripted_clock([2.0, 1.0, 1.0, 0.1, 2.0, 0.5])
        seconds, ratio, results = harness.paired(
            {"reference": recording(calls, "reference"), "fast": recording(calls, "fast")},
            clock=clock,
        )
        assert calls == ["reference", "fast"] * 3
        assert ratio == pytest.approx(4.0)
        assert seconds == pytest.approx({"reference": 1.0, "fast": 0.1})
        assert results == {"reference": "reference-5", "fast": "fast-6"}

    def test_a_spike_on_one_side_moves_the_median_less_than_best_of(self, monkeypatch):
        monkeypatch.setattr(harness, "PAIRS", 5)
        # The reference side is slowed 3x in one pair, and the fast side
        # runs its best time during that same pair: best-of per side
        # would report 2.0 / 0.2 = 10, the pairs say 5.
        durations = [2.0, 0.4] * 2 + [6.0, 0.2] + [2.0, 0.4] * 2
        seconds, ratio, _ = harness.paired(
            {"reference": lambda: None, "fast": lambda: None},
            clock=scripted_clock(durations),
        )
        assert seconds["reference"] / seconds["fast"] == pytest.approx(10.0)
        assert ratio == pytest.approx(5.0)

    def test_a_heavy_pair_is_the_last(self, monkeypatch):
        monkeypatch.setattr(harness, "PAIRS", 5)
        calls = []
        heavy = harness.HEAVY_CUTOFF_SECONDS * 2
        seconds, ratio, _ = harness.paired(
            {"reference": recording(calls, "reference"), "fast": recording(calls, "fast")},
            clock=scripted_clock([heavy, 1.0]),
        )
        assert calls == ["reference", "fast"]
        assert ratio == pytest.approx(heavy)
        assert seconds == pytest.approx({"reference": heavy, "fast": 1.0})

    def test_one_side_has_no_ratio(self, monkeypatch):
        monkeypatch.setattr(harness, "PAIRS", 2)
        seconds, ratio, results = harness.paired(
            {"fast": lambda: "out"}, clock=scripted_clock([0.5, 0.25])
        )
        assert ratio is None
        assert seconds == pytest.approx({"fast": 0.25})
        assert results == {"fast": "out"}

    def test_run_gates_the_paired_ratio(self, monkeypatch):
        bench = harness.BENCHES["roundelim"]
        monkeypatch.setitem(harness.BENCHES, "roundelim", harness.Bench(
            title=bench.title,
            sides=bench.sides,
            criterion="a",
            min_ratio=4.0,
            matrix=lambda smoke: {"a": None, "b": None},
            measure=lambda matrix: (
                {key: {"reference": 1.0, "kernel": 0.5} for key in matrix},
                {"a": 4.5},
                {},
            ),
        ))
        rows = {row["key"]: row for row in harness.run("roundelim", smoke=True)["rows"]}
        assert rows["a"]["ratio"] == 4.5  # the paired ratio, not 1.0 / 0.5
        assert rows["b"]["ratio"] == 2.0  # no paired ratio: seconds ratio


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
