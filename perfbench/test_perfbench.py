"""Tests of the benchmark's own helpers, plus a smoke run of each workload.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import explore_re
import layers
import service_mix
import solve_large
from stats import TooFewSamplesError, percentile, summarize, tail_sample_floor
from tracing import Tracer, self_ns


class TestPercentile:
    def test_median_needs_one_sample(self):
        assert percentile([4.0], 50) == 4.0
        assert percentile([3, 1, 2, 10], 50) == 2.5

    def test_tail_needs_ten_samples_beyond(self):
        assert tail_sample_floor(90) == 100
        assert tail_sample_floor(75) == 40
        with pytest.raises(TooFewSamplesError):
            percentile(range(99), 90)
        assert percentile(range(100), 90) == pytest.approx(89.1)
        with pytest.raises(TooFewSamplesError):
            percentile(range(39), 75)

    def test_summary_reports_sample_count(self):
        summary = summarize(list(range(200)), tail=90)
        assert summary["n"] == 200
        assert summary["p50"] == pytest.approx(99.5)
        assert "p90" in summary
        with pytest.raises(TooFewSamplesError):
            summarize([1.0] * 20, tail=90)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(TooFewSamplesError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 100)


class TestSelfTime:
    def test_span_minus_children(self):
        assert self_ns(["p", 0, 100, None, None], [["c", 10, 30, 0, None]]) == 80

    def test_tracer_nests_and_reports_self_time(self):
        tracer = Tracer()
        outer = tracer.open("solve")
        inner = tracer.open("api.network")
        tracer.close(inner)
        tracer.close(outer)
        dump = tracer.dump()
        assert dump["spans"][1][3] == 0  # parent of the inner span
        measured = layers.span_metrics([dump])
        assert measured["api.network.calls"] == 1
        solve, network = dump["spans"]
        expected = (solve[2] - solve[1]) - (network[2] - network[1])
        assert measured["solve.unattributed_s"] == pytest.approx(expected / 1e9)

    def test_wrappers_keep_class_methods(self):
        tracer = Tracer()

        class Thing:
            @classmethod
            def of(cls, x):
                return (cls, x)

        tracer.patch(Thing, "of", "thing")
        assert Thing.of(3) == (Thing, 3)
        assert tracer.dump()["spans"][0][0] == "thing"


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)


def test_service_stream_is_seeded_and_mixed():
    population, stream = service_mix.request_stream(7, 64)
    again = service_mix.request_stream(7, 64)[1]
    head = [next(stream) for _ in range(200)]
    assert head == [next(again) for _ in range(200)]
    assert sum(kind == "cold" for kind, _ in head) == 20
    assert len(population) == 13
    colds = [request["seed"] for kind, request in head if kind == "cold"]
    assert len(set(colds)) == len(colds)


@pytest.mark.parametrize("workload", [solve_large, explore_re, service_mix])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_checks(workload, trace):
    outcome = workload.run(seed=3, seconds=1, trace=trace, smoke=True)
    assert outcome["errors"] == []
    names = set(outcome["metrics"])
    expected = set(layers.per_layer_units() if trace else layers.END_TO_END)
    assert names == expected
