"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_arith.py -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _recorder():
    clock = FakeClock()
    return stats.SpanRecorder(clock=clock), clock


class TestSelfTime:
    def test_nested_spans_subtract_the_child(self):
        rec, clock = _recorder()
        rec.push("a:outer")
        clock.now = 1.0
        rec.push("b:inner")
        clock.now = 4.0
        rec.pop()
        clock.now = 5.0
        rec.pop()
        assert rec.agg[("a:outer",)] == [1, 5.0, 2.0]
        assert rec.agg[("a:outer", "b:inner")] == [1, 3.0, 3.0]

    def test_sibling_spans_both_subtract_and_aggregate(self):
        rec, clock = _recorder()
        rec.push("a:root")
        for start, end in ((1.0, 2.0), (3.0, 6.0)):
            clock.now = start
            rec.push("b:child")
            clock.now = end
            rec.pop()
        clock.now = 10.0
        rec.pop()
        assert rec.agg[("a:root",)] == [1, 10.0, 6.0]
        assert rec.agg[("a:root", "b:child")] == [2, 4.0, 4.0]
        assert rec.by_name() == {"a:root": (1, 6.0), "b:child": (2, 4.0)}

    def test_grandchild_is_not_subtracted_twice(self):
        rec, clock = _recorder()
        rec.push("a:x")
        clock.now = 1.0
        rec.push("b:y")
        clock.now = 2.0
        rec.push("c:z")
        clock.now = 5.0
        rec.pop()
        clock.now = 6.0
        rec.pop()
        clock.now = 8.0
        rec.pop()
        by_name = rec.by_name()
        assert by_name["a:x"][1] == 3.0
        assert by_name["b:y"][1] == 2.0
        assert by_name["c:z"][1] == 3.0
        # Self times partition the root's wall time exactly.
        assert sum(s for _c, s in by_name.values()) == rec.root_total_s() == 8.0

    def test_layers_sum_self_time_across_paths(self):
        rec, clock = _recorder()
        rec.push("bench:session")
        for parent in ("controller:C.activate", "mitigations:P.on_activate"):
            rec.push(parent)
            clock.now += 1.0
            rec.push("dram.bank:B.activate")
            clock.now += 2.0
            rec.pop()
            rec.pop()
        clock.now += 0.5
        rec.pop()
        self_s, calls = tracer.attribute(rec)
        assert self_s == {"bench": 0.5, "controller": 1.0, "mitigations": 1.0,
                          "dram.bank": 4.0}
        assert tracer.calls_matching(calls, "dram.bank", "activate") == 2
        assert tracer.calls_matching(calls, "controller") == 1


class TestPercentile:
    def test_matches_statistics_inclusive_quantiles(self):
        data = [float(x * x % 97) for x in range(200)]
        expected = statistics.quantiles(data, n=10, method="inclusive")
        assert stats.percentile(data, 0.9) == pytest.approx(expected[8])
        assert stats.percentile(data, 0.5) == pytest.approx(statistics.median(data))

    @pytest.mark.parametrize("n", [92, 99, 100, 150, 1000])
    def test_p90_kept_when_ten_samples_lie_beyond(self, n):
        data = list(range(n))
        q, value = stats.reportable_percentile(data)
        assert q == 0.9
        assert sum(1 for x in data if x > value) >= 10

    @pytest.mark.parametrize("n", [30, 60, 85, 91])
    def test_steps_down_until_ten_samples_lie_beyond(self, n):
        data = list(range(n))
        q, value = stats.reportable_percentile(data)
        assert q < 0.9
        assert sum(1 for x in data if x > value) >= 10
        # One step higher would leave fewer than ten beyond.
        higher = stats.percentile(data, round(q + stats.STEP, 4))
        assert sum(1 for x in data if x > higher) < 10

    def test_none_when_even_the_median_lacks_a_tail(self):
        assert stats.reportable_percentile(list(range(15))) is None


class TestErrorRate:
    def test_refused_timeout_and_mismatch_each_fail(self):
        outcomes = ["ok", "refused", "ok", "timeout", "mismatch", "ok", "error", "ok"]
        assert stats.error_rate(outcomes) == (8, 4, 0.5)

    def test_all_ok(self):
        assert stats.error_rate(["ok"] * 5) == (5, 0, 0.0)

    def test_no_operations(self):
        assert stats.error_rate([]) == (0, 0, 0.0)

    def test_unknown_outcome_is_rejected(self):
        with pytest.raises(ValueError):
            stats.error_rate(["ok", "maybe"])
