"""The span profiler: recording, aggregation, merging, rendering, and
the runtime ``span``/``profiled`` guard pattern."""

import json
import time

import pytest

from repro.experiments import execute_job
from repro.telemetry import SpanProfile, SpanProfiler
from repro.telemetry import runtime as telem
from repro.telemetry.spans import span_name


class TestSpanName:
    def test_bare_name_passes_through(self):
        assert span_name("ecc.evaluate") == "ecc.evaluate"
        assert span_name("ecc.evaluate", {}) == "ecc.evaluate"

    def test_labels_fold_sorted(self):
        assert span_name("sched", {"policy": "frfcfs"}) == "sched{policy=frfcfs}"
        assert (span_name("x", {"b": 2, "a": 1})
                == span_name("x", {"a": 1, "b": 2})
                == "x{a=1,b=2}")


class TestSpanProfiler:
    def test_nested_spans_attribute_to_paths(self):
        p = SpanProfiler()
        p.push("outer")
        p.push("inner")
        time.sleep(0.002)
        p.pop()
        p.pop()
        profile = p.profile()
        assert set(profile.entries) == {("outer",), ("outer", "inner")}
        outer_count, outer_total, outer_self = profile.get("outer")
        inner_count, inner_total, inner_self = profile.get("outer", "inner")
        assert outer_count == inner_count == 1
        assert inner_total >= 0.002
        assert outer_total >= inner_total
        # Parent self-time excludes the child's total.
        assert outer_self == pytest.approx(outer_total - inner_total, abs=1e-6)

    def test_repeat_spans_accumulate(self):
        p = SpanProfiler()
        for _ in range(5):
            p.push("phase")
            p.pop()
        count, total, self_s = p.profile().get("phase")
        assert count == 5
        assert total >= self_s >= 0

    def test_pop_on_empty_stack_is_noop(self):
        p = SpanProfiler()
        assert p.pop() == 0.0
        assert len(p) == 0

    def test_depth_tracks_open_spans(self):
        p = SpanProfiler()
        assert p.depth == 0
        p.push("a")
        p.push("b")
        assert p.depth == 2
        p.pop()
        assert p.depth == 1

    def test_clear_resets_everything(self):
        p = SpanProfiler()
        p.push("a")
        p.pop()
        p.push("open")
        p.clear()
        assert p.depth == 0 and len(p) == 0


class TestSpanProfile:
    def _sample(self):
        return SpanProfile({
            ("job",): (1, 1.0, 0.2),
            ("job", "dram"): (10, 0.8, 0.8),
        })

    def test_total_s_counts_roots_only(self):
        assert self._sample().total_s() == pytest.approx(1.0)

    def test_snapshot_merge_round_trip(self):
        snap = self._sample().snapshot()
        json.dumps(snap)  # JSON-safe
        restored = SpanProfile.from_snapshot(snap)
        assert restored.entries == self._sample().entries

    def test_merge_adds_counts_and_times(self):
        profile = self._sample()
        profile.merge(self._sample().snapshot())
        assert profile.get("job") == (2, 2.0, 0.4)
        assert profile.get("job", "dram") == (20, 1.6, 1.6)

    def test_from_snapshots_skips_none(self):
        merged = SpanProfile.from_snapshots([None, self._sample().snapshot(), None])
        assert merged.get("job")[0] == 1

    def test_render_tree_indents_children_heaviest_first(self):
        profile = SpanProfile({
            ("job",): (1, 1.0, 0.1),
            ("job", "light"): (1, 0.2, 0.2),
            ("job", "heavy"): (1, 0.7, 0.7),
        })
        lines = profile.render_tree().splitlines()
        assert lines[0].startswith("span")
        assert lines[1].startswith("job")
        assert lines[2].startswith("  heavy")  # heaviest sibling first
        assert lines[3].startswith("  light")
        assert "100.0" in lines[1]

    def test_render_tree_empty(self):
        assert SpanProfile().render_tree() == "(no spans recorded)"

    def test_render_folded_emits_self_microseconds(self):
        folded = self._sample().render_folded()
        assert "job 200000\n" in folded
        assert "job;dram 800000\n" in folded

    def test_orphan_paths_still_render(self):
        # A child whose parent never closed (profiler swapped mid-span)
        # must still appear in both renderers.
        profile = SpanProfile({("ghost", "child"): (1, 0.1, 0.1)})
        assert "child" in profile.render_tree()
        assert "ghost;child 100000" in profile.render_folded()


class TestRuntimeSpanGuard:
    def test_disabled_span_is_shared_noop(self):
        first = telem.span("anything", label=1)
        second = telem.span("other")
        assert first is second  # no allocation while off
        with first:
            pass
        assert len(telem.get_profiler()) == 0

    def test_enabled_span_records(self):
        telem.enable_profiling(fresh=True)
        with telem.span("phase", kind="x"):
            pass
        profile = telem.get_profiler().profile()
        assert profile.get("phase{kind=x}")[0] == 1

    def test_name_label_does_not_collide_with_span_name(self):
        telem.enable_profiling(fresh=True)
        with telem.span("job", name="rowhammer_basic"):
            pass
        assert telem.get_profiler().profile().get("job{name=rowhammer_basic}")[0] == 1

    def test_profiled_decorator(self):
        @telem.profiled("retention.pass", mode="quick")
        def work(x):
            return x * 2

        assert work(3) == 6  # off: plain call
        telem.enable_profiling(fresh=True)
        assert work(4) == 8
        assert telem.get_profiler().profile().get("retention.pass{mode=quick}")[0] == 1

    def test_swap_mid_span_cannot_unbalance_new_profiler(self):
        old = telem.enable_profiling(fresh=True)
        span = telem.span("outer")
        span.__enter__()
        with telem.observing(spans=SpanProfiler()):
            span.__exit__(None, None, None)  # pops the *pinned* old profiler
            assert telem.get_profiler().depth == 0
        assert old.profile().get("outer")[0] == 1

    def test_enable_fresh_discards_prior_spans(self):
        telem.enable_profiling(fresh=True)
        with telem.span("stale"):
            pass
        telem.enable_profiling(fresh=True)
        assert len(telem.get_profiler()) == 0


class TestJobProfiles:
    CHEAP = {"victims": 8}

    def test_profile_rides_in_result_and_covers_wall_clock(self):
        # Acceptance: the span tree's root total must agree with the
        # recorded wall clock within 5%.
        result = execute_job("rowhammer_basic", params=self.CHEAP, seed=0,
                             observe=("spans",))
        assert result.profile is not None
        profile = SpanProfile.from_snapshot(result.profile)
        root = profile.get("job{name=rowhammer_basic}")
        assert root[0] == 1
        assert profile.total_s() == pytest.approx(result.duration_s, rel=0.05)
        # The instrumented hot path shows up under the job root.
        assert profile.get("job{name=rowhammer_basic}", "dram.execute")[0] > 0

    def test_profile_snapshot_is_json_safe(self):
        result = execute_job("rowhammer_basic", params=self.CHEAP, seed=0,
                             observe=("spans",))
        json.dumps(result.to_json_dict())
        restored = type(result).from_json_dict(result.to_json_dict())
        assert restored.profile == result.profile

    def test_collect_profile_restores_prior_state(self):
        sentinel = telem.get_profiler()
        assert not telem.spans_on
        execute_job("rowhammer_basic", params=self.CHEAP, seed=0,
                    observe=("spans",))
        assert not telem.spans_on
        assert telem.get_profiler() is sentinel

    def test_without_collect_profile_no_profile(self):
        result = execute_job("rowhammer_basic", params=self.CHEAP, seed=0)
        assert result.profile is None

    def test_runner_merges_profiles_across_jobs(self):
        from repro.experiments import ExperimentRunner, Job

        runner = ExperimentRunner(observe=("spans",), ledger=False)
        runner.run([Job("rowhammer_basic", self.CHEAP, s) for s in (0, 1)])
        assert runner.profile.get("job{name=rowhammer_basic}")[0] == 2
