"""The telemetry subsystem: metric primitives, snapshot/merge across
process-pool workers, trace ring buffers, and the disabled-by-default
fast path the simulators rely on."""

import json

import pytest

from repro.core.scenarios import full_scale_scenario
from repro.experiments import ExperimentRunner, Job, execute_job
from repro.sanitizer import runtime as sanit
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhysicsCollector,
    SpanProfiler,
    TraceRecorder,
)
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_accumulates_and_rejects_negatives(self):
        c = Counter("hits")
        c.inc()
        c.inc(41)
        assert c.value == 42
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_set_max_keeps_peak(self):
        g = Gauge("depth")
        g.set(10)
        g.set_max(3)
        assert g.value == 10
        g.set_max(17)
        assert g.value == 17
        g.inc(2)
        g.dec(4)
        assert g.value == 15


class TestHistogramBuckets:
    def test_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", edges=(10, 20, 40))
        for v in (1, 10):       # both land in the first bucket (v <= 10)
            h.observe(v)
        h.observe(10.5)          # first value past edge 10 -> second bucket
        h.observe(40)            # exactly the last edge -> last finite bucket
        h.observe(41)            # past every edge -> overflow bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(1 + 10 + 10.5 + 40 + 41)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", edges=(1, 1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", edges=())

    def test_mean_and_quantile(self):
        h = Histogram("lat", edges=(1, 2, 4, 8))
        for v in (1, 1, 2, 8):
            h.observe(v)
        assert h.mean == pytest.approx(3.0)
        assert h.quantile(0.5) == 1      # 2nd of 4 observations is in bucket<=1
        assert h.quantile(1.0) == 8
        assert Histogram("empty").quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_quantile_reports_last_edge(self):
        h = Histogram("lat", edges=(1, 2))
        h.observe(100)
        assert h.quantile(0.99) == 2


# ----------------------------------------------------------------------
# Registry: identity, lookups, rendering
# ----------------------------------------------------------------------
class TestRegistry:
    def test_series_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("acts", bank=0)
        assert reg.counter("acts", bank=0) is a
        assert reg.counter("acts", bank=1) is not a
        # label order must not matter
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_kind_conflicts_are_errors(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("n")
        reg.histogram("h")
        with pytest.raises(TypeError, match="already registered"):
            reg.counter("h")

    def test_histogram_edge_redeclaration_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1, 2, 3))
        assert reg.histogram("h") is reg.get("h")  # None edges = existing ok
        with pytest.raises(ValueError, match="different edges"):
            reg.histogram("h", edges=(1, 2, 4))

    def test_value_and_total(self):
        reg = MetricsRegistry()
        reg.counter("acts", bank=0).inc(5)
        reg.counter("acts", bank=1).inc(7)
        assert reg.value("acts", bank=1) == 7
        assert reg.value("acts", bank=9) == 0
        assert reg.total("acts") == 12

    def test_prometheus_rendering_full_precision(self):
        reg = MetricsRegistry()
        reg.counter("dram_activations_total", bank=0).inc(82_747_392)
        text = reg.render_prometheus()
        assert '# TYPE dram_activations_total counter' in text
        assert 'dram_activations_total{bank="0"} 82747392' in text
        assert "e+07" not in text  # large counters must not round through %g

    def test_prometheus_histogram_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(1, 2))
        for v in (1, 2, 3):
            h.observe(v)
        text = reg.render_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 6" in text
        assert "lat_count 3" in text

    def test_table_rendering(self):
        reg = MetricsRegistry()
        assert reg.render_table() == "(no metrics recorded)"
        reg.counter("c").inc(3)
        reg.histogram("h", edges=(1, 2)).observe(1)
        table = reg.render_table()
        assert "counter" in table and "histogram" in table
        assert "count=1" in table


# ----------------------------------------------------------------------
# Snapshot / merge: the cross-process protocol
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def _worker_registry(self, acts, peak, lat_values):
        reg = MetricsRegistry()
        reg.counter("acts", bank=0).inc(acts)
        reg.gauge("depth").set(peak)
        h = reg.histogram("lat", edges=(1, 4, 16))
        for v in lat_values:
            h.observe(v)
        return reg

    def test_counters_add_gauges_max_histograms_elementwise(self):
        a = self._worker_registry(10, 5, [1, 2])
        b = self._worker_registry(32, 9, [2, 100])
        merged = MetricsRegistry.from_snapshots([a.snapshot(), None, b.snapshot()])
        assert merged.value("acts", bank=0) == 42
        assert merged.value("depth") == 9  # max, not sum
        h = merged.get("lat")
        assert h.counts == [1, 2, 0, 1]  # 1 -> <=1; 2, 2 -> <=4; 100 -> +Inf
        assert h.count == 4
        assert h.sum == pytest.approx(105)

    def test_snapshot_is_json_safe_and_round_trips(self):
        reg = self._worker_registry(7, 3, [5])
        snapshot = json.loads(json.dumps(reg.snapshot()))
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.snapshot() == reg.snapshot()

    def test_merge_rejects_mismatched_histogram_edges(self):
        a = MetricsRegistry()
        a.histogram("lat", edges=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("lat", edges=(1, 2, 3)).observe(1)
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b.snapshot())


# ----------------------------------------------------------------------
# Trace recorder: bounded memory
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_ring_buffer_evicts_oldest(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.emit("activate", t=float(i), row=i)
        assert len(rec) == 3
        assert rec.emitted == 5
        assert rec.dropped == 2
        assert [e.fields["row"] for e in rec.events()] == [2, 3, 4]

    def test_spill_to_disk_instead_of_evicting(self, tmp_path):
        spill = tmp_path / "trace.jsonl"
        rec = TraceRecorder(capacity=2, spill_path=spill)
        for i in range(5):
            rec.emit("refresh", row=i)
        assert rec.dropped == 0
        assert rec.spilled == 4  # two full-buffer flushes of 2
        rec.flush()
        lines = [json.loads(line) for line in spill.read_text().splitlines()]
        assert [e["row"] for e in lines] == [0, 1, 2, 3, 4]
        assert all(e["kind"] == "refresh" for e in lines)

    def test_counts_by_kind_and_dump(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("activate", row=1)
        rec.emit("activate", row=2)
        rec.emit("bit_flip", row=1, bit=7)
        assert rec.counts_by_kind() == {"activate": 2, "bit_flip": 1}
        out = tmp_path / "dump.jsonl"
        assert rec.dump_jsonl(out) == 3
        assert len(out.read_text().splitlines()) == 3

    def test_invalid_capacity_and_missing_spill(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
        with pytest.raises(RuntimeError, match="no spill path"):
            TraceRecorder().flush()


# ----------------------------------------------------------------------
# Runtime guards and instrumented simulators
# ----------------------------------------------------------------------
def _hammer_once(pressure=200, victims=2):
    scenario = full_scale_scenario("B", 2013.0)
    module = scenario.make_module(serial="telem-test", seed=0)
    bank = module.bank(0)
    for i in range(victims):
        victim = 64 + 3 * i
        bank.bulk_activate(victim - 1, pressure)
        bank.bulk_activate(victim + 1, pressure)
    bank.refresh_all()
    return bank


class TestRuntime:
    def test_disabled_by_default_records_nothing(self):
        assert not telem.metrics_on and not telem.trace_on
        _hammer_once()
        assert len(telem.get_registry()) == 0
        assert len(telem.get_tracer()) == 0

    def test_enabled_counters_match_bank_stats(self):
        telem.enable_metrics(fresh=True)
        bank = _hammer_once()
        reg = telem.get_registry()
        assert reg.value("dram_activations_total", bank=0) == bank.stats.activations
        assert reg.value("dram_refreshes_total", bank=0) == bank.stats.refreshes
        assert reg.total("dram_bit_flips_total") == bank.stats.flips_materialized

    def test_tracing_captures_typed_events(self):
        telem.enable_tracing(fresh=True)
        bank = _hammer_once()
        kinds = telem.get_tracer().counts_by_kind()
        assert kinds["activate"] == 4  # one per bulk_activate call
        assert kinds["refresh"] == bank.stats.refreshes
        if bank.stats.flips_materialized:
            assert kinds["bit_flip"] >= 1

    def test_observing_round_trip(self):
        original = telem.get_registry()
        mine = MetricsRegistry()
        with telem.observing(metrics=mine):
            assert telem.get_registry() is mine
            assert telem.metrics_on
        assert telem.get_registry() is original
        assert not telem.metrics_on

    def test_observing_nests_merges_context_and_restores_on_error(self):
        outer, inner = TraceRecorder(), TraceRecorder()
        with telem.observing(trace=outer, context={"run_id": "r1"}):
            with pytest.raises(RuntimeError):
                with telem.observing(trace=inner, context={"job_id": "j"}):
                    telem.trace("probe")
                    raise RuntimeError("job failed")
            assert telem.get_tracer() is outer
            assert outer.context == {"run_id": "r1"}
            telem.trace("after", run_id="explicit")
        assert inner.events()[0].fields == {"job_id": "j"}
        assert outer.events()[0].fields == {"run_id": "explicit"}
        assert outer.context == {}
        assert not telem.trace_on

    def test_enable_tracing_rejects_nonpositive_capacity(self):
        # Regression: `capacity or 65536` silently coerced an explicit 0
        # into the default instead of refusing it.
        with pytest.raises(ValueError, match="capacity must be >= 1, got 0"):
            telem.enable_tracing(capacity=0)
        with pytest.raises(ValueError, match="got -5"):
            telem.enable_tracing(capacity=-5)
        assert not telem.trace_on  # a rejected call flips nothing on

    def test_reenabling_with_only_spill_keeps_capacity(self, tmp_path):
        # Regression: rebuilding the recorder for a spill_path-only call
        # used to reset a previously configured capacity to the default.
        telem.enable_tracing(capacity=128)
        spill = tmp_path / "spill.jsonl"
        recorder = telem.enable_tracing(spill_path=spill)
        assert recorder.capacity == 128
        assert recorder.spill_path == spill

    def test_reenabling_with_only_capacity_keeps_spill(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        telem.enable_tracing(capacity=64, spill_path=spill)
        recorder = telem.enable_tracing(capacity=32)
        assert recorder.capacity == 32
        assert recorder.spill_path == spill

    def test_explicit_none_spill_drops_destination(self, tmp_path):
        telem.enable_tracing(capacity=64, spill_path=tmp_path / "spill.jsonl")
        recorder = telem.enable_tracing(spill_path=None)
        assert recorder.spill_path is None
        assert recorder.capacity == 64

    def test_reenabling_with_no_args_keeps_recorder_and_buffer(self):
        recorder = telem.enable_tracing(capacity=16)
        telem.trace("probe")
        telem.disable_tracing()
        assert telem.enable_tracing() is recorder  # no silent rebuild
        assert recorder.emitted == 1

    def test_fresh_rebuilds_with_carried_config(self, tmp_path):
        telem.enable_tracing(capacity=16, spill_path=tmp_path / "s.jsonl")
        telem.trace("probe")
        recorder = telem.enable_tracing(fresh=True)
        assert recorder.emitted == 0
        assert recorder.capacity == 16
        assert recorder.spill_path == tmp_path / "s.jsonl"


# ----------------------------------------------------------------------
# The runner integration: per-job snapshots, parent-side merge
# ----------------------------------------------------------------------
CHEAP = {"victims": 2, "pressure": 400}


class TestRunnerIntegration:
    def test_execute_job_attaches_snapshot_and_restores_state(self):
        sentinel = telem.enable_metrics(fresh=True)
        result = execute_job("rowhammer_basic", params=CHEAP, seed=0,
                             observe=("metrics",))
        # the caller's registry came back untouched, flags preserved
        assert telem.get_registry() is sentinel
        assert telem.metrics_on
        assert result.metrics is not None
        merged = MetricsRegistry.from_snapshot(result.metrics)
        assert merged.total("dram_activations_total") == result.payload["activations"]

    def test_execute_job_without_metrics_attaches_none(self):
        result = execute_job("rowhammer_basic", params=CHEAP, seed=0)
        assert result.metrics is None
        assert not telem.metrics_on

    def test_pool_workers_merge_into_parent(self):
        runner = ExperimentRunner(max_workers=2, observe=("metrics",))
        jobs = [Job("rowhammer_basic", CHEAP, seed) for seed in (0, 1, 2)]
        results = runner.run(jobs)
        assert all(r.metrics is not None for r in results)
        expected_acts = sum(r.payload["activations"] for r in results)
        expected_flips = sum(r.payload["bit_flips"] for r in results)
        assert runner.metrics.total("dram_activations_total") == expected_acts
        assert runner.metrics.total("dram_bit_flips_total") == expected_flips
        assert runner.metrics.value("runner_jobs_total",
                                    cache_hit="false", outcome="ok") == 3

    def test_cached_rerun_still_reports_metrics(self, tmp_path):
        first = ExperimentRunner(cache_dir=tmp_path, observe=("metrics",))
        fresh = first.run([Job("rowhammer_basic", CHEAP, 0)])[0]
        second = ExperimentRunner(cache_dir=tmp_path, observe=("metrics",))
        hit = second.run([Job("rowhammer_basic", CHEAP, 0)])[0]
        assert hit.cache_hit
        assert hit.metrics == fresh.metrics  # snapshot survived the disk trip
        assert (second.metrics.total("dram_activations_total")
                == fresh.payload["activations"])
        assert second.metrics.value("runner_jobs_total",
                                    cache_hit="true", outcome="ok") == 1

    def test_metrics_off_runner_has_no_registry(self):
        runner = ExperimentRunner()
        result = runner.run([Job("rowhammer_basic", CHEAP, 0)])[0]
        assert runner.metrics is None
        assert result.metrics is None


# ----------------------------------------------------------------------
# The observer table: every observer saved, restored and collected
# ----------------------------------------------------------------------
def _observer_state():
    """Every sink, guard and the sanitizer level, in table order."""
    return (telem.get_registry(), telem.metrics_on,
            telem.get_tracer(), telem.trace_on,
            telem.get_profiler(), telem.spans_on,
            phys.get_collector(), phys.physics_on,
            sanit.current_level(), sanit.sanitize_on, sanit.full_on)


def _sinks():
    return {"metrics": MetricsRegistry(), "trace": TraceRecorder(),
            "spans": SpanProfiler(), "physics": PhysicsCollector()}


#: A cache entry as the result cache wrote it before jobs collected
#: observers by name: all three per-job snapshots, verbatim.
LEGACY_CACHE_FILE = "rowhammer_basic/af31bcba12beec6694e58e36.json"
LEGACY_CACHE_RECORD = json.loads("""{
 "cache_hit": false, "duration_s": 0.002112273003149312, "error": null,
 "job_id": "af31bcba12be", "name": "rowhammer_basic",
 "params": {"pressure": 100, "victims": 1}, "peak_rss_kb": 41608,
 "run_id": "r20261018-082716-6ce4d2", "seed": 0, "version": "1.0.0",
 "payload": {"activations": 200, "bit_flips": 0, "flips_per_victim": 0.0,
  "pressure_per_side": 100, "refreshes": 7, "victims": 1},
 "metrics": {"counters": [
   {"labels": {"bank": "0"}, "name": "dram_activations_total", "value": 200},
   {"labels": {"bank": "0", "cause": "activate"},
    "name": "dram_bit_flips_total", "value": 0},
   {"labels": {"bank": "0"}, "name": "dram_refreshes_total", "value": 7}],
  "gauges": [], "histograms": [{"count": 0,
   "counts": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
   "edges": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
   "labels": {}, "name": "dram_flips_per_event", "sum": 0.0}]},
 "physics": {"audit_counts": [], "audit_dropped": 0, "audit_events": [],
  "heat": [[0, 63, 100, 0.0, 0], [0, 65, 100, 0.0, 0]], "provenance": []},
 "profile": {"spans": [
  {"count": 1, "path": ["job{name=rowhammer_basic}"],
   "self_s": 0.0005132740043336526, "total_s": 0.0020850750006502494},
  {"count": 1, "path": ["job{name=rowhammer_basic}", "dram.execute"],
   "self_s": 0.001469638998969458, "total_s": 0.0015718009963165969},
  {"count": 1, "path": ["job{name=rowhammer_basic}", "dram.execute",
    "dram.refresh_all"],
   "self_s": 0.00010216199734713882, "total_s": 0.00010216199734713882}]}
}""")


class TestObserverTable:
    def test_table_names_the_five_observers(self):
        assert list(telem.OBSERVERS) == ["metrics", "trace", "spans",
                                         "physics", "sanitize"]

    def test_scope_restores_sanitizer_level(self):
        sanit.set_level("cheap")
        with telem.observing():
            sanit.set_level("full")
        assert (sanit.current_level(), sanit.sanitize_on, sanit.full_on) == (
            "cheap", True, False)
        with pytest.raises(RuntimeError):
            with telem.observing(sanitize="off"):
                assert not sanit.sanitize_on
                raise RuntimeError("job failed")
        assert (sanit.current_level(), sanit.sanitize_on, sanit.full_on) == (
            "cheap", True, False)

    def test_nested_scopes_restore_every_observer(self):
        sanit.set_level("off")
        before = _observer_state()
        outer, inner = _sinks(), _sinks()
        with telem.observing(sanitize="cheap", **outer):
            middle = _observer_state()
            assert middle == (outer["metrics"], True, outer["trace"], True,
                              outer["spans"], True, outer["physics"], True,
                              "cheap", True, False)
            with pytest.raises(RuntimeError):
                with telem.observing(sanitize="full", **inner):
                    assert _observer_state() == (
                        inner["metrics"], True, inner["trace"], True,
                        inner["spans"], True, inner["physics"], True,
                        "full", True, True)
                    telem.disable_all()
                    phys.enable_physics(fresh=True)
                    sanit.set_level("off")
                    raise RuntimeError("job failed")
            assert _observer_state() == middle
        assert _observer_state() == before

    def test_unknown_observer_is_refused(self):
        before = _observer_state()
        with pytest.raises(TypeError, match="bogus"):
            with telem.observing(bogus=MetricsRegistry()):
                pass
        assert _observer_state() == before

    @pytest.mark.parametrize("observe", [(), ("metrics",), ("spans",),
                                         ("physics",),
                                         ("physics", "metrics", "spans")])
    def test_execute_job_returns_exactly_the_asked_snapshots(self, observe):
        before = _observer_state()
        result = execute_job("rowhammer_basic", params=CHEAP, seed=0,
                             observe=observe)
        fields = {"metrics": result.metrics, "spans": result.profile,
                  "physics": result.physics}
        assert {name for name, snapshot in fields.items()
                if snapshot is not None} == set(observe)
        if result.metrics is not None:
            assert (MetricsRegistry.from_snapshot(result.metrics)
                    .total("dram_activations_total")
                    == result.payload["activations"])
        if result.physics is not None:
            assert (PhysicsCollector.from_snapshot(result.physics)
                    .total_activations() == result.payload["activations"])
        assert _observer_state() == before

    @pytest.mark.parametrize("name", ["trace", "sanitize", "bogus"])
    def test_execute_job_refuses_what_a_job_cannot_collect(self, name):
        with pytest.raises(ValueError, match=name):
            execute_job("rowhammer_basic", params=CHEAP, seed=0,
                        observe=(name,))

    def test_cache_entry_from_before_the_table_still_loads(self, tmp_path):
        path = tmp_path / LEGACY_CACHE_FILE
        path.parent.mkdir()
        path.write_text(json.dumps(LEGACY_CACHE_RECORD, indent=1, sort_keys=True))
        runner = ExperimentRunner(cache_dir=tmp_path,
                                  observe=("metrics", "spans", "physics"))
        hit = runner.run([Job("rowhammer_basic", {"victims": 1, "pressure": 100}, 0)])[0]
        assert hit.cache_hit
        assert hit.payload == LEGACY_CACHE_RECORD["payload"]
        assert runner.metrics.total("dram_activations_total") == 200
        assert runner.profile.get("job{name=rowhammer_basic}")[0] == 1
        assert runner.physics.total_activations() == 200
