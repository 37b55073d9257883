"""The physics observability layer: per-row heat maps, flip provenance,
and the mitigation audit trail.

Three contracts under test: the collector's snapshot/merge algebra
(counts add, peaks max-merge, epoch windows widen, bounded event lists
drop-don't-lie), the engine instrumentation (both DRAM engines feed the
collector numbers that exactly match their own flip logs and payload
counters), and the runner plumbing (per-job physics rides inside
results, survives the result cache, and merges across pool workers).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.dram.columnar import ColumnarDramBank
from repro.dram.differential import (
    BANK_CLASSES,
    DEFAULT_GEOMETRY,
    DEFAULT_PROFILES,
    random_stream,
)
from repro.dram.disturbance import DisturbanceModel
from repro.experiments import ExperimentResult, ExperimentRunner, Job, execute_job
from repro.telemetry import AuditEvent, PhysicsCollector
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem


def _run_bank(engine: str, seed: int = 2, pattern: str = "rowstripe"):
    model = DisturbanceModel(DEFAULT_GEOMETRY, DEFAULT_PROFILES[1], seed)
    bank = BANK_CLASSES[engine](DEFAULT_GEOMETRY, model, 0,
                                default_pattern=pattern)
    bank.execute(random_stream(seed))
    return bank


# ----------------------------------------------------------------------
# Guards and sink management
# ----------------------------------------------------------------------
class TestGuards:
    def test_off_by_default_records_nothing(self):
        assert not phys.physics_on
        bank = _run_bank("reference")
        assert bank.stats.flips_materialized > 0
        assert not phys.get_collector()

    def test_disable_all_covers_physics(self):
        phys.enable_physics()
        telem.disable_all()
        assert not phys.physics_on

    def test_observing_restores_previous(self):
        original = phys.get_collector()
        mine = PhysicsCollector()
        with telem.observing(physics=mine):
            assert phys.get_collector() is mine
            assert phys.physics_on
        assert phys.get_collector() is original
        assert not phys.physics_on

    def test_enable_fresh_resets(self):
        phys.enable_physics()
        phys.get_collector().record_activation(0, 1)
        collector = phys.enable_physics(fresh=True)
        assert not collector
        assert collector is phys.get_collector()


# ----------------------------------------------------------------------
# Collector algebra
# ----------------------------------------------------------------------
class TestCollector:
    def test_heat_and_provenance_accumulate(self):
        c = PhysicsCollector()
        c.record_activation(0, 5, count=3)
        c.record_activation_batch(0, [5, 6], [2, 7])
        c.record_flip_window(0, 6, flips=4, hammer=100.0, aggressor=5,
                             pattern="solid1", epoch=1)
        c.record_flip_window(0, 6, flips=1, hammer=50.0, aggressor=5,
                             pattern="solid1", epoch=3)
        assert c.total_activations() == 12
        assert c.total_flips() == 5
        assert c.total_provenance_flips() == 5
        ((bank, victim, agg, pattern, flips, hammer, first, last),) = \
            c.provenance_rows()
        assert (bank, victim, agg, pattern) == (0, 6, 5, "solid1")
        assert flips == 5
        assert hammer == 100.0  # peaks max-merge, not add
        assert (first, last) == (1, 3)  # epoch window widened

    def test_heat_rows_sorted_hottest_first(self):
        c = PhysicsCollector()
        c.record_flip_window(0, 1, 2, 10.0, -1, "", 0)
        c.record_flip_window(0, 2, 9, 10.0, -1, "", 0)
        assert [row for _, row, _, _, _ in c.heat_rows()] == [2, 1]

    def test_audit_counts_without_events(self):
        c = PhysicsCollector()
        c.audit_count("para", "draw", 10)
        c.audit_count("para", "draw")
        assert c.audit_counts() == {("para", "draw"): 11}
        assert c.audit_events() == []

    def test_audit_cap_drops_but_counts(self):
        c = PhysicsCollector(audit_cap=2)
        for i in range(5):
            c.audit("trr", "evict", time_ns=float(i), bank=0)
        assert len(c.audit_events()) == 2
        assert c.audit_dropped == 3
        assert c.audit_counts() == {("trr", "evict"): 5}  # counts complete

    def test_snapshot_is_json_safe_and_round_trips(self):
        c = PhysicsCollector()
        c.record_activation(1, 7, 4)
        c.record_flip_window(1, 8, 3, 77.5, 7, "rowstripe", 2)
        c.audit("para", "refresh", time_ns=9.0, bank=1, aggressor=7)
        snapshot = json.loads(json.dumps(c.snapshot()))
        restored = PhysicsCollector.from_snapshot(snapshot)
        assert restored.snapshot() == c.snapshot()
        event = restored.audit_events()[0]
        assert isinstance(event, AuditEvent)
        assert event.detail == {"bank": 1, "aggressor": 7}

    def test_merge_adds_counts_maxes_peaks_widens_epochs(self):
        a = PhysicsCollector()
        a.record_flip_window(0, 5, 2, 10.0, 4, "p", 1)
        b = PhysicsCollector()
        b.record_flip_window(0, 5, 3, 30.0, 4, "p", 5)
        b.record_activation(0, 5, 8)
        a.merge(b.snapshot())
        ((_, _, acts, peak, flips),) = a.heat_rows()
        assert (acts, peak, flips) == (8, 30.0, 5)
        ((*_, hammer, first, last),) = [r[5:] for r in a.provenance_rows()]
        assert (hammer, first, last) == (30.0, 1, 5)

    def test_merge_respects_audit_cap(self):
        a = PhysicsCollector(audit_cap=1)
        b = PhysicsCollector()
        b.audit("cra", "detect", bank=0)
        b.audit("cra", "detect", bank=1)
        a.merge(b.snapshot())
        assert len(a.audit_events()) == 1
        assert a.audit_dropped == 1

    def test_from_snapshots_skips_none(self):
        b = PhysicsCollector()
        b.record_activation(0, 0)
        merged = PhysicsCollector.from_snapshots([None, b.snapshot(), None])
        assert merged.total_activations() == 1

    def test_to_registry_bank_aggregates(self):
        c = PhysicsCollector()
        c.record_activation(0, 1, 10)
        c.record_flip_window(0, 2, 3, 50.0, 1, "p", 0)
        c.record_flip_window(1, 9, 2, 80.0, 8, "p", 0)
        c.audit_count("ecc", "corrected", 4)
        registry = c.to_registry()
        assert registry.total("physics_row_activations_total") == 10
        assert registry.total("physics_flips_total") == 5
        by_name = {(m.name, m.labels): m.value for m in registry}
        assert by_name[("physics_flips_total", (("bank", "1"),))] == 2
        assert by_name[("physics_rows_disturbed", (("bank", "0"),))] == 1
        assert by_name[("physics_audit_events_total",
                        (("decision", "corrected"), ("mitigation", "ecc")))] == 4


# ----------------------------------------------------------------------
# Engine instrumentation: the collector must agree with the flip log
# ----------------------------------------------------------------------
class TestEngineAgreement:
    @pytest.mark.parametrize("engine", ("reference", "columnar"))
    def test_heat_map_matches_flip_log(self, engine):
        phys.enable_physics(fresh=True)
        bank = _run_bank(engine)
        collector = phys.get_collector()
        assert bank.stats.flips_materialized > 0
        assert collector.total_flips() == bank.stats.flips_materialized
        assert collector.total_provenance_flips() == bank.stats.flips_materialized
        per_row = Counter(entry[0] for entry in bank.stats.flip_log)
        heat_flips = {row: flips for b, row, _, _, flips in collector.heat_rows()
                      if flips}
        assert heat_flips == dict(per_row)

    @pytest.mark.parametrize("engine", ("reference", "columnar"))
    def test_activations_match_stats(self, engine):
        phys.enable_physics(fresh=True)
        bank = _run_bank(engine)
        assert phys.get_collector().total_activations() == bank.stats.activations

    def test_engines_produce_identical_physics(self):
        snapshots = {}
        for engine in ("reference", "columnar"):
            phys.enable_physics(fresh=True)
            _run_bank(engine)
            snapshots[engine] = phys.get_collector().snapshot()
        ref, col = snapshots["reference"], snapshots["columnar"]
        assert ref["provenance"] and len(ref["provenance"]) == len(col["provenance"])
        for a, b in zip(ref["heat"], col["heat"]):
            assert a[:3] == b[:3] and a[4] == b[4]
            assert np.isclose(a[3], b[3], rtol=1e-9, atol=1e-6)
        for a, b in zip(ref["provenance"], col["provenance"]):
            assert a[:5] == b[:5] and a[6:] == b[6:]
            assert np.isclose(a[5], b[5], rtol=1e-9, atol=1e-6)

    def test_flip_log_cap_does_not_cap_physics(self):
        # The heat map must count every materialized flip even when the
        # flip log truncates — physics records pre-cap.
        phys.enable_physics(fresh=True)
        model = DisturbanceModel(DEFAULT_GEOMETRY, DEFAULT_PROFILES[1], 2)
        bank = ColumnarDramBank(DEFAULT_GEOMETRY, model, 0,
                                default_pattern="rowstripe")
        bank.stats.flip_log_cap = 8
        bank.execute(random_stream(2))
        assert bank.stats.flips_dropped > 0
        assert len(bank.stats.flip_log) == 8
        assert phys.get_collector().total_flips() == bank.stats.flips_materialized


# ----------------------------------------------------------------------
# Mitigation audit trail
# ----------------------------------------------------------------------
class TestMitigationAudit:
    def test_para_draws_and_refreshes_audited(self):
        result = execute_job("para_controller_check",
                             params={"iterations": 3000},
                             seed=0, observe=("physics",))
        collector = PhysicsCollector.from_snapshot(result.physics)
        counts = collector.audit_counts()
        assert counts[("para", "draw")] > 0
        decisions = counts.get(("para", "refresh"), 0)
        assert decisions > 0
        # One trigger decision refreshes up to 2*distance neighbor rows,
        # so the payload's refresh-op count brackets the decision count.
        assert decisions <= result.payload["mitigation_refreshes"] <= 2 * decisions
        events = [e for e in collector.audit_events()
                  if (e.mitigation, e.decision) == ("para", "refresh")]
        assert len(events) == min(decisions, collector.audit_cap)
        assert all("aggressor" in e.detail for e in events)

    def test_ecc_outcomes_audited_as_counts(self):
        result = execute_job("ecc_study", seed=0, observe=("physics",))
        collector = PhysicsCollector.from_snapshot(result.physics)
        ecc = {dec: n for (mit, dec), n in collector.audit_counts().items()
               if mit == "ecc"}
        assert ecc, "ecc_study must leave ECC decode outcomes in the audit"
        assert sum(ecc.values()) > 0


# ----------------------------------------------------------------------
# Runner plumbing: results, cache, pool workers
# ----------------------------------------------------------------------
class TestRunnerPlumbing:
    PARAMS = {"victims": 16}

    def test_result_round_trips_physics(self):
        result = execute_job("rowhammer_basic", params=self.PARAMS,
                             seed=0, observe=("physics",))
        assert result.physics is not None
        restored = ExperimentResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict())))
        assert restored.physics == result.physics
        assert (PhysicsCollector.from_snapshot(restored.physics).total_flips()
                == result.payload["bit_flips"])

    def test_collect_physics_restores_global_state(self):
        sentinel = phys.get_collector()
        execute_job("rowhammer_basic", params=self.PARAMS,
                    seed=0, observe=("physics",))
        assert phys.get_collector() is sentinel
        assert not phys.physics_on
        assert not sentinel  # the job's flips went to its own collector

    def test_pool_workers_merge_into_parent(self):
        runner = ExperimentRunner(max_workers=2, observe=("physics",),
                                  ledger=False)
        jobs = [Job("rowhammer_basic", self.PARAMS, seed) for seed in (1, 2, 3)]
        results = runner.run(jobs)
        assert all(r.ok for r in results)
        expected = sum(r.payload["bit_flips"] for r in results)
        assert runner.physics.total_flips() == expected
        assert runner.physics.total_provenance_flips() == expected

    def test_cache_hit_reabsorbs_physics(self, tmp_path):
        cache = tmp_path / "cache"
        first = ExperimentRunner(cache_dir=cache, observe=("physics",),
                                 ledger=False)
        miss = first.run([Job("rowhammer_basic", self.PARAMS, 7)])[0]
        assert not miss.cache_hit and miss.physics

        second = ExperimentRunner(cache_dir=cache, observe=("physics",),
                                  ledger=False)
        hit = second.run([Job("rowhammer_basic", self.PARAMS, 7)])[0]
        assert hit.cache_hit
        assert hit.physics == miss.physics
        assert (second.physics.total_flips()
                == miss.payload["bit_flips"]
                == PhysicsCollector.from_snapshot(miss.physics).total_flips())

    def test_physics_off_leaves_results_bare(self):
        result = execute_job("rowhammer_basic", params=self.PARAMS, seed=0)
        assert result.physics is None
