"""Columnar engine plumbing: the read accessors both engines share,
the bounded flip log, weak-cell cache eviction, batched refresh, and
telemetry symmetry between the engines."""

import numpy as np
import pytest

from repro.dram.bank import DEFAULT_FLIP_LOG_CAP, BankStats, DramBank
from repro.dram.columnar import ColumnarDramBank
from repro.dram.disturbance import (
    BLOCK_ROWS,
    DisturbanceModel,
    VulnerabilityProfile,
)
from repro.dram.geometry import DramGeometry
from repro.dram.stream import CommandStream
from repro.telemetry import MetricsRegistry
from repro.telemetry import runtime as telem

GEOMETRY = DramGeometry(banks=2, rows=256, row_bytes=64)

PROFILE = VulnerabilityProfile(
    weak_cell_density=0.05, hc_first_median=4_000.0,
    hc_first_min=800.0, hc_first_sigma=0.5, distance2_weight=0.1)


#: Both engines: the production bank and the reference oracle.
BANKS = (DramBank, ColumnarDramBank)


def make_bank(cls=ColumnarDramBank, pattern="solid1", seed=0):
    model = DisturbanceModel(GEOMETRY, PROFILE, seed)
    return cls(GEOMETRY, model, 0, default_pattern=pattern)


def hammer_stream(victims=6, count=5000, first=10, stride=3):
    stream = CommandStream()
    for i in range(victims):
        v = first + stride * i
        stream.act(v - 1, count).act(v + 1, count)
    return stream.ref_all(100.0)


@pytest.mark.parametrize("cls", BANKS, ids=lambda cls: cls.engine)
class TestReadAccessors:
    """The public read API both engines implement — what sanitizer
    checkers, chaos injectors and the oracle use instead of private
    state."""

    def test_disturbed_rows_in_touch_order(self, cls):
        bank = make_bank(cls)
        bank.bulk_activate(20, 100)
        bank.activate(10)
        bank.activate(10)
        # Touch order: row, row-1, row+1, row-2, row+2 per ACT.
        assert bank.disturbed_rows() == [20, 19, 21, 18, 22, 10, 9, 11, 8, 12]
        # Read while the columnar run is still pending: accessors commit.
        assert bank.pressure(11) == 2.0
        assert bank.peak(19) == 100.0
        assert bank.last_aggressor(11) == 10
        assert bank.last_aggressor(12) is None  # distance 2 claims nothing

    def test_untouched_row_reads_default(self, cls):
        bank = make_bank(cls)
        bank.bulk_activate(20, 100)
        assert bank.pressure(50) == 0.0
        assert bank.peak(50) == 0.0
        assert bank.last_aggressor(50) is None
        assert bank.stored_bits(50) is None

    def test_materialize_on_read(self, cls):
        bank = make_bank(cls, pattern="rowstripe")
        assert bank.stored_bits(5) is None  # stored_bits never instantiates
        assert bank.touched_rows() == []
        bits = bank.row_bits(5)  # odd row of rowstripe = 0x00
        assert not bits.any()
        assert bank.touched_rows() == [5]
        assert bank.stored_bits(5) is bits
        assert bank.row_bits(4).all()

    def test_raw_stored_bits_poke_is_authoritative(self, cls):
        # The chaos injector's corruption style: mutate the stored array
        # in place, then read it back through the public API.
        bank = make_bank(cls)
        bank.row_bits(9)
        bank.stored_bits(9)[3] ^= 1
        assert bank.row_bits(9)[3] == 0  # solid1 background is all ones

    def test_flipped_row_poke_is_authoritative(self, cls):
        # A hammered victim the columnar engine still holds as "pattern
        # XOR flips": stored_bits must hand out the real storage.
        bank, twin = (make_bank(cls, pattern="rowstripe") for _ in range(2))
        for b in (bank, twin):
            b.execute(hammer_stream())
        victim = bank.stats.flip_log[0][0]
        if cls is ColumnarDramBank:
            assert victim in bank._cs.flips
        bank.stored_bits(victim)[0] ^= 1
        differs = bank.row_bits(victim) != twin.row_bits(victim)
        assert np.nonzero(differs)[0].tolist() == [0]


class TestFlipLogCap:
    def test_default_cap(self):
        assert BankStats().flip_log_cap == DEFAULT_FLIP_LOG_CAP

    @staticmethod
    def _log(stats, row, bits, t):
        """One window of ``row`` flipped ``bits`` at ``t``."""
        stats.on_flips((row,), (t,), (bits,), (-1,), (0.0,), "", "activate")

    def test_cap_applies(self):
        stats = BankStats(flip_log_cap=5)
        self._log(stats, 1, np.arange(8), 2.0)
        assert len(stats.flip_log) == 5
        assert stats.flips_dropped == 3
        assert stats.flips_materialized == 8
        self._log(stats, 2, np.arange(4), 3.0)
        assert len(stats.flip_log) == 5
        assert stats.flips_dropped == 7
        assert stats.flips_materialized == 12

    def test_cap_none_is_unbounded(self):
        stats = BankStats(flip_log_cap=None)
        self._log(stats, 1, np.arange(1000), 0.0)
        assert len(stats.flip_log) == 1000

    def test_batch_matches_sequential_records(self):
        # One call over many windows logs what one call per window does.
        a, b = BankStats(flip_log_cap=10), BankStats(flip_log_cap=10)
        events = [(3, np.array([1, 5, 9]), 1.0),
                  (7, np.array([0, 2]), 2.0),
                  (9, np.array([4, 6, 8, 10]), 3.0),
                  (2, np.array([11]), 4.0)]
        for row, bits, t in events:
            self._log(a, row, bits, t)
        rows, flips, times = zip(*events)
        b.on_flips(rows, times, flips, [-1] * 4, [0.0] * 4, "", "activate")
        assert a.flip_log == b.flip_log
        assert a.flips_dropped == b.flips_dropped
        assert a.flips_materialized == b.flips_materialized

    def test_engine_logs_identical_under_cap(self):
        logs = {}
        for cls in BANKS:
            bank = make_bank(cls, pattern="rowstripe")
            bank.stats.flip_log_cap = 7
            bank.execute(hammer_stream())
            logs[cls.engine] = (list(bank.stats.flip_log),
                            bank.stats.flips_dropped,
                            bank.stats.flips_materialized)
        assert logs["columnar"] == logs["reference"]
        assert logs["columnar"][1] > 0


class TestWeakCellCacheEviction:
    def test_cache_bounded_and_oldest_evicted(self):
        model = DisturbanceModel(GEOMETRY, PROFILE, seed=1)
        model.cache_limit = 2
        block0 = model.weak_cells_block(0, 0)
        model.weak_cells_block(0, BLOCK_ROWS)
        assert len(model._cache) == 2
        # A third block evicts the oldest-inserted (bank 0, start 0).
        model.weak_cells_block(1, 0)
        assert len(model._cache) == 2
        assert (0, 0) not in model._cache
        assert (0, BLOCK_ROWS) in model._cache and (1, 0) in model._cache
        # A hit refreshes nothing (insertion order, not LRU) but the
        # regenerated block must be bit-identical — the map is pure.
        again = model.weak_cells_block(0, 0)
        assert again is not block0
        np.testing.assert_array_equal(again.bits, block0.bits)
        np.testing.assert_array_equal(again.hc_first, block0.hc_first)

    def test_limit_one_never_overfills(self):
        model = DisturbanceModel(GEOMETRY, PROFILE, seed=1)
        model.cache_limit = 1
        for start in (0, BLOCK_ROWS, 0, BLOCK_ROWS):
            model.weak_cells_block(0, start)
            assert len(model._cache) == 1


class TestBatchedRefresh:
    def test_refresh_rows_matches_per_row_loop(self):
        results = {}
        for cls in BANKS:
            bank = make_bank(cls, pattern="rowstripe")
            for i in range(4):
                v = 30 + 4 * i
                bank.bulk_activate(v - 1, 5000)
                bank.bulk_activate(v + 1, 5000)
            rows = [30, 34, 38, 42, 30, 99]  # repeat + untouched row
            flips = bank.refresh_rows(rows, 50.0)
            results[cls.engine] = (flips, list(bank.stats.flip_log),
                               bank.stats.refreshes,
                               bank.pressure(30), bank.pressure(34))
        assert results["columnar"] == results["reference"]
        assert results["columnar"][0] > 0

    def test_refresh_rows_rejects_out_of_range(self):
        bank = make_bank()
        with pytest.raises(IndexError):
            bank.refresh_rows([0, GEOMETRY.rows], 0.0)

    def test_vectorized_materializer_equals_window_loop(self):
        # The batched materializer's array program against its per-window
        # loop, on the same windows of two identically hammered banks.
        # Victims are distinct, and some window's dominant aggressor is
        # an earlier window's flipped victim (the re-evaluation case).
        def hammered():
            bank = make_bank(pattern="rowstripe")
            for row in (29, 30, 32, 40, 42, 44):
                bank.bulk_activate(row, 6000)
            return bank

        fast, slow = hammered(), hammered()
        vrows = np.array([r for r in fast.disturbed_rows() if fast.peak(r) > 0])
        peaks = np.array([fast.peak(r) for r in vrows.tolist()])
        aggs = np.array([fast.last_aggressor(r) if fast.last_aggressor(r)
                         is not None else -1 for r in vrows.tolist()])
        times = np.linspace(1.0, 2.0, len(vrows))
        counts = fast._materialize_vectorized(vrows, peaks, aggs, times,
                                              "settle")
        flips = [slow._materialize_window(int(r), float(k), int(a),
                                          float(t), "settle")
                 for r, k, a, t in zip(vrows, peaks, aggs, times)]
        assert counts.tolist() == [len(bits) for bits in flips]
        assert fast.stats.flip_log == slow.stats.flip_log
        for row in vrows.tolist():
            np.testing.assert_array_equal(fast.stored_copy(row),
                                          slow.stored_copy(row))
        flipped = set()
        interacting = False
        for row, agg, n in zip(vrows.tolist(), aggs.tolist(), counts.tolist()):
            interacting |= agg in flipped
            if n:
                flipped.add(row)
        assert interacting and counts.sum() > 0


class TestFillCache:
    def test_periodic_pattern_shares_fill_buffers(self):
        bank = make_bank(pattern="rowstripe")
        assert bank._fill_bytes(4) is bank._fill_bytes(10)
        assert bank._fill_bytes(5) is bank._fill_bytes(11)
        assert len(bank._cs.fill_cache) == 2

    def test_aperiodic_pattern_caches_per_row(self):
        bank = make_bank(pattern="random")
        a, b = bank._fill_bytes(4), bank._fill_bytes(10)
        assert a is not b
        assert not np.array_equal(a, b)

    def test_set_default_pattern_invalidates_cache(self):
        bank = make_bank(pattern="solid1")
        assert bank._fill_bytes(3).all()
        bank.set_default_pattern("solid0")
        assert not bank._fill_bytes(3).any()
        assert not bank.row_bits(3).any()


class TestSpanSymmetry:
    def test_bulk_activate_span_recorded_by_both_engines(self):
        telem.enable_profiling(fresh=True)
        for cls in BANKS:
            bank = make_bank(cls)
            bank.bulk_activate(10, 100)
        profile = telem.get_profiler().profile()
        count = profile.get("dram.bulk_activate")[0]
        assert count == 2

    def test_execute_span_recorded_by_columnar(self):
        telem.enable_profiling(fresh=True)
        bank = make_bank()
        bank.execute(CommandStream().act(10, 5).settle())
        profile = telem.get_profiler().profile()
        assert profile.get("dram.execute")[0] == 1

    def test_no_spans_when_profiling_off(self):
        bank = make_bank()
        bank.bulk_activate(10, 100)
        bank.execute(CommandStream().act(11, 5).settle())
        assert len(telem.get_profiler()) == 0


class TestMetricsSymmetry:
    def test_counters_agree_across_engines(self):
        values = {}
        for cls in BANKS:
            own = MetricsRegistry()
            with telem.observing(metrics=own):
                bank = make_bank(cls, pattern="rowstripe")
                bank.execute(hammer_stream())
            values[cls.engine] = {
                "acts": own.value("dram_activations_total", bank=0),
                "refreshes": own.value("dram_refreshes_total", bank=0),
                "flips": own.total("dram_bit_flips_total"),
            }
        assert values["columnar"] == values["reference"]
        assert values["columnar"]["flips"] > 0

    @staticmethod
    def _observe(cls, script):
        """Run ``script`` on a fresh ``cls`` bank with metrics and
        tracing on; return the full metrics snapshot and the trace
        events as (kind, time, fields), in order."""
        telem.enable_metrics(fresh=True)
        telem.enable_tracing(capacity=1 << 16, fresh=True)
        bank = make_bank(cls, pattern="rowstripe")
        script(bank)
        assert bank.stats.flips_materialized > 0
        snapshot = telem.get_registry().snapshot()
        events = [(e.kind, e.t, tuple(sorted(e.fields.items())))
                  for e in telem.get_tracer().events()]
        return snapshot, events

    def _assert_engines_agree(self, script):
        observed = {cls.engine: self._observe(cls, script) for cls in BANKS}
        assert observed["columnar"] == observed["reference"]
        kinds = {kind for kind, _t, _fields in observed["reference"][1]}
        assert {"activate", "refresh", "bit_flip"} <= kinds

    def test_scalar_script_vocabulary_agrees(self):
        def script(bank):
            t = 0.0
            for victim in (40, 44):
                for _ in range(3000):
                    for aggressor in (victim - 1, victim + 1):
                        t += 50.0
                        bank.activate(aggressor, t)
                        bank.precharge()
            bank.read(40, t + 1)
            bank.write(60, np.ones(GEOMETRY.row_bits, dtype=np.uint8), t + 2)
            bank.refresh_rows([44, 45, 44, 200], t + 3)
            for _ in range(3000):
                t += 50.0
                bank.activate(79, t)
            bank.refresh_all(t + 4)
            for _ in range(3000):
                t += 50.0
                bank.activate(99, t)
            bank.settle(t + 5)

        self._assert_engines_agree(script)

    def test_stream_vocabulary_agrees(self):
        def script(bank):
            stream = CommandStream()
            for i, victim in enumerate((20, 26, 32)):
                stream.act(victim - 1, 4000, 100.0 + i).act(
                    victim + 1, 4000, 110.0 + i)
            stream.ref_all(200.0)
            for i, victim in enumerate((50, 56)):
                stream.act(victim - 1, 4000, 300.0 + i).act(
                    victim + 1, 4000, 310.0 + i)
            stream.ref_row(50, 400.0).read(56, 410.0)
            stream.act(69, 5000, 500.0).act(71, 5000, 510.0).settle(600.0)
            bank.execute(stream)

        self._assert_engines_agree(script)
