"""Tests for the CPU cache substrate and user-level attack programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenarios import scaled_scenario
from repro.cpu import CpuMemorySystem, SetAssociativeCache, build_eviction_set


class TestCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        assert not cache.access(0)
        assert cache.access(0)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        sets = cache.n_sets
        stride = 64 * sets  # same set, different tags
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts tag of address 0 (LRU)
        assert not cache.contains(0)
        assert cache.contains(stride)
        assert cache.contains(2 * stride)

    def test_access_refreshes_lru(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        stride = 64 * cache.n_sets
        cache.access(0)
        cache.access(stride)
        cache.access(0)             # 0 becomes MRU
        cache.access(2 * stride)    # evicts `stride`, not 0
        assert cache.contains(0)
        assert not cache.contains(stride)

    def test_flush(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        cache.access(128)
        assert cache.flush(128)
        assert not cache.contains(128)
        assert not cache.flush(128)

    def test_miss_rate(self):
        cache = SetAssociativeCache(size_bytes=4096, line_bytes=64, ways=2)
        cache.access(0)
        cache.access(0)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.misses / (cache.hits + cache.misses) == pytest.approx(0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=100, line_bytes=64, ways=2)

    def test_eviction_set_congruent(self):
        cache = SetAssociativeCache(size_bytes=64 * 1024, line_bytes=64, ways=4)
        target = 4096
        ev_set = build_eviction_set(cache, target, region_base=1 << 20, region_bytes=1 << 22)
        assert len(ev_set) == cache.ways
        assert all(cache.set_index(a) == cache.set_index(target) for a in ev_set)
        assert target not in ev_set

    def test_eviction_set_region_too_small(self):
        cache = SetAssociativeCache(size_bytes=1 << 20, line_bytes=64, ways=16)
        with pytest.raises(ValueError):
            build_eviction_set(cache, 0, region_base=1 << 20, region_bytes=4096)

    def test_eviction_set_actually_evicts(self):
        cache = SetAssociativeCache(size_bytes=64 * 1024, line_bytes=64, ways=4)
        target = 4096
        ev_set = build_eviction_set(cache, target, region_base=1 << 20, region_bytes=1 << 22)
        cache.access(target)
        for address in ev_set:
            cache.access(address)
        assert not cache.contains(target)


def scan_eviction_set(cache, target, region_base, region_bytes):
    """The spec ``build_eviction_set`` computes directly: walk the region
    line by line, keeping congruent addresses other than the target."""
    wanted = cache.set_index(target)
    out = []
    address = region_base
    while address < region_base + region_bytes and len(out) < cache.ways:
        if cache.set_index(address) == wanted and address != target:
            out.append(address)
        address += cache.line_bytes
    if len(out) < cache.ways:
        raise ValueError("region too small to build a full eviction set")
    return out


def eviction_set_or_error(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


class TestEvictionSetArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(
        line_bytes=st.sampled_from([16, 64, 128]),
        n_sets=st.integers(1, 48),
        ways=st.integers(1, 9),
        region_base=st.integers(0, 1 << 16),
        region_spans=st.floats(0.0, 12.0),
        target_offset=st.one_of(st.integers(-(1 << 14), 1 << 14), st.none()),
        target=st.integers(0, 1 << 17),
    )
    def test_matches_the_linear_scan(self, line_bytes, n_sets, ways, region_base,
                                     region_spans, target_offset, target):
        cache = SetAssociativeCache(size_bytes=line_bytes * n_sets * ways,
                                    line_bytes=line_bytes, ways=ways)
        region_bytes = int(region_spans * n_sets * line_bytes)
        if target_offset is not None:
            # A target inside (or just around) the region, often on a
            # line the walk visits.
            target = max(0, region_base + target_offset - target_offset % line_bytes)
        args = (cache, target, region_base, region_bytes)
        assert eviction_set_or_error(build_eviction_set, *args) == \
            eviction_set_or_error(scan_eviction_set, *args)

    @pytest.mark.parametrize("region_base", [0, 1, 63, 4096 + 17, (1 << 20) - 5])
    @pytest.mark.parametrize("in_region", [False, True])
    def test_unaligned_bases_and_targets_in_region(self, region_base, in_region):
        cache = SetAssociativeCache(size_bytes=8192, line_bytes=64, ways=4)
        target = region_base + 5 * 64 if in_region else 1 << 22
        for region_bytes in (0, 100, 2048, 2048 * 4, 2048 * 5, 2048 * 5 + 64, 1 << 16):
            args = (cache, target, region_base, region_bytes)
            assert eviction_set_or_error(build_eviction_set, *args) == \
                eviction_set_or_error(scan_eviction_set, *args)

    def test_skips_the_target(self):
        cache = SetAssociativeCache(size_bytes=8192, line_bytes=64, ways=4)
        ev_set = build_eviction_set(cache, 2048, region_base=0, region_bytes=5 * 2048)
        assert ev_set == [0, 4096, 6144, 8192]
        with pytest.raises(ValueError, match="region too small"):
            build_eviction_set(cache, 2048, region_base=0, region_bytes=4 * 2048)


class TestUserLevelHammer:
    @pytest.fixture(scope="class")
    def scenario(self):
        return scaled_scenario(scale=20.0)

    def _system(self, scenario, seed=7):
        return CpuMemorySystem(
            scenario.make_module(serial="cpu-test", seed=seed),
            cache=SetAssociativeCache(size_bytes=1 << 20, ways=8),
        )

    def test_naive_loads_absorbed_by_cache(self, scenario):
        stats = self._system(scenario).naive_hammer(0, [999, 1001], 5_000)
        assert stats.target_activations <= len([999, 1001])
        assert stats.flips == 0

    def test_flush_hammer_reaches_dram_every_load(self, scenario):
        stats = self._system(scenario).flush_hammer(
            0, [999, 1001], 10**9, time_budget_ns=scenario.timing.tREFW
        )
        assert stats.activation_efficiency == pytest.approx(1.0)
        assert stats.flips > 0

    def test_eviction_hammer_pays_rate_penalty(self, scenario):
        window = scenario.timing.tREFW
        flush = self._system(scenario).flush_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        evict = self._system(scenario).eviction_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        assert 0 < evict.activation_efficiency < 0.5
        assert evict.target_activations < flush.target_activations / 3

    def test_time_budget_respected(self, scenario):
        window = scenario.timing.tREFW
        stats = self._system(scenario).flush_hammer(0, [999, 1001], 10**9, time_budget_ns=window)
        assert stats.elapsed_ns <= window * 1.01

    def test_row_address_roundtrip(self, scenario):
        system = self._system(scenario)
        address = system.row_address(1, 42)
        coord = system.mapping.decode(address)
        assert (coord.bank, coord.row) == (1, 42)

    def test_eviction_region_past_end_of_memory_raises_before_running(self, scenario):
        # The default region starts 64 rows past the highest aggressor and
        # would run 128 rows' worth of addresses past the end of memory.
        system = self._system(scenario)
        system.flush_hammer(0, [999, 1001], 500)
        module, cache = system.module, system.cache

        def state():
            return (system.time_ns, system.dram_accesses, cache.hits, cache.misses,
                    cache.evictions, cache.lru_state(range(cache.n_sets)),
                    [(b.stats.activations, b.open_row, list(b.stats.flip_log))
                     for b in module.banks])

        before = state()
        with pytest.raises(ValueError, match="region too small"):
            system.eviction_hammer(0, [3988, 3990], 10**9,
                                   time_budget_ns=scenario.timing.tREFW)
        assert state() == before
