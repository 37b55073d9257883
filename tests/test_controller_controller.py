"""Tests for the mitigation-aware MemoryController."""

import pytest

from repro.controller import MemoryController, NullMitigation
from repro.controller.controller import _times_until
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1333

GEO = DramGeometry(banks=2, rows=256, row_bytes=256)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800
)


def make_controller(**kwargs):
    module = DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=4,
                        remap_scheme=kwargs.pop("remap_scheme", "identity"))
    return MemoryController(module, **kwargs)


class TestControllerBasics:
    def test_time_advances_with_activations(self):
        ctrl = make_controller()
        ctrl.activate(0, 10)
        ctrl.activate(0, 12)
        assert ctrl.time_ns >= 2 * ctrl.module.timing.tRC

    def test_activations_counted(self):
        ctrl = make_controller()
        for _ in range(5):
            ctrl.activate(0, 10)
        assert ctrl.stats.activations == 5
        assert ctrl.module.total_activations() == 5

    def test_hammering_produces_flips(self):
        ctrl = make_controller()
        ctrl.run_activation_pattern(0, [99, 101], 3_000)
        flips = ctrl.finish()
        assert flips > 0

    def test_auto_refresh_fires(self):
        ctrl = make_controller()
        # Enough activations to pass several tREFI intervals.
        ctrl.run_activation_pattern(0, [10, 200], 200)
        assert ctrl.refresh_engine.stats.ref_commands > 0

    def test_refresh_neighbors_spd(self):
        ctrl = make_controller(remap_scheme="block-swap", spd_adjacency=True)
        ctrl.module.bank(0).bulk_activate(12, 10_000)  # physical aggressor
        # Logical row whose physical is 12: to_logical(12)=8.
        count = ctrl.refresh_neighbors(0, 8)
        assert count == 2
        # SPD-aware: refreshed the true physical neighbors (11, 13).
        assert ctrl.stats.mitigation_refreshes == 2

    def test_refresh_neighbors_costs_time_and_energy(self):
        ctrl = make_controller()
        t0, e0 = ctrl.time_ns, ctrl.energy.counts["refresh_row"]
        ctrl.refresh_neighbors(0, 100)
        assert ctrl.time_ns > t0
        assert ctrl.energy.counts["refresh_row"] == e0 + 2

    def test_read_write_roundtrip(self):
        ctrl = make_controller()
        bits = ctrl.read(0, 42)
        ctrl.write(0, 42, bits)
        again = ctrl.read(0, 42)
        assert (bits == again).all()

    def test_null_mitigation_default(self):
        ctrl = make_controller()
        assert isinstance(ctrl.mitigation, NullMitigation)
        assert ctrl.mitigation.extra_refresh_ops() == 0

    def test_trace_replay(self):
        ctrl = make_controller()
        ctrl.run_trace([(0, 5, False), (1, 9, True), (0, 5, False)])
        assert ctrl.stats.activations >= 3

    def test_higher_multiplier_reduces_flips(self):
        slow = make_controller(refresh_multiplier=1.0)
        slow.run_activation_pattern(0, [99, 101], 2_000)
        base_flips = slow.finish()
        fast = make_controller(refresh_multiplier=16.0)
        fast.run_activation_pattern(0, [99, 101], 2_000)
        fast_flips = fast.finish()
        assert fast_flips <= base_flips


def times_until_loop(start, step, cap, limit):
    """The sequential ``t += step`` loop ``_times_until`` must equal."""
    times = []
    t = start
    while len(times) < cap:
        t += step
        times.append(t)
        if t >= limit:
            break
    return times


class TestTimesUntil:
    """``_times_until`` folds the times with ``np.add.accumulate``; each
    time must be the loop's float, bit for bit."""

    @pytest.mark.parametrize("step", [49.5, 46.25, 1 / 3])
    @pytest.mark.parametrize("start", [0.0, 1234.5, 7.1e6 + 1 / 7])
    def test_equals_the_loop(self, step, start):
        for cap in range(1, 40):
            for limit in (start, start + 0.5 * step, start + 3 * step,
                          start + 17.25 * step, start + 1000 * step,
                          start - 1.0, float("inf")):
                expected = times_until_loop(start, step, cap, limit)
                got = _times_until(start, step, cap, limit)
                assert got == expected, (start, step, cap, limit)
                assert all(type(t) is float for t in got)

    @pytest.mark.parametrize("step", [49.5, 46.25, 1 / 3])
    def test_limit_on_a_step(self, step):
        # A limit equal to a folded time ends the list at that time.
        start = 3900.0
        loop = times_until_loop(start, step, 10_000, float("inf"))
        for k in (0, 1, 9, 157, 4095):
            got = _times_until(start, step, 10_000, loop[k])
            assert got == loop[:k + 1]

    @pytest.mark.parametrize("step", [49.5, 46.25, 1 / 3])
    def test_cap_before_limit(self, step):
        for cap in (1, 2, 157, 2048):
            got = _times_until(100.0, step, cap, 100.0 + step * (cap + 50))
            assert got == times_until_loop(100.0, step, cap, 100.0 + step * (cap + 50))
            assert len(got) == cap

    def test_empty_cap(self):
        assert _times_until(0.0, 49.5, 0, 10.0) == []
