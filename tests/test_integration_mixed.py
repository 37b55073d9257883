"""Integration tests: attacker embedded in benign traffic.

ANVIL's real detection problem is distinguishing a hammer loop from
legitimately hot rows inside normal traffic.  These tests drive the
mixed workload through the full controller with each detector
installed and check both halves: the attacker is stopped, and benign
hot rows are not flooded with victim refreshes.
"""

import pytest

from repro.controller import MemoryController
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1333
from repro.mitigations import AnvilMitigation, CounterBasedMitigation
from repro.workloads import mixed_with_attacker, sequential_stream

GEO = DramGeometry(banks=2, rows=512, row_bytes=256)
PROFILE = VulnerabilityProfile(weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800)


def run_mixed(mitigation, seed=12):
    module = DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=seed)
    ctrl = MemoryController(module, mitigation=mitigation)
    benign = sequential_stream(800, banks=GEO.banks, rows=GEO.rows)
    trace = mixed_with_attacker(benign, bank=0, aggressors=[99, 101],
                                attacker_share=0.8, seed=seed)
    # Repeat the mixed block to accumulate attack pressure.
    for _ in range(4):
        ctrl.run_trace(trace)
    ctrl.finish()
    return ctrl, module


class TestMixedTrafficDetection:
    def test_attacker_in_mixed_traffic_flips_without_detector(self):
        ctrl, module = run_mixed(None)
        assert module.total_flips() > 0

    def test_anvil_catches_attacker_in_mixed_traffic(self):
        mitigation = AnvilMitigation(sample_interval_ns=50_000.0, rate_threshold=200)
        ctrl, module = run_mixed(mitigation)
        assert mitigation.detections > 0
        assert module.total_flips() == 0

    def test_anvil_quiet_on_pure_benign(self):
        mitigation = AnvilMitigation(sample_interval_ns=50_000.0, rate_threshold=200)
        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=3)
        ctrl = MemoryController(module, mitigation=mitigation)
        benign = sequential_stream(3_000, banks=GEO.banks, rows=GEO.rows)
        ctrl.run_trace(benign)
        ctrl.finish()
        assert mitigation.detections == 0
        assert module.total_flips() == 0

    def test_cra_catches_attacker_in_mixed_traffic(self):
        mitigation = CounterBasedMitigation(threshold=200)
        ctrl, module = run_mixed(mitigation)
        assert mitigation.detections > 0
        assert module.total_flips() == 0

    def test_benign_rows_not_flooded_with_victim_refreshes(self):
        mitigation = CounterBasedMitigation(threshold=200)
        ctrl, module = run_mixed(mitigation)
        # Victim refreshes should be a tiny fraction of total commands:
        # only the aggressors' neighbors, not the whole benign footprint.
        assert ctrl.stats.mitigation_refreshes < ctrl.stats.activations * 0.05
