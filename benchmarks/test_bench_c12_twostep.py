"""C12 — §III-B: two-step programming vulnerabilities (HPCA 2017).

Disturbance during the LSB->MSB exposure window corrupts the internal
partial read and thus the stored data; the proposed hardening
(controller-side LSB buffering) removes the exposure and buys a
lifetime increase (paper: ~16%).
"""

from repro.experiments import twostep_lifetime_study, twostep_study


def test_bench_c12_exposure(table):
    result = twostep_study(pe_cycles=8000, seed=0)
    print()
    print(table(
        ["configuration", "LSB errors at finalization"],
        [
            ["exposed window (reads + neighbor writes)", result["exposed_errors"]],
            ["mitigated (LSB buffering)", result["mitigated_errors"]],
            ["control (no window)", result["control_errors"]],
        ],
        title="C12 — two-step programming exposure (1X-nm, 8K cycles)",
    ))
    assert result["exposed_errors"] > 10 * max(result["mitigated_errors"], 1)
    assert result["mitigated_errors"] <= result["control_errors"] + 50


def test_bench_c12_lifetime():
    result = twostep_lifetime_study(seed=0)
    gain = result["lifetime_gain_fraction"]
    print(f"\nC12 — lifetime gain from hardening: {100 * gain:.1f}% (paper: ~16%)")
    assert 0.05 < gain < 0.6
