"""C5 — §II-C: PARA "eliminates the RowHammer vulnerability, providing
much higher reliability guarantees than modern hard disks today, while
requiring no storage cost and having negligible performance and energy
overheads."

Closed-form reliability analysis plus a scaled controller-path
simulation cross-check.
"""

from repro.analysis.reliability import HARD_DISK_AFR_TYPICAL
from repro.experiments import para_controller_check, para_reliability


def test_bench_c5_para_analysis(table):
    result = para_reliability()
    print()
    print(table(
        ["p", "log10 failures/yr", "decades safer than disk", "perf overhead"],
        [
            [f"{row['p']:g}", f"{row['log10_failures_per_year']:.1f}",
             f"{row['log10_margin_vs_disk']:.1f}", f"{100 * row['perf_overhead']:.2f}%"]
            for row in result["rows"]
        ],
        title=f"C5 — PARA failure rates (disk AFR baseline {HARD_DISK_AFR_TYPICAL})",
    ))
    print(f"p meeting 1e-15 failures/yr at HC=139K: {result['recommended_p_1e-15']:.2e}")

    for row in result["rows"]:
        assert row["log10_margin_vs_disk"] > 0     # always safer than a disk
        assert row["perf_overhead"] < 0.01         # "negligible"
    assert result["recommended_p_1e-15"] < 0.002


def test_bench_c5_para_simulation(table):
    result = para_controller_check()
    print()
    print(table(
        ["system", "flips", "time overhead"],
        [
            ["unprotected", result["bare_flips"], "-"],
            ["para", result["para_flips"], f"{100 * result['para_overhead_time']:.2f}%"],
        ],
        title="C5 — scaled controller-path cross-check",
    ))
    assert result["bare_flips"] > 0
    assert result["para_flips"] == 0
    assert result["para_overhead_time"] < 0.08
