"""C9 — §III-A2: flash error mix vs wear, and FCR lifetime extension.

"the dominant source of errors in flash memory are data retention
errors" (at wear), and refresh "greatly improves the lifetime of
modern MLC NAND flash memory".
"""

from repro.experiments import fcr_study, flash_error_sweep, vref_tuning_study


def test_bench_c9_vref_tuning(table):
    """The SSD controller's first-line retention fix: re-centering the
    read references after the distributions shift (read-retry)."""
    result = vref_tuning_study(seed=0)
    print()
    print(table(
        ["read references", "raw errors (15K cycles, 1 year)"],
        [[str(tuple(round(r, 2) for r in result["factory_refs"])), result["factory_errors"]],
         [str(tuple(round(r, 2) for r in result["tuned_refs"])), result["tuned_errors"]]],
        title="C9 — read-reference tuning vs retention errors",
    ))
    print(f"error reduction: {100 * result['reduction_fraction']:.1f}%")
    assert result["reduction_fraction"] > 0.3


def test_bench_c9_error_breakdown(table):
    rows = flash_error_sweep()
    print()
    print(table(
        ["P/E cycles", "wear+interference", "retention (1yr)", "read disturb (20K)", "dominant"],
        [[r["pe_cycles"], r["wear_and_interference"], r["retention"], r["read_disturb"], r["dominant"]]
         for r in rows],
        title="C9 — raw error breakdown vs wear",
    ))
    worn = [r for r in rows if r["pe_cycles"] >= 8000]
    assert all(r["dominant"] == "retention" for r in worn)
    retention = [r["retention"] for r in rows]
    assert retention == sorted(retention)  # grows monotonically with wear


def test_bench_c9_fcr(table):
    result = fcr_study(seed=0)
    print()
    print(table(
        ["refresh interval (days)", "lifetime (P/E cycles)", "refresh wear (PE/yr)"],
        [[p.refresh_interval_days if p.refresh_interval_days is not None else "none",
          p.raw_lifetime_pe, f"{p.refresh_wear_per_year:.0f}"]
         for p in result["points"]],
        title="C9 — Flash Correct-and-Refresh lifetime sweep",
    ))
    print(f"lifetime multiplier at best refresh: {result['lifetime_multiplier']:.1f}x")

    lifetimes = [p.raw_lifetime_pe for p in result["points"]]
    assert lifetimes == sorted(lifetimes)          # shorter interval, longer life
    assert result["lifetime_multiplier"] > 3.0     # order-of-magnitude class gain
