"""C8 — §III-A1: DRAM data-retention failures.

DPD and VRT make retention profiling fundamentally unreliable ("some
retention errors can easily slip into the field"); RAIDR-style
multi-rate refresh inherits the escapes; AVATAR's scrub-and-upgrade
recovers the escape rate over deployment time.
"""

from repro.experiments import retention_study


def test_bench_c8_retention(table):
    result = retention_study()
    print()
    print(table(
        ["quantity", "value"],
        [
            ["cells profiled as failing", result["discovered"]],
            ["profiling escapes (DPD/VRT)", result["profiling_escapes"]],
            ["RAIDR refresh savings", f"{100 * result['raidr_savings_fraction']:.1f}%"],
            ["RAIDR bin counts (64/128/256 ms)", result["raidr_bin_counts"]],
            ["RAIDR runtime escape cells", result["raidr_escape_cells"]],
            ["AVATAR escapes by day", result["avatar_daily_escapes"]],
            ["refresh ops/s base/RAIDR/AVATAR",
             f"{result['baseline_refresh_rate']:.0f} / {result['raidr_refresh_rate']:.0f}"
             f" / {result['avatar_final_refresh_rate']:.0f}"],
        ],
        title="C8 — retention profiling escapes and multi-rate refresh",
    ))

    assert result["profiling_escapes"] > 0           # testing is defeatable
    assert result["raidr_savings_fraction"] > 0.3    # refresh savings real
    assert result["raidr_escape_cells"] > 0          # ... but escapes persist
    daily = result["avatar_daily_escapes"]
    assert daily[-1] <= daily[0]                     # AVATAR decays the rate
    assert sum(daily[2:]) < max(1, daily[0]) * (len(daily) - 2)
