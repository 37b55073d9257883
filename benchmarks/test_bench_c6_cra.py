"""C6 — §II-C: counter-based aggressor identification costs storage.

"accurately identifying a row as a hammered row requires keeping track
of access counters for a large number of rows ... leading to very
large hardware area and power consumption".
"""

from repro.experiments import cra_tradeoff


def test_bench_c6_cra(table):
    result = cra_tradeoff()
    print()
    print(table(
        ["variant", "residual flips", "detections", "storage bits (scaled module)"],
        [
            ["full" if run["table_entries"] is None else f"table-{run['table_entries']}",
             run["flips"], run["detections"], run["storage_bits"]]
            for run in result["runs"]
        ],
        title="C6 — CRA protection vs counter storage",
    ))
    print(table(
        ["variant", "threshold", "entries", "storage bits (2 GiB module)"],
        [[r["variant"], r["threshold"], r["table_entries"], r["storage_bits"]]
         for r in result["full_scale_storage"]],
        title="C6 — full-scale storage bill",
    ))

    for run in result["runs"]:
        assert run["flips"] == 0 and run["detections"] > 0
    full = next(r for r in result["full_scale_storage"] if r["variant"] == "full")
    # Full per-row counters: megabits of dedicated SRAM — the overhead
    # §II-C criticizes.
    assert full["storage_bits"] > 4_000_000
