"""Extension benches: data-pattern dependence and emerging memories.

* DPD of disturbance errors (the ISCA 2014 observation the paper's
  footnote 3 summarizes);
* §III's emerging-memory warning quantified: STT-MRAM error scaling
  and the RRAM crossbar half-select RowHammer analogue.
"""

from repro.experiments import emerging_memory_study, pattern_dependence_study


def test_bench_pattern_dependence(table):
    rows = pattern_dependence_study(victims=200, seed=0)
    print()
    print(table(
        ["data pattern", "flips"],
        [[r["pattern"], r["flips"]] for r in rows],
        title="Extension — data-pattern dependence of disturbance errors",
    ))
    by_name = {r["pattern"]: r["flips"] for r in rows}
    # Stripe-family fills couple hardest; solid fills are mildest.
    assert by_name["rowstripe"] > by_name["random"] > by_name["solid1"]
    assert by_name["checkered"] > by_name["colstripe"]


def test_bench_emerging_memories(table):
    result = emerging_memory_study(seed=0)
    print()
    print(table(
        ["thermal stability (delta)", "read-disturb errors (1M reads)", "retention errors (10y)"],
        [[r["delta"], f"{r['read_disturb_errors']:.3g}", f"{r['retention_errors_10y']:.3g}"]
         for r in result["stt_scaling"]],
        title="Extension — STT-MRAM error scaling with density (256K cells)",
    ))
    print(table(
        ["crossbar accesses to one cell", "shared-line victims", "victims confined to shared lines"],
        [[r["accesses"], r["victims"], r["all_on_shared_lines"]] for r in result["rram_hammer"]],
        title="Extension — RRAM half-select disturb (the crossbar RowHammer)",
    ))

    stt = result["stt_scaling"]
    # Shrinking delta (denser cells) raises both error classes together.
    assert stt[-1]["read_disturb_errors"] > stt[0]["read_disturb_errors"]
    assert stt[-1]["retention_errors_10y"] > stt[0]["retention_errors_10y"]
    rram = result["rram_hammer"]
    assert rram[-1]["victims"] > 0
    assert all(r["all_on_shared_lines"] for r in rram)
