"""§II-C / §IV — the system-memory co-design argument, quantified.

The paper's prescription is an intelligent, configurable memory
controller.  Two of its cited wins, reproduced: AL-DRAM-style latency
profiling and online content-aware retention profiling; plus the
interleaving counterpart of the ECC discussion.
"""

from repro.experiments import codesign_study
from repro.ecc import SECDED_72_64, compare_interleaving
from repro.ecc.injection import inject_clustered
from repro.utils.rng import derive_rng


def test_bench_codesign(table):
    result = codesign_study(seed=0)
    print()
    print(table(
        ["module", "safe tRCD (ns)", "spec (ns)", "speedup"],
        [[r["module"], f"{r['safe_trcd_ns']:.2f}", r["spec_trcd_ns"],
          f"{100 * r['speedup_fraction']:.1f}%"] for r in result["aldram_rows"][:6]],
        title="Co-design — AL-DRAM latency profiling (first 6 modules)",
    ))
    print(f"mean latency headroom: {100 * result['aldram_mean_speedup']:.1f}%")
    print(table(
        ["profiler", "DPD cells found", "field escapes"],
        [["static campaign", result["static_discovered"], result["static_escapes"]],
         ["online (content-aware)", result["online_discovered"], result["online_escapes"]]],
        title="Co-design — online retention profiling",
    ))

    assert result["aldram_mean_speedup"] > 0.10
    assert result["static_escapes"] > 0
    assert result["online_escapes"] == 0


def interleave_experiment(seed=0):
    flips = inject_clustered(2500, 1 << 20, derive_rng(seed, "bench-interleave"))
    return compare_interleaving(SECDED_72_64, flips, degrees=(1, 2, 4, 8), seed=seed)


def test_bench_codesign_interleaving(table):
    results = interleave_experiment(seed=0)
    print()
    print(table(
        ["interleave degree", "erroneous words", "uncorrected by SECDED"],
        [[d, ev.words_total, ev.uncorrected_words] for d, ev in results.items()],
        title="Co-design — bit interleaving vs clustered RowHammer flips",
    ))
    uncorrected = [results[d].uncorrected_words for d in (1, 2, 4, 8)]
    assert uncorrected == sorted(uncorrected, reverse=True)
    assert uncorrected[-1] < uncorrected[0] / 1.5
