"""Ablations of the design choices DESIGN.md calls out.

* single- vs double-sided hammering effectiveness;
* PARA probability sweep (protection vs overhead);
* SPD adjacency vs naive +/-1 guessing under internal remapping.
"""

from repro.experiments import para_reliability, sidedness_ablation
from repro.core.scenarios import scaled_scenario
from repro.core.system import MemorySystem


def test_bench_ablation_sidedness(table):
    result = sidedness_ablation(seed=0)
    print()
    print(table(
        ["pattern", "flips on targeted victim"],
        [
            ["single-sided (aggressor + dummy)", result["single_flips"]],
            ["double-sided", result["double_flips"]],
        ],
        title="Ablation — sidedness at equal activation rate",
    ))
    assert result["double_flips"] > result["single_flips"]


def test_bench_ablation_para_sweep(table):
    result = para_reliability(p_values=(1e-4, 5e-4, 1e-3, 5e-3, 2e-2))
    rows = result["rows"]
    print()
    print(table(
        ["p", "log10 failures/yr", "perf overhead"],
        [[f"{r['p']:g}", f"{r['log10_failures_per_year']:.1f}", f"{100 * r['perf_overhead']:.2f}%"]
         for r in rows],
        title="Ablation — PARA p: protection vs overhead",
    ))
    rates = [r["log10_failures_per_year"] for r in rows]
    overheads = [r["perf_overhead"] for r in rows]
    assert rates == sorted(rates, reverse=True)
    assert overheads == sorted(overheads)


def test_bench_ablation_multibank(table):
    from repro.experiments import multibank_study

    rows = multibank_study(seed=0)
    print()
    print(table(
        ["parallel banks", "per-bank budget", "total victim flips"],
        [[r["banks"], r["per_bank_budget"], r["victim_flips_total"]] for r in rows],
        title="Ablation — multi-bank hammering under tRRD/tFAW",
    ))
    totals = [r["victim_flips_total"] for r in rows]
    assert totals == sorted(totals)                       # more banks, more damage
    budgets = [r["per_bank_budget"] for r in rows]
    assert budgets[-1] < budgets[0]                        # tFAW bites eventually


def spd_ablation(seed=0):
    """PARA with true adjacency vs naive guessing on a remapped module."""
    scenario = scaled_scenario(scale=20.0)
    iters = scenario.attack_budget // 2
    out = {}
    for label, spd in (("spd", True), ("naive", False)):
        module = scenario.make_module(serial=f"spd-{label}", seed=seed, remap_scheme="block-swap")
        system = MemorySystem(
            module, mitigation="para", mitigation_kwargs={"p": 0.05, "seed": seed},
            spd_adjacency=spd,
        )
        # Victim at a block boundary, where block-swap breaks +/-1 guessing.
        out[label] = system.hammer_double_sided(victim=1004, iterations=iters)
    return out


def test_bench_ablation_spd_adjacency(table):
    result = spd_ablation(seed=0)
    print()
    print(table(
        ["adjacency source", "residual flips"],
        [["SPD-published (paper's proposal)", result["spd"]],
         ["naive logical +/-1", result["naive"]]],
        title="Ablation — PARA needs true adjacency under internal remapping",
    ))
    assert result["spd"] <= result["naive"]
