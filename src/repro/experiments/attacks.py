"""§II-A/§II-B attack experiments: the exploitation gallery, the
concrete kernel exploit chain, sidedness ablation, user-level strategies
through a real cache, and multi-bank scaling under tRRD/tFAW."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.attacks.hammer import hammer_device, neighbors
from repro.attacks.privilege import (
    drammer_success_probability,
    flip_feng_shui_templates,
    javascript_success_probability,
    pte_spray_success_probability,
    scan_templates,
)
from repro.core.scenarios import full_scale_scenario, scaled_scenario
from repro.experiments.registry import experiment
from repro.os.exploit import ExploitOutcome, KernelExploitSimulation


# ----------------------------------------------------------------------
# C14: the attack gallery
# ----------------------------------------------------------------------
@experiment(
    "attack_gallery",
    claim="Success probability of each §II-B exploitation model vs module vintage",
    section="II-B",
    tags=("attacks", "rowhammer"),
    aliases=("c14",),
)
def attack_gallery(
    dates: Sequence[float] = (2011.0, 2012.5, 2013.2),
    rows_scanned: int = 3000,
    seed: int = 0,
) -> List[Dict]:
    """Success probability of each §II-B attack vs module vintage."""
    out = []
    for date in dates:
        scenario = full_scale_scenario("B", date)
        module = scenario.make_module(serial=f"gallery-{date}", seed=seed)
        pressure = scenario.attack_budget
        templates = scan_templates(module, 0, range(rows_scanned), pressure)
        ffs_usable = len(flip_feng_shui_templates(templates))
        out.append(
            {
                "date": date,
                "templates": len(templates),
                "pte_spray": pte_spray_success_probability(templates, spray_fraction=0.35, seed=seed),
                "flip_feng_shui": ffs_usable > 0,
                "ffs_usable_templates": ffs_usable,
                # The scanned region stands in for the attacker-reachable
                # memory (scanning the full module is possible but slow).
                "drammer": drammer_success_probability(
                    templates, total_rows=rows_scanned, chunk_rows=256, seed=seed
                ),
                "javascript": javascript_success_probability(
                    templates, total_rows=rows_scanned, aggressor_attempts=200, seed=seed
                ),
            }
        )
    return out


# ----------------------------------------------------------------------
# X12: the Project Zero chain at the data level
# ----------------------------------------------------------------------
@experiment(
    "pte_exploit_chain",
    claim="Hammering sprayed page tables retargets PTEs at attacker page tables (kernel compromise)",
    section="II-B",
    tags=("attacks", "rowhammer", "os"),
    aliases=("x12",),
)
def pte_exploit_chain(frames: int = 128, full_scale: bool = False, seed: int = 0) -> ExploitOutcome:
    """§II-B's Project Zero exploit, executed concretely.

    Page-table pages are sprayed into half of ``frames`` rows of a
    2013-class module, one refresh window of double-sided hammering
    runs across the region, and the rows are decoded back as PTEs: a
    corrupted entry that now points at an attacker page table is the
    win.  The default runs on the 20x-scaled scenario (same
    budget/threshold ratios, fewer PTEs per row); ``full_scale`` uses
    the unscaled module.
    """
    if full_scale:
        scenario = full_scale_scenario("B", 2013.2)
    else:
        scenario = scaled_scenario(scale=20.0, date=2013.2)
    sim = KernelExploitSimulation(
        scenario.make_module(serial="concrete", seed=seed), frames=frames
    )
    return sim.run(spray_fraction=0.5, pressure=scenario.attack_budget)


# ----------------------------------------------------------------------
# Extension: single- vs double-sided ablation
# ----------------------------------------------------------------------
@experiment(
    "sidedness_ablation",
    claim="Double-sided hammering beats single-sided at equal activation rate",
    section="II-A",
    tags=("attacks", "rowhammer", "ablation"),
    aliases=("sidedness",),
)
def sidedness_ablation(seed: int = 0) -> Dict:
    """Double-sided hammering beats single-sided at equal activation rate.

    Both attackers issue ``budget`` activations within the window.  The
    single-sided attacker must alternate its aggressor with a *dummy*
    far row (to defeat the row buffer), so its victim accumulates only
    half the pressure; the double-sided attacker spends everything on
    the shared victim's two neighbors.
    """
    scenario = full_scale_scenario("B", 2013.0)
    budget = scenario.attack_budget
    module_s = scenario.make_module(serial="single", seed=seed)
    # Aggressor gets budget/2 activations; the other half goes to a dummy
    # row far away (its disturbance is accounted too, but irrelevant here).
    single = hammer_device(module_s, 0, [1000], budget // 2)
    hammer_device(module_s, 0, [8000], budget // 2)
    module_d = scenario.make_module(serial="double", seed=seed)
    double = hammer_device(module_d, 0, neighbors(module_d, 1000), budget // 2)
    # Per-victim comparison: the single-sided attacker's best neighbor
    # vs the double-sided attacker's bracketed victim.
    single_victim_flips = max(
        sum(1 for row, _ in single.flips if row == 999),
        sum(1 for row, _ in single.flips if row == 1001),
    )
    double_victim_flips = sum(1 for row, _ in double.flips if row == 1000)
    return {
        "single_flips": single_victim_flips,
        "double_flips": double_victim_flips,
        "total_activations_each": budget,
    }


# ----------------------------------------------------------------------
# Extension: user-level attack strategies through a real cache
# ----------------------------------------------------------------------
@experiment(
    "userlevel_attack_study",
    claim="Plain loads vs CLFLUSH vs eviction sets behind a set-associative cache",
    section="II-A",
    tags=("attacks", "rowhammer", "cpu"),
    aliases=("userlevel",),
)
def userlevel_attack_study(seed: int = 0) -> Dict:
    """§II-A end to end: plain loads vs CLFLUSH vs eviction sets.

    Each strategy gets exactly one refresh window of wall-clock time on
    the same module behind a set-associative cache.  A second, weaker
    module shows the eviction strategy flipping once thresholds drop
    (the JavaScript attack's dependence on more vulnerable parts).
    """
    from dataclasses import replace

    from repro.cpu import CpuMemorySystem, SetAssociativeCache

    scenario = scaled_scenario(scale=20.0)
    window = scenario.timing.tREFW

    def run(strategy: str, profile_scale: float = 1.0) -> Dict:
        profile = scenario.profile
        if profile_scale != 1.0:
            profile = replace(
                profile,
                hc_first_min=profile.hc_first_min / profile_scale,
                hc_first_median=profile.hc_first_median / profile_scale,
            )
        module = replace(scenario, profile=profile).make_module(
            serial=f"cpu-{strategy}-{profile_scale}", seed=seed
        )
        system = CpuMemorySystem(module, cache=SetAssociativeCache(size_bytes=1 << 20, ways=8))
        stats = getattr(system, f"{strategy}_hammer")(
            0, [999, 1001], 10**9, time_budget_ns=window
        )
        return {
            "strategy": strategy,
            "loads": stats.loads,
            "target_activations": stats.target_activations,
            "flips": stats.flips,
            "efficiency": stats.activation_efficiency,
            "acts_per_window": stats.activations_per_window(window),
        }

    rows = [run(s) for s in ("naive", "flush", "eviction")]
    eviction_on_weak_module = run("eviction", profile_scale=4.0)
    return {"rows": rows, "eviction_on_weak_module": eviction_on_weak_module}


# ----------------------------------------------------------------------
# Extension: multi-bank attack scaling under tRRD/tFAW
# ----------------------------------------------------------------------
@experiment(
    "multibank_study",
    claim="Attack throughput vs parallel banks until the rank tFAW limit bites",
    section="II-A",
    tags=("attacks", "rowhammer", "timing"),
    aliases=("multibank",),
)
def multibank_study(seed: int = 0, bank_counts: Sequence[int] = (1, 2, 4, 6, 8)) -> List[Dict]:
    """Attack throughput vs simultaneously hammered banks.

    A single-bank hammer is tRC-bound; parallel banks multiply total
    victim flips until the rank's tFAW activation-rate limit saturates
    and per-bank pressure starts falling.
    """
    from repro.attacks.hammer import multibank_attack_scaling

    scenario = full_scale_scenario("B", 2013.0)
    return multibank_attack_scaling(
        lambda: scenario.make_module(serial="multibank", seed=seed),
        bank_counts=bank_counts,
    )
