"""§II-C mitigation experiments: refresh scaling, ECC sufficiency,
PARA, counter-based identification, the all-mitigations comparison,
test-and-retire, and the TRR-sampler bypass."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.costmodel import MitigationReport
from repro.analysis.reliability import HARD_DISK_AFR_TYPICAL, compare_to_disk
from repro.core.scenarios import full_scale_scenario, scaled_scenario
from repro.core.system import MemorySystem
from repro.dram.timing import DDR3_1066
from repro.dram.vintage import profile_for
from repro.ecc.parity import ParityCode
from repro.ecc.hamming import SECDED_72_64
from repro.ecc.symbol import SYMBOL_72_64
from repro.experiments.registry import experiment
from repro.fieldstudy.campaign import whole_module_errors
from repro.fieldstudy.population import build_population, instantiate
from repro.mitigations.cra import CounterBasedMitigation, storage_overhead_table
from repro.mitigations.ecc_eval import (
    evaluate_ladder,
    flip_histogram_from_hammer,
    multi_flip_word_fraction,
)
from repro.mitigations.para import (
    log10_failures_per_year,
    performance_overhead_fraction,
    recommended_p,
)
from repro.mitigations.refresh_scaling import multiplier_to_eliminate, refresh_cost
from repro.mitigations.retire import residual_flips, retire_vulnerable_rows


# ----------------------------------------------------------------------
# C3: refresh-rate scaling
# ----------------------------------------------------------------------
@experiment(
    "refresh_multiplier_sweep",
    claim="Errors and cost vs refresh multiplier; the 7x elimination claim",
    section="II-C",
    tags=("mitigations", "refresh"),
    aliases=("c3",),
)
def refresh_multiplier_sweep(
    multipliers: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    manufacturer: str = "B",
    date: float = 2013.0,
    seed: int = 0,
) -> Dict:
    """Errors and costs vs refresh multiplier; the 7x elimination claim."""
    timing = DDR3_1066
    profile = profile_for(manufacturer, date)
    spec_module = instantiate(build_population()[0], seed=seed)  # geometry template
    rows = []
    for k in multipliers:
        module = spec_module.__class__(
            geometry=spec_module.geometry,
            timing=timing,
            profile=profile,
            serial=f"sweep-{k}",
            manufacturer=manufacturer,
            manufacture_date=date,
            seed=seed,
        )
        result = whole_module_errors(module, refresh_multiplier=float(k))
        cost = refresh_cost(timing, float(k))
        rows.append(
            {
                "multiplier": float(k),
                "errors": result.errors,
                "errors_per_billion": result.errors_per_billion,
                "budget": cost.budget,
                "bandwidth_overhead": cost.bandwidth_overhead,
                "refresh_energy_factor": cost.refresh_energy_factor,
            }
        )
    k_exact = multiplier_to_eliminate(profile.hc_first_min, timing)
    return {"rows": rows, "exact_elimination_multiplier": k_exact}


# ----------------------------------------------------------------------
# C4: ECC sufficiency
# ----------------------------------------------------------------------
@experiment(
    "ecc_study",
    claim="Multi-flip words defeat SECDED; symbol ECC corrects byte-confined flips",
    section="II-C",
    tags=("mitigations", "ecc"),
    aliases=("c4",),
)
def ecc_study(victims: int = 400, seed: int = 0) -> Dict:
    """Flips-per-word histogram of hammer errors and the ECC ladder."""
    scenario = full_scale_scenario("B", 2013.2)
    module = scenario.make_module(serial="ecc", seed=seed)
    pressure = scenario.attack_budget
    histogram = flip_histogram_from_hammer(module, bank=0, victim_count=victims, pressure=pressure)
    ladder = evaluate_ladder(
        histogram,
        codes=(
            ("parity", ParityCode(64)),
            ("secded(72,64)", SECDED_72_64),
            ("symbol(80,64)", SYMBOL_72_64),
        ),
        seed=seed,
    )
    return {
        "histogram": histogram,
        "multi_flip_fraction": multi_flip_word_fraction(histogram),
        "ladder": ladder,
    }


# ----------------------------------------------------------------------
# C5: PARA
# ----------------------------------------------------------------------
@experiment(
    "para_reliability",
    claim="PARA closed-form failure rates sit decades below the hard-disk baseline",
    section="II-C",
    tags=("mitigations", "para", "analysis"),
    aliases=("c5",),
)
def para_reliability(
    p_values: Sequence[float] = (2e-4, 5e-4, 1e-3, 2e-3),
    n_th: float = 139_000.0,
) -> Dict:
    """Closed-form PARA failure rates vs the hard-disk baseline."""
    rows = []
    for p in p_values:
        log10_fail = log10_failures_per_year(p, n_th)
        comparison = compare_to_disk(log10_fail)
        rows.append(
            {
                "p": p,
                "log10_failures_per_year": log10_fail,
                "log10_margin_vs_disk": comparison.log10_margin_vs_disk,
                "perf_overhead": performance_overhead_fraction(p),
            }
        )
    return {
        "rows": rows,
        "disk_afr": HARD_DISK_AFR_TYPICAL,
        "recommended_p_1e-15": recommended_p(n_th, -15.0),
    }


@experiment(
    "para_controller_check",
    claim="PARA stops the flips a bare system suffers (scaled controller path)",
    section="II-C",
    tags=("mitigations", "para", "simulation"),
    aliases=("c5-sim",),
)
def para_controller_check(p: float = 0.02, iterations: Optional[int] = None, seed: int = 0) -> Dict:
    """Scaled controller-path check: PARA stops the flips a bare system
    suffers (p is scaled up with the scenario's time scale)."""
    scenario = scaled_scenario(scale=20.0)
    iters = iterations if iterations is not None else scenario.attack_budget // 2
    bare = MemorySystem(scenario.make_module(serial="bare", seed=seed))
    bare_flips = bare.hammer_double_sided(victim=1000, iterations=iters)
    protected = MemorySystem(
        scenario.make_module(serial="para", seed=seed),
        mitigation="para",
        mitigation_kwargs={"p": p, "seed": seed},
    )
    para_flips = protected.hammer_double_sided(victim=1000, iterations=iters)
    return {
        "bare_flips": bare_flips,
        "para_flips": para_flips,
        "para_overhead_time": protected.report().time_ns / max(bare.report().time_ns, 1.0) - 1.0,
        "mitigation_refreshes": protected.report().mitigation_refreshes,
    }


# ----------------------------------------------------------------------
# C6: CRA storage/effectiveness
# ----------------------------------------------------------------------
@experiment(
    "cra_tradeoff",
    claim="Counter-based mitigation protects but carries a dedicated-storage bill",
    section="II-C",
    tags=("mitigations", "cra"),
    aliases=("c6",),
)
def cra_tradeoff(seed: int = 0) -> Dict:
    """Counter-based mitigation: protection plus the storage bill."""
    scenario = scaled_scenario(scale=20.0)
    iters = scenario.attack_budget // 2
    threshold = max(64, int(scenario.profile.hc_first_min // 4))
    results = []
    for table in (None, 1024, 64):
        system = MemorySystem(
            scenario.make_module(serial=f"cra-{table}", seed=seed),
            mitigation="cra",
            mitigation_kwargs={"threshold": threshold, "table_entries": table,
                               "window_ns": scenario.timing.tREFW},
        )
        flips = system.hammer_double_sided(victim=1000, iterations=iters)
        mit = system.mitigation
        results.append(
            {
                "table_entries": table,
                "flips": flips,
                "detections": mit.detections,
                "storage_bits": mit.storage_bits(scenario.geometry.rows, scenario.geometry.banks),
            }
        )
    storage_full = storage_overhead_table(
        rows=32768, banks=8, thresholds=(32768,), table_sizes=(None, 4096, 256)
    )
    return {"runs": results, "full_scale_storage": storage_full}


# ----------------------------------------------------------------------
# C7: mitigation comparison
# ----------------------------------------------------------------------
@experiment(
    "mitigation_comparison",
    claim="All mitigations vs the same double-sided attack: residual/perf/energy/storage",
    section="II-C",
    tags=("mitigations", "comparison"),
    aliases=("c7",),
)
def mitigation_comparison(seed: int = 0) -> List[MitigationReport]:
    """All mitigations against the same double-sided attack (scaled)."""
    scenario = scaled_scenario(scale=20.0)
    iters = scenario.attack_budget // 2
    threshold = max(64, int(scenario.profile.hc_first_min // 4))
    configs = [
        ("none", "none", {}, 1.0),
        ("refresh x8", "none", {}, 8.0),
        ("para p=0.02", "para", {"p": 0.02, "seed": seed}, 1.0),
        ("cra full", "cra", {"threshold": threshold, "window_ns": scenario.timing.tREFW}, 1.0),
        ("anvil", "anvil", {"sample_interval_ns": scenario.timing.tREFW / 16, "rate_threshold": threshold // 2}, 1.0),
        ("trr k=4", "trr", {"tracker_entries": 4, "refresh_period_acts": 512}, 1.0),
    ]
    reports: List[MitigationReport] = []
    baseline_flips = None
    baseline_time = None
    baseline_energy = None
    for label, name, kwargs, multiplier in configs:
        system = MemorySystem(
            scenario.make_module(serial=f"cmp-{label}", seed=seed),
            mitigation=name,
            mitigation_kwargs=kwargs,
            refresh_multiplier=multiplier,
        )
        flips = system.hammer_double_sided(victim=1000, iterations=iters)
        rep = system.report()
        if baseline_flips is None:
            baseline_flips, baseline_time, baseline_energy = flips, rep.time_ns, rep.dynamic_energy_nj
        reports.append(
            MitigationReport(
                name=label,
                residual_flips=flips,
                baseline_flips=baseline_flips,
                perf_overhead=max(0.0, rep.time_ns / baseline_time - 1.0),
                energy_overhead=max(0.0, rep.dynamic_energy_nj / baseline_energy - 1.0),
                storage_bits=_storage_of(system.mitigation, scenario),
            )
        )
    return reports


def _storage_of(mitigation, scenario) -> int:
    if isinstance(mitigation, CounterBasedMitigation):
        return mitigation.storage_bits(scenario.geometry.rows, scenario.geometry.banks)
    return 0


# ----------------------------------------------------------------------
# §II-C solutions 4/5: test and retire vulnerable rows
# ----------------------------------------------------------------------
@experiment(
    "row_retirement",
    claim="Test-and-retire is bounded twice: cells above the test pressure escape, and a test as strong as the attacker runs out of spare rows",
    section="II-C",
    tags=("mitigations", "rowhammer", "retirement"),
    aliases=("retire",),
)
def row_retirement(seed: int = 0) -> List[Dict]:
    """Retire every row a test campaign sees flip, then count what a
    field attacker still flips.

    The field attacker hammers double-sided for one refresh window, so
    each victim takes the whole window's activation budget.  Tests of
    the first 4096 rows of a 2012 module reach a quarter, half (a
    single-sided test at full rate) and all of that, with 256 spare
    rows.  Rows whose weakest cell lies between the test and the field
    pressure survive the test; a test that reaches the field pressure
    finds more vulnerable rows than there are spares.
    """
    scenario = full_scale_scenario("B", 2012.0)
    module = scenario.make_module(serial="retire", seed=seed)
    field_pressure = scenario.attack_budget
    tested = range(4096)
    out = []
    for fraction in (0.25, 0.5, 1.0):
        test_pressure = fraction * field_pressure
        result = retire_vulnerable_rows(module, 0, tested, test_pressure, spare_budget=256)
        out.append(
            {
                "test_fraction": fraction,
                "test_pressure": test_pressure,
                "tested_rows": result.tested_rows,
                "retired_rows": len(result.retired_rows),
                "spares_exhausted": result.spares_exhausted,
                "residual_at_test": residual_flips(
                    module, 0, tested, result.retired_rows, test_pressure),
                "residual_at_field": residual_flips(
                    module, 0, tested, result.retired_rows, field_pressure),
            }
        )
    return out


# ----------------------------------------------------------------------
# Extension: many-sided hammering vs the TRR sampler (TRRespass-style)
# ----------------------------------------------------------------------
@experiment(
    "trr_bypass_study",
    claim="Bounded in-DRAM samplers fail against many simultaneous aggressor pairs",
    section="II-B",
    tags=("mitigations", "trr", "attacks"),
    aliases=("trr-bypass",),
)
def trr_bypass_study(
    n_pairs_list: Sequence[int] = (1, 2, 4, 8),
    tracker_entries: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Bounded in-DRAM samplers fail against many simultaneous aggressors.

    §II-B notes that "even state-of-the-art DDR4 DRAM chips are
    vulnerable" — the later TRRespass work showed why: TRR-class
    mitigations track only a few aggressors.  We model a future scaled
    node (very low thresholds, so diluted per-pair pressure still
    flips cells) and sweep the number of simultaneous aggressor pairs
    against a small-sampler TRR.
    """
    from dataclasses import replace

    base = scaled_scenario(scale=20.0)
    # Future node: thresholds ~5x lower still, denser weak cells.
    profile = replace(
        base.profile,
        hc_first_min=base.profile.hc_first_min / 5.0,
        hc_first_median=base.profile.hc_first_median / 5.0,
        weak_cell_density=min(1.0, base.profile.weak_cell_density * 2),
    )
    scenario = replace(base, profile=profile)
    window_acts = scenario.attack_budget
    out = []
    for n_pairs in n_pairs_list:
        module = scenario.make_module(serial=f"trrespass-{n_pairs}", seed=seed)
        system = MemorySystem(
            module,
            mitigation="trr",
            mitigation_kwargs={"tracker_entries": tracker_entries, "refresh_period_acts": 512},
        )
        # n_pairs double-sided pairs, victims spaced well apart; total
        # activations fixed at one window, split evenly.
        aggressors = []
        for i in range(n_pairs):
            victim = 500 + 40 * i
            aggressors.extend([victim - 1, victim + 1])
        iterations = max(1, window_acts // len(aggressors))
        before = module.total_flips()
        system.controller.run_activation_pattern(0, aggressors, iterations)
        system.controller.finish()
        out.append(
            {
                "n_pairs": n_pairs,
                "flips": module.total_flips() - before,
                "targeted_refreshes": system.mitigation.targeted_refreshes,
                "per_victim_pressure": 2 * iterations,
            }
        )
    return out
