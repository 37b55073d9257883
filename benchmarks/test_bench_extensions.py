"""Extension benches: the paper's forward-looking warnings, quantified.

* DDR4-era TRR samplers vs many-sided hammering (§II-B: "even
  state-of-the-art DDR4 DRAM chips are vulnerable");
* test-and-retire bounded by its test budget and spare rows (§II-C);
* WARM write-hotness management for flash retention ([71]);
* deterministic Start-Gap vs a mapping-aware wear attacker (§IV).
"""

from conftest import run_once

from repro.experiments import (
    pcm_mapping_attack,
    raidr_rowhammer_interaction,
    row_retirement,
    trr_bypass_study,
    userlevel_attack_study,
    warm_retention_study,
)


def test_bench_ext_raidr_interaction(benchmark, table):
    """§III-A1's closing warning: a refresh-saving solution can open a
    new RowHammer window."""
    result = run_once(benchmark, raidr_rowhammer_interaction, seed=0)
    print()
    print(table(
        ["refresh policy", "flips after 4-window hammering"],
        [[name, flips] for name, flips in result["flips"].items()],
        title=(
            "Extension — RAIDR bins vs RowHammer "
            f"(threshold floor {result['threshold_floor']:.0f}, "
            f"per-window budget {result['budget_per_window']})"
        ),
    ))
    assert result["flips"]["uniform-64ms"] == 0
    assert result["flips"][f"raidr-bin2"] > 0


def test_bench_ext_userlevel_attack(benchmark, table):
    """§II-A end to end: what a user program can achieve through a cache."""
    result = run_once(benchmark, userlevel_attack_study, seed=0)
    rows = result["rows"] + [dict(result["eviction_on_weak_module"], strategy="eviction (weak module)")]
    print()
    print(table(
        ["strategy", "loads", "aggressor acts/window", "efficiency", "flips"],
        [[r["strategy"], r["loads"], f"{r['acts_per_window']:.0f}",
          f"{100 * r['efficiency']:.1f}%", r["flips"]] for r in rows],
        title="Extension — user-level hammer strategies, one refresh window each",
    ))
    by_name = {r["strategy"]: r for r in result["rows"]}
    assert by_name["naive"]["flips"] == 0                 # caches absorb plain loads
    assert by_name["flush"]["flips"] > 0                  # CLFLUSH loop flips
    assert by_name["eviction"]["target_activations"] < by_name["flush"]["target_activations"] / 3
    assert result["eviction_on_weak_module"]["flips"] > 0  # JS-style works on weaker parts


def test_bench_ext_trr_bypass(benchmark, table):
    rows = run_once(benchmark, trr_bypass_study, n_pairs_list=(1, 2, 4, 8), tracker_entries=2, seed=0)
    print()
    print(table(
        ["aggressor pairs", "per-victim pressure", "targeted refreshes", "flips"],
        [[r["n_pairs"], r["per_victim_pressure"], r["targeted_refreshes"], r["flips"]] for r in rows],
        title="Extension — many-sided hammering vs a 2-entry TRR sampler (future node)",
    ))
    assert rows[0]["flips"] == 0                       # within sampler capacity: safe
    assert any(r["flips"] > 0 for r in rows[1:])       # beyond it: bypassed


def test_bench_ext_row_retirement(benchmark, table):
    """§II-C solutions 4/5: what a test-and-retire campaign leaves behind."""
    rows = run_once(benchmark, row_retirement, seed=0)
    print()
    print(table(
        ["test / field pressure", "rows retired", "spares exhausted",
         "flips left at test pressure", "flips left at field pressure"],
        [[f"{r['test_fraction']:g}", r["retired_rows"], r["spares_exhausted"],
          r["residual_at_test"], r["residual_at_field"]] for r in rows],
        title="Extension — test-and-retire vs a double-sided field attacker",
    ))
    for r in rows:
        if not r["spares_exhausted"]:
            assert r["residual_at_test"] == 0          # the test catches what it reaches
        if r["test_fraction"] < 1.0:
            assert r["residual_at_field"] > 0          # weaker tests leave escapes
    assert rows[-1]["spares_exhausted"]                # a full-strength test runs out of spares
    assert rows[-1]["residual_at_field"] > 0


def test_bench_ext_warm(benchmark, table):
    outcomes = run_once(benchmark, warm_retention_study, seed=0)
    print()
    print(table(
        ["policy", "hot lifetime", "cold lifetime", "device lifetime", "refresh wear"],
        [[o.policy, o.hot_lifetime_pe, o.cold_lifetime_pe, o.device_lifetime_pe,
          f"{100 * o.refresh_wear_fraction:.0f}%"] for o in outcomes.values()],
        title="Extension — WARM write-hotness-aware retention management",
    ))
    assert outcomes["fcr"].device_lifetime_pe > outcomes["baseline"].device_lifetime_pe
    assert outcomes["warm+fcr"].refresh_wear_fraction < outcomes["fcr"].refresh_wear_fraction


def test_bench_ext_fleet(benchmark, table):
    """Fleet-level exposure from the vintage mix (§III field-study context)."""
    from repro.experiments import fleet_study

    result = run_once(benchmark, fleet_study, seed=0, servers=1200)
    print()
    print(table(
        ["refresh patch", "vulnerable fraction", "compromised servers"],
        [[f"{r['multiplier']:g}x", f"{100 * r['vulnerable_fraction']:.1f}%",
          r["compromised_servers"]] for r in result["patch_rollout"]],
        title="Extension — 2014-era fleet exposure vs deployed patch",
    ))
    rollout = result["patch_rollout"]
    assert result["vulnerable_fraction"] > 0.8          # recent-stock fleets are exposed
    assert rollout[-1]["vulnerable_fraction"] < rollout[0]["vulnerable_fraction"] / 2


def test_bench_ext_pcm_chase(benchmark, table):
    result = run_once(benchmark, pcm_mapping_attack, endurance_mean=20_000.0, seed=1)
    print()
    print(table(
        ["start-gap variant", "attacker writes survived"],
        [["deterministic (chaseable)", f"{result['plain']:.3g}"],
         ["with secret randomization", f"{result['randomized']:.3g}"]],
        title="Extension — mapping-aware wear attack on Start-Gap",
    ))
    assert result["randomized"] > 3 * result["plain"]
