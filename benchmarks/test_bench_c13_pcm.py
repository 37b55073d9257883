"""C13 — §III: emerging-memory endurance as a security problem.

A malicious pinned-write workload exhausts an unprotected PCM line's
endurance almost immediately; Start-Gap wear leveling (the paper's
citation [82]) spreads the damage and restores near-ideal lifetime.
"""

from repro.experiments import pcm_study


def test_bench_c13_pcm(table):
    result = pcm_study(seed=0)
    print()
    print(table(
        ["configuration", "attacker writes survived"],
        [
            ["no wear leveling", f"{result['bare_lifetime_writes']:.3g}"],
            ["start-gap", f"{result['startgap_lifetime_writes']:.3g}"],
            ["start-gap + randomization", f"{result['startgap_rand_lifetime_writes']:.3g}"],
        ],
        title="C13 — PCM lifetime under a pinned-write wear attack",
    ))
    print(f"improvement: {result['improvement_factor']:.1f}x")
    assert result["improvement_factor"] > 10
