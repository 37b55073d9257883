"""C3 — §II-C: refresh-rate scaling, the deployed immediate mitigation.

"Our paper shows that the refresh rate needs to be increased by 7X if
we want to eliminate all RowHammer-induced errors we saw in our tests"
— plus the energy/performance price the paper warns about.
"""

from repro.experiments import refresh_multiplier_sweep


def test_bench_c3_refresh(table):
    result = refresh_multiplier_sweep()
    rows = [
        [
            f"{row['multiplier']:.0f}x",
            row["errors"],
            f"{row['errors_per_billion']:.3g}",
            row["budget"],
            f"{100 * row['bandwidth_overhead']:.1f}%",
            f"{row['refresh_energy_factor']:.0f}x",
        ]
        for row in result["rows"]
    ]
    print()
    print(table(
        ["refresh", "errors", "errs/1e9", "attack budget", "bw overhead", "refresh energy"],
        rows,
        title="C3 — errors and cost vs refresh multiplier (B-2013 module)",
    ))
    print(f"exact elimination multiplier: {result['exact_elimination_multiplier']:.2f} (paper: 7x)")

    by_k = {row["multiplier"]: row["errors"] for row in result["rows"]}
    errors = [row["errors"] for row in result["rows"]]
    assert errors == sorted(errors, reverse=True)
    assert by_k[1.0] > 1e6                       # unprotected: millions of flips
    assert by_k[7.0] < by_k[1.0] / 1000          # 7x: >1000-fold reduction
    assert by_k[8.0] == 0                        # first integral multiplier to eliminate
    assert 6.5 < result["exact_elimination_multiplier"] < 7.5


def test_bench_c3_refresh_burden(table):
    """The context for "refresh is already a significant burden": its
    energy/bandwidth share grows steeply with device density, which is
    why 7x refresh is a painful mitigation."""
    from repro.analysis import refresh_burden_vs_density

    rows = refresh_burden_vs_density()
    print()
    print(table(
        ["rows per bank", "refresh energy share", "bandwidth overhead"],
        [[r["rows"], f"{100 * r['refresh_energy_share']:.1f}%",
          f"{100 * r['bandwidth_overhead']:.1f}%"] for r in rows],
        title="C3 — refresh burden vs device density (1x refresh!)",
    ))
    shares = [r["refresh_energy_share"] for r in rows]
    assert shares == sorted(shares)
    assert shares[-1] > 0.5  # dense parts: refresh dominates energy
