"""F1/C1 — Figure 1: RowHammer error rates vs manufacture date.

Regenerates the paper's only figure: errors per 10^9 cells for 129
modules from manufacturers A/B/C dated 2008-2014, plus the §II
aggregate claims (110/129 vulnerable, earliest vulnerable part 2010,
every 2012-2013 part vulnerable).
"""

from repro.experiments import fig1_error_rates


def test_bench_f1_error_rates(table):
    result = fig1_error_rates(seed=0)

    rows = []
    years = range(2008, 2015)
    for mfr in ("A", "B", "C"):
        yearly = result["yearly_mean_rate"][mfr]
        rows.append([mfr] + [f"{yearly.get(y, 0.0):.3g}" for y in years])
    print()
    print(table([" "] + [str(y) for y in years], rows,
                title="Figure 1 — mean errors per 10^9 cells by manufacture year"))
    print(f"modules vulnerable: {result['modules_vulnerable']}/{result['modules_tested']}"
          f" (paper: 110/129)")
    print(f"earliest vulnerable: {result['earliest_vulnerable_date']} (paper: 2010)")
    print(f"all 2012-2013 vulnerable: {result['all_2012_2013_vulnerable']} (paper: True)")
    print(f"peak rates: " + ", ".join(f"{m}={result['peak_rate'][m]:.3g}" for m in "ABC"))

    # Shape claims.
    assert result["modules_vulnerable"] == 110
    assert 2010.0 <= result["earliest_vulnerable_date"] < 2011.0
    assert result["all_2012_2013_vulnerable"]
    assert result["peak_rate"]["B"] > result["peak_rate"]["A"] > result["peak_rate"]["C"]
    assert 1e5 < result["peak_rate"]["B"] < 5e6  # figure's top decade
    for mfr in "ABC":
        yearly = result["yearly_mean_rate"][mfr]
        assert yearly[2008] == 0.0 and yearly[2009] == 0.0
        assert yearly[2013] > yearly[2011]
