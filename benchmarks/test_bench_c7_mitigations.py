"""C7 — §II-C's seven-countermeasure discussion as one comparison table.

Every mitigation faces the same double-sided attack through the full
command pipeline; the table reports protection, performance overhead,
energy overhead, and dedicated storage — the axes on which the paper
argues PARA dominates.
"""

from repro.analysis import MITIGATION_TABLE_HEADERS, report_rows
from repro.experiments import mitigation_comparison


def test_bench_c7_mitigations(table):
    reports = mitigation_comparison()
    print()
    print(table(
        list(MITIGATION_TABLE_HEADERS),
        report_rows(reports),
        title="C7 — mitigation comparison under double-sided hammering",
    ))

    baseline = reports[0]
    assert baseline.residual_flips > 0
    for report in reports[1:]:
        assert report.eliminates_all

    refresh = next(r for r in reports if r.name.startswith("refresh"))
    para = next(r for r in reports if r.name.startswith("para"))
    cra = next(r for r in reports if r.name.startswith("cra"))
    # The paper's ordering: refresh scaling pays heavily in energy and
    # bandwidth; PARA is cheap and stateless; CRA is cheap at runtime
    # but pays in dedicated storage.
    assert refresh.energy_overhead > 0.5
    assert para.energy_overhead < 0.1 and para.storage_bits == 0
    assert cra.storage_bits > 0
