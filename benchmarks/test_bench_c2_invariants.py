"""C2 — §II-A: reads and writes both violate memory isolation.

"(i) a read access should not modify data at any address and (ii) a
write access should modify data only at the address that it is
supposed to write to ... all of which occur in rows other than the one
that is being accessed."
"""

from repro.experiments import isolation_violations


def test_bench_c2_invariants(table):
    result = isolation_violations(seed=0, reads=2_600_000)
    read_report = result["read"]
    write_report = result["write"]

    print()
    print(table(
        ["access type", "self corrupted", "other rows corrupted", "bits flipped"],
        [
            ["read loop", read_report.accessed_row_changed,
             len(read_report.corrupted_rows), read_report.total_corrupted_bits],
            ["write loop", write_report.accessed_row_changed,
             len(write_report.corrupted_rows), write_report.total_corrupted_bits],
        ],
        title="C2 — memory-isolation invariant violations",
    ))

    # Both access types induce errors; never in the accessed row itself.
    assert result["read_violated"] and result["write_violated"]
    assert result["read_self_clean"] and result["write_self_clean"]
    assert all(abs(r - read_report.accessed_row) <= 2 for r in read_report.corrupted_rows)
