"""C10 — §III-A2: Retention Failure Recovery.

"by identifying which cells are fast-leaking and which cells are
slow-leaking, one can probabilistically estimate the original values"
— and the flip side: the same procedure is a privacy risk on discarded
devices.
"""

from repro.flash import FlashBlock, program_block_shadow
from repro.flash.mitigations import recover_wordline


def rfr_experiment(seed=0, pe=12_000, age_days=365.0, wordlines=8):
    block = FlashBlock(wordlines=wordlines, cells=2048, seed=seed)
    block.set_pe_cycles(pe)
    program_block_shadow(block, seed=seed)
    block.age_retention(age_days)
    return [recover_wordline(block, wl, seed=seed) for wl in range(1, wordlines - 1)]


def test_bench_c10_rfr(table):
    outcomes = rfr_experiment()
    rows = [
        [i + 1, o.errors_before, o.errors_after, f"{100 * o.reduction_fraction:.1f}%"]
        for i, o in enumerate(outcomes)
    ]
    total_before = sum(o.errors_before for o in outcomes)
    total_after = sum(o.errors_after for o in outcomes)
    print()
    print(table(
        ["wordline", "errors before", "errors after RFR", "reduction"],
        rows,
        title="C10 — Retention Failure Recovery on a 1-year-aged, 12K-cycle block",
    ))
    print(f"total: {total_before} -> {total_after} "
          f"({100 * (1 - total_after / total_before):.1f}% reduction)")

    assert total_before > 0
    # "significant reductions in bit error rate" — we require > 40%.
    assert total_after < 0.6 * total_before
