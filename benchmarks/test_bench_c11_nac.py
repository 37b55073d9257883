"""C11 — §III-B: cell-to-cell variation enables probabilistic recovery.

Read-disturb susceptibility variation allows estimating original
values after disturb-induced errors; Neighbor-Cell Assisted Correction
corrects interference errors using the neighboring page's values.
"""

from repro.flash import FlashBlock, MLC_1XNM, program_block_shadow
from repro.flash.mitigations import correct_wordline, read_disturb_recovery


def recovery_experiments(seed=0):
    rd_block = FlashBlock(wordlines=8, cells=2048, seed=seed)
    rd_block.set_pe_cycles(8_000)
    program_block_shadow(rd_block, seed=seed)
    rd_block.apply_read_disturb(150_000)
    rd = [read_disturb_recovery(rd_block, wl, seed=seed) for wl in range(1, 7)]

    nac_block = FlashBlock(wordlines=8, cells=4096, params=MLC_1XNM, seed=seed + 1)
    nac_block.set_pe_cycles(15_000)
    program_block_shadow(nac_block, seed=seed + 1)
    nac = [correct_wordline(nac_block, wl, seed=seed + 1) for wl in range(1, 6)]
    return rd, nac


def test_bench_c11_nac(table):
    rd, nac = recovery_experiments()

    def totals(outcomes):
        return sum(o.errors_before for o in outcomes), sum(o.errors_after for o in outcomes)

    rd_before, rd_after = totals(rd)
    nac_before, nac_after = totals(nac)
    print()
    print(table(
        ["mechanism", "errors before", "errors after", "reduction"],
        [
            ["read-disturb recovery (150K reads)", rd_before, rd_after,
             f"{100 * (1 - rd_after / rd_before):.1f}%"],
            ["NAC (1X-nm, 15K cycles)", nac_before, nac_after,
             f"{100 * (1 - nac_after / nac_before):.1f}%"],
        ],
        title="C11 — variation-based recovery mechanisms",
    ))

    assert rd_after < rd_before
    assert nac_after < nac_before
