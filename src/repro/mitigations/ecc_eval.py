"""ECC as a RowHammer mitigation: the §II-C SECDED (in)sufficiency study.

Hammers a module, gathers the per-64-bit-word flip-count histogram of
the induced errors, and scores a ladder of codes (none / parity /
SECDED / single-symbol) against it.  The paper's claim C4 is that the
histogram has mass at >= 2 flips per word, which SECDED cannot correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.dram.module import DramModule
from repro.dram.stream import CommandStream
from repro.ecc.accounting import EccEvaluation, evaluate_code_against_histogram, flips_per_word
from repro.utils.rng import derive_rng


def flip_histogram_from_hammer(
    module: DramModule,
    bank: int,
    victim_count: int,
    pressure: float,
    start_row: int = 64,
    word_bits: int = 64,
) -> Dict[int, int]:
    """Hammer ``victim_count`` disjoint victims; histogram flips per word.

    One stream carries every pair with its per-pair settle (the settle
    barriers keep the per-victim materialization points identical to
    the old per-pair loop); flips are attributed afterwards by their
    globally unique ``row * row_bits + bit`` key, which offsets each
    victim's bits so words of different rows don't merge.
    """
    stream = CommandStream()
    for i in range(victim_count):
        low = start_row + 3 * i
        stream.act(low, int(pressure)).act(low + 2, int(pressure)).settle()
    dev_bank = module.bank(bank)
    before = len(dev_bank.stats.flip_log)
    dev_bank.execute(stream)
    row_bits = module.geometry.row_bits
    all_bits = [row * row_bits + bit
                for row, bit, *_prov in dev_bank.stats.flip_log[before:]]
    return flips_per_word(all_bits, word_bits)


@dataclass
class EccLadderEntry:
    """One code's score against a flip histogram."""

    code_name: str
    overhead_fraction: float
    evaluation: EccEvaluation


def evaluate_ladder(
    histogram: Dict[int, int],
    codes: Sequence[tuple],
    seed: int = 0,
    trials_per_class: int = 300,
) -> List[EccLadderEntry]:
    """Score (name, code) pairs against one flip histogram."""
    out = []
    for name, code in codes:
        rng = derive_rng(seed, "ecc-eval", name)
        evaluation = evaluate_code_against_histogram(code, histogram, rng, trials_per_class)
        out.append(
            EccLadderEntry(
                code_name=name,
                overhead_fraction=code.overhead_fraction,
                evaluation=evaluation,
            )
        )
    return out


def multi_flip_word_fraction(histogram: Dict[int, int]) -> float:
    """Fraction of erroneous words with >= 2 flips (the SECDED killer)."""
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    multi = sum(count for flips, count in histogram.items() if flips >= 2)
    return multi / total
