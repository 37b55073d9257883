"""C4 — §II-C: SECDED ECC is not enough.

"simple SECDED ECC ... is not enough to prevent all RowHammer errors,
as some cache blocks experience two or more bit flips".
"""

from repro.experiments import ecc_study
from repro.ecc import DecodeStatus, SECDED_72_64, campaign


def test_bench_c4_ecc(table):
    result = ecc_study(victims=400, seed=0)

    print()
    print(table(
        ["flips per 64-bit word", "words"],
        [[k, v] for k, v in sorted(result["histogram"].items())],
        title="C4 — flip multiplicity of hammer-induced errors",
    ))
    print(f"words with >=2 flips: {100 * result['multi_flip_fraction']:.2f}%")
    print(table(
        ["code", "overhead", "uncorrected", "silent corruptions"],
        [
            [e.code_name, f"{100 * e.overhead_fraction:.1f}%",
             e.evaluation.uncorrected_words, e.evaluation.silent_corruptions]
            for e in result["ladder"]
        ],
        title="C4 — ECC ladder vs the measured flip population",
    ))

    assert any(flips >= 2 for flips in result["histogram"])  # the killer class exists
    secded = next(e for e in result["ladder"] if "secded" in e.code_name)
    assert secded.evaluation.uncorrected_words > 0  # SECDED insufficient
    parity = next(e for e in result["ladder"] if e.code_name == "parity")
    assert secded.evaluation.uncorrected_words < parity.evaluation.uncorrected_words


def test_bench_c4_injection_processes(table):
    """Same raw flip budget, different spatial processes: SECDED was
    provisioned for uniform strikes; RowHammer's clustered flips defeat
    it far more often."""
    results = campaign(SECDED_72_64, 3000, seed=0)
    print()
    print(table(
        ["flip process", "erroneous words", "uncorrected", "silent corruptions"],
        [[name, ev.words_total, ev.uncorrected_words, ev.silent_corruptions]
         for name, ev in results.items()],
        title="C4 — SECDED vs flip spatial process (3000 flips in 1 Mib)",
    ))
    assert results["clustered"].uncorrected_words > results["uniform"].uncorrected_words
