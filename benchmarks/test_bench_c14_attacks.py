"""C14 — §II-B: the attack gallery.

Success probability of each demonstrated attack class (kernel PTE
spray, Flip Feng Shui, Drammer, JavaScript) as module vulnerability
grows with vintage — the paper's point that the same circuit fault
powers a whole family of compromises.
"""

from repro.experiments import attack_gallery, pte_exploit_chain


def test_bench_c14_concrete_exploit(table):
    """The Project-Zero chain executed at the data level (no probability
    model) on the unscaled module: spray real PTE pages into rows,
    hammer, decode, win."""
    outcome = pte_exploit_chain(full_scale=True, frames=768, seed=1)
    print()
    print(table(
        ["stage", "result"],
        [
            ["page-table frames sprayed", outcome.sprayed_frames],
            ["PTEs corrupted by hammering", len(outcome.corrupted_ptes)],
            ["PTEs retargeted to attacker page tables", len(outcome.exploitable_ptes)],
            ["kernel compromise", outcome.success],
        ],
        title="C14 — the Project-Zero chain, end to end at the data level",
    ))
    assert len(outcome.corrupted_ptes) > 0
    assert outcome.success


def test_bench_c14_attacks(table):
    rows = attack_gallery()
    print()
    print(table(
        ["vintage", "templates", "PTE spray", "Flip Feng Shui", "Drammer", "JavaScript"],
        [
            [r["date"], r["templates"], f"{r['pte_spray']:.3f}",
             f"usable={r['ffs_usable_templates']}", f"{r['drammer']:.3f}", f"{r['javascript']:.3f}"]
            for r in rows
        ],
        title="C14 — attack success probability vs module vintage",
    ))

    templates = [r["templates"] for r in rows]
    assert templates == sorted(templates)  # vulnerability grows with vintage
    newest = rows[-1]
    assert newest["pte_spray"] > 0.9
    assert newest["flip_feng_shui"]
    assert newest["drammer"] > 0.9
    oldest = rows[0]
    assert oldest["pte_spray"] < newest["pte_spray"]
