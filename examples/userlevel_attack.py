"""From user-space loads to kernel compromise — §II-A/§II-B end to end.

Run:  python examples/userlevel_attack.py

Part 1: what a user program can do through a real cache — plain loads
(absorbed), the released CLFLUSH test loop (full hammer rate), and the
flush-free JavaScript strategy (eviction sets, rate penalty).

Part 2: the Project-Zero exploit chain executed concretely: page-table
pages sprayed into physical frames, one refresh window of double-sided
hammering, and the corrupted PTEs decoded — the ones that now point at
attacker-owned page tables are the kernel compromise.
"""

from repro.analysis import format_table
from repro.experiments import pte_exploit_chain, userlevel_attack_study


def main() -> None:
    print("Part 1 — hammer strategies behind an 8-way LLC (one refresh window each):")
    study = userlevel_attack_study(seed=0)
    rows = study["rows"] + [dict(study["eviction_on_weak_module"], strategy="eviction (weaker part)")]
    print(format_table(
        ["strategy", "loads issued", "aggressor acts", "efficiency", "flips"],
        [[r["strategy"], r["loads"], r["target_activations"],
          f"{100 * r['efficiency']:.1f}%", r["flips"]] for r in rows],
    ))
    print("  - plain loads never reach DRAM after the first touch;")
    print("  - CLFLUSH achieves the full activation budget;")
    print("  - eviction sets pay ~9x in rate, succeeding only on weaker parts.\n")

    print("Part 2 — the concrete kernel exploit (2013-class module):")
    outcome = pte_exploit_chain(frames=768, full_scale=True, seed=1)
    print(format_table(
        ["stage", "result"],
        [
            ["page-table frames sprayed", outcome.sprayed_frames],
            ["PTEs corrupted by hammering", len(outcome.corrupted_ptes)],
            ["PTEs now mapping attacker page tables", len(outcome.exploitable_ptes)],
            ["kernel compromise", "YES" if outcome.success else "no"],
        ],
    ))
    if outcome.exploitable_ptes:
        frame, index = outcome.exploitable_ptes[0]
        print(f"\nexample: sprayed frame {frame}, PTE {index} flipped to point at an")
        print("attacker-owned page table — the attacker can now forge any mapping.")


if __name__ == "__main__":
    main()
