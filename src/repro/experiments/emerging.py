"""§III/§IV emerging-memory experiments: the PCM wear attacks under
Start-Gap, and STT-MRAM/RRAM scaling trends."""

from __future__ import annotations

from typing import Dict

from repro.experiments.registry import experiment
from repro.pcm.attacks import lifetime_under_mapping_aware_attack
from repro.pcm.startgap import lifetime_under_pinned_attack


# ----------------------------------------------------------------------
# C13: PCM wear attack
# ----------------------------------------------------------------------
@experiment(
    "pcm_study",
    claim="Pinned-write attack collapses PCM lifetime; Start-Gap restores it",
    section="III-C",
    tags=("pcm", "wear", "attacks"),
    aliases=("c13",),
)
def pcm_study(seed: int = 0) -> Dict:
    """Pinned-write attack lifetime without/with Start-Gap leveling."""
    bare = lifetime_under_pinned_attack(leveling=None, seed=seed)
    leveled = lifetime_under_pinned_attack(leveling="startgap", seed=seed)
    randomized = lifetime_under_pinned_attack(leveling="startgap-rand", seed=seed)
    return {
        "bare_lifetime_writes": bare,
        "startgap_lifetime_writes": leveled,
        "startgap_rand_lifetime_writes": randomized,
        "improvement_factor": leveled / bare,
    }


# ----------------------------------------------------------------------
# X3: a mapping-aware wear attack on Start-Gap
# ----------------------------------------------------------------------
@experiment(
    "pcm_mapping_attack",
    claim="An attacker who inverts deterministic Start-Gap wears out one line; secret randomization restores leveling",
    section="IV",
    tags=("pcm", "wear", "attacks"),
    aliases=("x3",),
)
def pcm_mapping_attack(endurance_mean: float = 5_000.0, seed: int = 0) -> Dict:
    """Writes survived when the attacker chases one physical line
    through plain vs randomized Start-Gap (§IV: knowing the
    remapping algorithm turns wear leveling into a wear attack)."""
    return {
        "plain": lifetime_under_mapping_aware_attack(
            endurance_mean=endurance_mean, randomize=False, seed=seed),
        "randomized": lifetime_under_mapping_aware_attack(
            endurance_mean=endurance_mean, randomize=True, seed=seed),
    }


# ----------------------------------------------------------------------
# Extension: emerging memories (§III) — STT-MRAM and RRAM crossbars
# ----------------------------------------------------------------------
@experiment(
    "emerging_memory_study",
    claim="STT-MRAM disturb/retention rise as density grows; RRAM half-select is a RowHammer analogue",
    section="III-C",
    tags=("emerging", "sttmram", "rram"),
    aliases=("emerging",),
)
def emerging_memory_study(seed: int = 0) -> Dict:
    """§III's forward-looking claim, quantified for two technologies.

    STT-MRAM: read-disturb and retention error rates rise together as
    the thermal stability factor shrinks with density.  RRAM: a
    crossbar's half-select stress is a literal RowHammer analogue —
    hammering one address flips cells on the shared row/column lines.
    """
    from repro.emerging import crossbar_hammer_study, scaling_study

    stt = scaling_study(deltas=(70.0, 60.0, 50.0, 40.0), cells=1 << 18, seed=seed)
    rram = crossbar_hammer_study(accesses=(1e5, 1e6, 1e7), rows=128, cols=128, seed=seed)
    return {"stt_scaling": stt, "rram_hammer": rram}
