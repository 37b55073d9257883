"""Differential oracle: columnar engine vs per-command reference.

The columnar engine re-derives the bank semantics as array programs
and deferred activation runs; this harness is the proof obligation
that came with it.  The per-command :class:`~repro.dram.bank.DramBank`
exists only as this oracle: production modules never build it, and
:class:`ReferenceModule` is the module the controller-level oracle
tests run it in.  Two kinds of seeded random input replay through both
engines:

* **command streams** (:func:`run_differential`): a
  :class:`~repro.dram.stream.CommandStream` weighted toward the shapes
  that stress the batched math (double-sided bursts, repeated
  aggressors, distance-2-heavy profiles, interleaved refreshes and
  writes), run through ``execute``;
* **scalar scripts** (:func:`run_script_differential`): one public
  bank call at a time — ``activate``, ``bulk_activate``, ``precharge``,
  ``read``, ``write``, ``refresh_row``, ``refresh_rows``,
  ``refresh_all``, ``settle`` — the calls the controller, CPU and
  SoftMC paths make, with ``stats``, ``pressure()`` and ``row_bits``
  observed mid-script (each a commit point of the columnar engine's
  pending activation run); :func:`random_burst_script` scripts are
  long periodic multi-row hammer bursts with auto-refreshes of far
  rows between them (the columnar engine's per-period replay and
  deferred refreshes).

The resulting observations must agree **exactly** — flip logs,
``BankStats`` counters, sanitizer shadow digests, stored row data,
instantiated-row set, touch order, open row, return values and
mid-script probes.  Per-row pressure/peak and each flip's ``hammer``
are exact for scripts too.  Streams compare those to a float tolerance,
because ``execute``'s prefix-sum windows legitimately reassociate the
reference's per-command additions (ulp-level differences that cannot
move a threshold crossing except on a measure-zero set).

``repro.dram.differential`` is also importable from tests and CI: the
property suite in ``tests/test_differential.py`` runs 100+ seeds of
each kind, and the ``differential`` CI job runs it under
``REPRO_SANITIZE=full`` so the shadow-digest machinery is part of the
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dram.bank import DramBank
from repro.dram.columnar import ColumnarDramBank
from repro.dram.disturbance import DisturbanceModel, VulnerabilityProfile
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.stream import CommandStream
from repro.utils.rng import derive_rng

__all__ = [
    "BANK_CLASSES",
    "DEFAULT_PROFILES",
    "EngineObservation",
    "ReferenceModule",
    "diff_observations",
    "observe",
    "random_burst_script",
    "random_script",
    "random_stream",
    "replay_script",
    "replay_stream",
    "run_differential",
    "run_script_differential",
]

#: Geometry small enough for hundreds of replays, large enough for
#: multi-block weak-cell maps and off-edge hammering.
DEFAULT_GEOMETRY = DramGeometry(banks=1, rows=256, row_bytes=128)

#: Vulnerability profiles the suite cycles through: a mid-density
#: distance-2-free module, a distance-2-heavy one, an aggressor-
#: sensitive-saturated one, and an invulnerable control.
DEFAULT_PROFILES: Tuple[VulnerabilityProfile, ...] = (
    VulnerabilityProfile(
        weak_cell_density=0.05, hc_first_median=4_000.0,
        hc_first_min=800.0, hc_first_sigma=0.5, distance2_weight=0.0),
    VulnerabilityProfile(
        weak_cell_density=0.08, hc_first_median=3_000.0,
        hc_first_min=500.0, hc_first_sigma=0.6, distance2_weight=0.25),
    VulnerabilityProfile(
        weak_cell_density=0.05, hc_first_median=5_000.0,
        hc_first_min=1_000.0, aggressor_sensitive_fraction=0.9,
        dpd_relief=2.0, distance2_weight=0.02),
    VulnerabilityProfile(weak_cell_density=0.0),
)

_PATTERNS = ("solid1", "rowstripe", "checkered", "random")

#: The two bank engines, by their ``engine`` label.
BANK_CLASSES = {cls.engine: cls for cls in (DramBank, ColumnarDramBank)}


class ReferenceModule(DramModule):
    """A :class:`DramModule` whose banks run the reference engine."""

    bank_class = DramBank


@dataclass
class EngineObservation:
    """Everything the equivalence contract compares, from one engine."""

    engine: str
    returned: int
    flip_log: List[tuple]
    stats: Dict[str, int]
    touch_order: List[int]
    pressure: Dict[int, float]
    peak: Dict[int, float]
    last_aggressor: Dict[int, Optional[int]]
    open_row: Optional[int]
    touched_rows: List[int]
    row_data: Dict[int, np.ndarray]
    digests: Dict[int, int] = field(default_factory=dict)
    #: Mid-script observations and return values, in script order.
    probes: List[tuple] = field(default_factory=list)


def random_stream(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    n_commands: int = 60,
    max_count: int = 6_000,
) -> CommandStream:
    """A seeded random command stream biased toward hammering shapes."""
    rng = derive_rng(seed, "diffstream")
    rows = geometry.rows
    stream = CommandStream()
    time = 0.0
    # A few anchor victims so double-sided pressure actually accumulates
    # on the same rows across the stream.
    victims = rng.integers(2, rows - 2, size=4)
    for _ in range(n_commands):
        time += float(rng.integers(1, 50))
        kind = rng.random()
        if kind < 0.45:
            # Double-sided burst on an anchor victim.
            victim = int(victims[rng.integers(len(victims))])
            count = int(rng.integers(1, max_count))
            stream.act(victim - 1, count, time)
            stream.act(victim + 1, count, time)
        elif kind < 0.62:
            # Single aggressor, possibly at the device edge.
            row = int(rng.integers(0, rows))
            stream.act(row, int(rng.integers(1, max_count)), time)
        elif kind < 0.70:
            stream.pre(time)
        elif kind < 0.78:
            stream.ref_row(int(rng.integers(0, rows)), time)
        elif kind < 0.84:
            stream.ref_all(time)
        elif kind < 0.90:
            stream.settle(time)
        elif kind < 0.96:
            bits = rng.integers(0, 2, size=geometry.row_bits).astype(np.uint8)
            stream.write(int(rng.integers(0, rows)), bits, time)
        else:
            stream.read(int(rng.integers(0, rows)), time)
    stream.settle(time + 1.0)
    return stream


def observe(bank: DramBank, returned: int) -> EngineObservation:
    """Snapshot one bank into the comparable observation form."""
    touch_order = bank.disturbed_rows()
    stats = bank.stats
    return EngineObservation(
        engine=bank.engine,
        returned=returned,
        flip_log=list(stats.flip_log),
        stats={
            "activations": stats.activations,
            "refreshes": stats.refreshes,
            "reads": stats.reads,
            "writes": stats.writes,
            "flips_materialized": stats.flips_materialized,
            "flips_dropped": stats.flips_dropped,
            "refresh_epoch": stats.refresh_epoch,
        },
        touch_order=touch_order,
        pressure={row: bank.pressure(row) for row in touch_order},
        peak={row: bank.peak(row) for row in touch_order},
        last_aggressor={row: bank.last_aggressor(row) for row in touch_order},
        open_row=bank.open_row,
        touched_rows=bank.touched_rows(),
        row_data={row: bank.row_bits(row).copy() for row in bank.touched_rows()},
        digests=dict(bank.__dict__.get("_sanit_digest") or {}),
    )


def replay_stream(
    stream: CommandStream,
    engine: str,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: VulnerabilityProfile = DEFAULT_PROFILES[0],
    seed: int = 0,
    pattern: str = "solid1",
) -> EngineObservation:
    """Run ``stream`` on a fresh bank of the ``engine`` label's class
    (a :data:`BANK_CLASSES` key) and observe it."""
    model = DisturbanceModel(geometry, profile, seed)
    bank = BANK_CLASSES[engine](geometry, model, 0, default_pattern=pattern)
    returned = bank.execute(stream)
    return observe(bank, returned)


def diff_observations(
    reference: EngineObservation,
    candidate: EngineObservation,
    float_rtol: float = 1e-9,
    float_atol: float = 1e-6,
) -> List[str]:
    """Compare two observations; return human-readable mismatches."""
    problems: List[str] = []

    def exact(name: str, a, b) -> None:
        if a != b:
            problems.append(f"{name}: reference={a!r} vs candidate={b!r}")

    exact("returned flips", reference.returned, candidate.returned)
    exact("stats", reference.stats, candidate.stats)
    exact("open_row", reference.open_row, candidate.open_row)
    exact("touch_order", reference.touch_order, candidate.touch_order)
    exact("touched_rows", reference.touched_rows, candidate.touched_rows)
    exact("last_aggressor", reference.last_aggressor, candidate.last_aggressor)
    exact("shadow digests", reference.digests, candidate.digests)
    if reference.probes != candidate.probes:
        for i, (a, b) in enumerate(zip(reference.probes, candidate.probes)):
            if a != b:
                problems.append(f"probe {i}: reference={a!r} vs candidate={b!r}")
                break
        else:
            problems.append(f"probes: {len(reference.probes)} vs "
                            f"{len(candidate.probes)} entries")
    # Flip-log entries carry provenance: (row, bit, time, aggressor,
    # hammer, pattern, epoch).  Every field must match exactly except
    # the hammer pressure, which ``execute`` accumulates in a different
    # association order and so may differ by ulps — it gets the same
    # float tolerance as the pressure/peak maps (zero for scripts).
    def entries_match(a: tuple, b: tuple) -> bool:
        if len(a) != len(b):
            return False
        if len(a) >= 7:
            return (a[:4] == b[:4] and a[5:] == b[5:]
                    and bool(np.isclose(a[4], b[4],
                                        rtol=float_rtol, atol=float_atol)))
        return a == b

    if (len(reference.flip_log) != len(candidate.flip_log)
            or not all(entries_match(a, b) for a, b in
                       zip(reference.flip_log, candidate.flip_log))):
        n_ref, n_can = len(reference.flip_log), len(candidate.flip_log)
        detail = f"{n_ref} vs {n_can} entries"
        for i, (a, b) in enumerate(zip(reference.flip_log, candidate.flip_log)):
            if not entries_match(a, b):
                detail += f"; first divergence at {i}: {a} vs {b}"
                break
        problems.append(f"flip_log: {detail}")
    if sorted(reference.row_data) != sorted(candidate.row_data):
        problems.append(
            f"row_data keys: {sorted(reference.row_data)} vs "
            f"{sorted(candidate.row_data)}")
    else:
        for row, bits in reference.row_data.items():
            if not np.array_equal(bits, candidate.row_data[row]):
                diff = int(np.count_nonzero(bits != candidate.row_data[row]))
                problems.append(f"row_data[{row}]: {diff} differing bits")
    for name, ref_map, can_map in (
        ("pressure", reference.pressure, candidate.pressure),
        ("peak", reference.peak, candidate.peak),
    ):
        for row, value in ref_map.items():
            other = can_map.get(row)
            if other is None or not np.isclose(
                    value, other, rtol=float_rtol, atol=float_atol):
                problems.append(
                    f"{name}[{row}]: reference={value!r} vs candidate={other!r}")
    return problems


def run_differential(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: Optional[VulnerabilityProfile] = None,
    pattern: Optional[str] = None,
    n_commands: int = 60,
) -> Dict[str, object]:
    """One oracle round: random stream, both engines, full comparison.

    Profile and pattern default to a seed-derived pick from the
    built-in pools so a plain seed sweep covers the matrix.
    """
    if profile is None:
        profile = DEFAULT_PROFILES[seed % len(DEFAULT_PROFILES)]
    if pattern is None:
        pattern = _PATTERNS[(seed // len(DEFAULT_PROFILES)) % len(_PATTERNS)]
    stream = random_stream(seed, geometry, n_commands=n_commands)
    reference = replay_stream(stream, "reference", geometry, profile, seed, pattern)
    candidate = replay_stream(stream, "columnar", geometry, profile, seed, pattern)
    problems = diff_observations(reference, candidate)
    return {
        "seed": seed,
        "pattern": pattern,
        "profile_density": profile.weak_cell_density,
        "commands": len(stream),
        "flips": reference.stats["flips_materialized"],
        "ok": not problems,
        "mismatches": problems,
    }


def _stats_probe(bank: DramBank) -> tuple:
    stats = bank.stats
    return ("stats", stats.activations, stats.refreshes, stats.reads,
            stats.writes, stats.flips_materialized, stats.refresh_epoch,
            len(stats.flip_log), tuple(stats.flip_log[-1:]))


#: Steps per scalar script, and the longest double-sided burst (in
#: pairs) one step issues: ~9 k calls per script, and bursts on one
#: anchor add up past the profiles' threshold floors between refreshes.
_SCRIPT_STEPS = 60
_SCRIPT_MAX_BURST = 400


def random_script(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
) -> List[tuple]:
    """A seeded random scalar script: ``(call, *args)`` tuples.

    Double-sided scalar hammer bursts on a few anchor victims carry
    most of the activations, so pressure crosses thresholds through
    the per-command path itself; bulk activations, row data traffic,
    every refresh form, settles and mid-script observations (``stats``,
    ``pressure``, ``row_bits``) interleave at random.
    """
    rng = derive_rng(seed, "diffscript")
    rows = geometry.rows
    victims = rng.integers(2, rows - 2, size=4)
    script: List[tuple] = []
    time = 0.0

    def any_row() -> int:
        # Edge rows are over-represented: off-device neighbors are skipped.
        if rng.random() < 0.15:
            return int(rng.choice([0, 1, rows - 2, rows - 1]))
        return int(rng.integers(0, rows))

    for _ in range(_SCRIPT_STEPS):
        time += float(rng.integers(1, 50))
        kind = rng.random()
        if kind < 0.30:
            victim = int(victims[rng.integers(len(victims))])
            close = rng.random() < 0.5
            for _ in range(int(rng.integers(1, _SCRIPT_MAX_BURST))):
                time += 1.0
                script.append(("activate", victim - 1, time))
                if close:
                    script.append(("precharge",))
                script.append(("activate", victim + 1, time))
        elif kind < 0.38:
            script.append(("bulk_activate", any_row(),
                           int(rng.integers(0, 3_000)), time))
        elif kind < 0.46:
            script.append(("activate", any_row(), time))
        elif kind < 0.50:
            script.append(("precharge",))
        elif kind < 0.56:
            script.append(("read", any_row(), time))
        elif kind < 0.62:
            bits = rng.integers(0, 2, size=geometry.row_bits).astype(np.uint8)
            script.append(("write", any_row(), bits, time))
        elif kind < 0.68:
            script.append(("refresh_row", any_row(), time))
        elif kind < 0.72:
            batch = [any_row() for _ in range(int(rng.integers(1, 6)))]
            script.append(("refresh_rows", batch, time))
        elif kind < 0.75:
            script.append(("refresh_all", time))
        elif kind < 0.78:
            script.append(("settle", time))
        elif kind < 0.86:
            script.append(("stats",))
        elif kind < 0.94:
            script.append(("pressure", int(victims[rng.integers(len(victims))])
                           + int(rng.integers(-2, 3))))
        else:
            script.append(("row_bits", any_row()))
    script.append(("stats",))
    return script


#: Bursts per burst script, and the longest burst in activations.
_BURST_STEPS = 12
_BURST_MAX = 3_000


def random_burst_script(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
) -> List[tuple]:
    """A seeded scalar script of long periodic hammer bursts.

    Each burst cycles a period of up to 32 activations of 1-8 rows near
    one anchor (edge rows over-represented; rows repeat within the
    period, so a row sensed once per period can collect a live window)
    for up to ``_BURST_MAX`` activations, issued in segments as ``activate_run``
    calls (the controller's path) or one ``activate`` at a time.
    Between segments come ``refresh_rows`` of rows at least three away
    from the pattern (auto-refresh chunks the columnar engine runs
    without committing), and now and then a refresh inside the
    pattern's reach or a ``pressure``/``stats`` probe.  It draws from
    its own stream, so :func:`random_script`'s scripts stay as they are.
    """
    rng = derive_rng(seed, "diffburst")
    rows = geometry.rows
    script: List[tuple] = []
    time = 0.0
    for _ in range(_BURST_STEPS):
        anchor = (int(rng.choice([0, 1, rows - 2, rows - 1]))
                  if rng.random() < 0.2 else int(rng.integers(0, rows)))
        hammered = np.clip(anchor + rng.integers(-3, 4, size=int(rng.integers(1, 9))),
                           0, rows - 1)
        pattern = rng.choice(hammered, size=int(rng.integers(1, 33))).tolist()
        far = [r for r in range(rows)
               if min(abs(r - p) for p in pattern) >= 3]
        total = int(rng.integers(64, _BURST_MAX))
        done = 0
        while done < total:
            n = min(total - done, int(rng.integers(16, 700)))
            seg_rows = [pattern[(done + i) % len(pattern)] for i in range(n)]
            seg_times = [time + 1.5 * i for i in range(n)]
            time += 1.5 * n
            if rng.random() < 0.7:
                script.append(("activate_run", seg_rows, seg_times))
            else:
                script += [("activate", r, t) for r, t in zip(seg_rows, seg_times)]
            done += n
            kind = rng.random()
            if kind < 0.6 and far:
                batch = rng.choice(far, size=int(rng.integers(1, 4))).tolist()
                script.append(("refresh_rows", batch, time))
            elif kind < 0.7:
                near = int(np.clip(pattern[0] + rng.integers(-2, 3), 0, rows - 1))
                script.append(("refresh_rows", [near], time))
            elif kind < 0.8:
                script.append(("pressure", int(np.clip(
                    anchor + rng.integers(-4, 5), 0, rows - 1))))
            elif kind < 0.85:
                script.append(("stats",))
        if rng.random() < 0.3:
            script.append(("refresh_all", time))
        elif rng.random() < 0.3:
            script.append(("settle", time))
    script.append(("stats",))
    return script


def replay_script(
    script: List[tuple],
    engine: str,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: VulnerabilityProfile = DEFAULT_PROFILES[0],
    seed: int = 0,
    pattern: str = "solid1",
) -> EngineObservation:
    """Run a scalar script on a fresh bank of the given engine.

    Every call's return value and every observation step becomes a
    probe, compared exactly between engines.
    """
    model = DisturbanceModel(geometry, profile, seed)
    bank = BANK_CLASSES[engine](geometry, model, 0, default_pattern=pattern)
    probes: List[tuple] = []
    for call, *args in script:
        if call == "stats":
            probes.append(_stats_probe(bank))
        elif call == "pressure":
            probes.append(("pressure", args[0], bank.pressure(args[0])))
        elif call == "row_bits":
            probes.append(("row_bits", args[0], bank.row_bits(args[0]).tobytes()))
        else:
            result = getattr(bank, call)(*args)
            if isinstance(result, np.ndarray):
                result = result.tobytes()
            if result is not None:
                probes.append((call, result))
    observation = observe(bank, 0)
    observation.probes = probes
    return observation


def run_script_differential(
    seed: int,
    geometry: DramGeometry = DEFAULT_GEOMETRY,
    profile: Optional[VulnerabilityProfile] = None,
    pattern: Optional[str] = None,
    generator: Callable[[int, DramGeometry], List[tuple]] = random_script,
) -> Dict[str, object]:
    """One scalar-script oracle round: both engines, exact comparison
    (pressure, peak and ``hammer`` included), on ``generator``'s
    script for ``seed``."""
    if profile is None:
        profile = DEFAULT_PROFILES[seed % len(DEFAULT_PROFILES)]
    if pattern is None:
        pattern = _PATTERNS[(seed // len(DEFAULT_PROFILES)) % len(_PATTERNS)]
    script = generator(seed, geometry)
    reference = replay_script(script, "reference", geometry, profile, seed, pattern)
    candidate = replay_script(script, "columnar", geometry, profile, seed, pattern)
    problems = diff_observations(reference, candidate,
                                 float_rtol=0.0, float_atol=0.0)
    return {
        "seed": seed,
        "pattern": pattern,
        "profile_density": profile.weak_cell_density,
        "commands": len(script),
        "flips": reference.stats["flips_materialized"],
        "ok": not problems,
        "mismatches": problems,
    }
