"""Exploitation models: turning bit flips into system compromise (§II-B).

The paper lists four demonstrated attack classes built on RowHammer:

* **kernel privilege escalation** from user level (Google Project Zero
  [89, 90]) — spray physical memory with page-table pages, hammer, and
  hope a flip lands in the PFN field of an attacker-readable PTE so it
  points into attacker-controlled memory;
* **remote JavaScript** takeover [33] — same flip physics, with the
  aggressor-selection constraint that the attacker has no physical
  address knowledge (modeled as random aggressor choice);
* **VM-on-VM / Flip Feng Shui** [86] — memory deduplication gives the
  attacker *deterministic placement* of a victim page onto a
  previously templated flip location;
* **Drammer on mobile** [98] — no permissions, but aggressor choice is
  restricted to physically *contiguous* allocations.

We model each as a success-probability computation over the module's
**flip templates** — the deterministic weak-cell map the fault model
exposes — which is faithful to how the real attacks operate (they all
begin with a templating scan).  A scan is held in columns
(:class:`FlipTemplates`) and every estimate is array work over them;
any other sequence of :class:`FlipTemplate` is converted first.

**Why the lazy PTE-spray estimate is exact.**  A trial draws
``sprayed = random(n) < f`` and then ``redirect = random(n) < f`` from
one PCG64 stream and succeeds iff some ``i`` has both.  At the spray
fractions the experiments use, the first :data:`SPRAY_PREFIX` indices
almost always already hold a hit, and a hit there decides the trial
whatever the rest holds.  So a trial draws ``sprayed[:k]``, skips the
``n - k`` doubles of ``sprayed[k:]`` with ``bit_generator.advance``,
draws ``redirect[:k]`` and, on a hit, skips ``redirect[k:]`` the same
way; the stream then stands exactly where the full draw leaves it.
Only on a miss is the saved state restored and both full arrays drawn.
This relies on ``random()`` consuming one 64-bit output per double and
on the ``pte-spray`` generator drawing doubles and nothing else:
``advance`` discards PCG64's buffered 32-bit half, and no such half is
ever pending on this stream.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from repro.dram.module import DramModule
from repro.utils.rng import derive_rng
from repro.utils.validation import check_probability

#: x86-64 PTE physical-frame-number field: bits 12..51 of the 64-bit entry.
PFN_BIT_RANGE = (12, 52)

#: Per-trial prefix the lazy PTE-spray estimate draws before skipping.
SPRAY_PREFIX = 64


class FlipTemplate(NamedTuple):
    """One repeatable flip location discovered by a templating scan.

    Attributes:
        bank, row, bit: physical flip location (bit is the row-bit index).
        direction: ``"1to0"`` (true cell) or ``"0to1"`` (anti cell).
        hc_first: activation threshold of the underlying weak cell.
    """

    bank: int
    row: int
    bit: int
    direction: str
    hc_first: float

    @property
    def word_bit_offset(self) -> int:
        """Offset within the containing 64-bit word."""
        return self.bit % 64


#: ``direction`` by ``anti``, and a C-level :class:`FlipTemplate` builder
#: from a field tuple (no Python frame per template).
_DIRECTIONS = ("1to0", "0to1")
_make_template = partial(tuple.__new__, FlipTemplate)


class FlipTemplates(Sequence[FlipTemplate]):
    """A templating scan in columns: one array per :class:`FlipTemplate`
    field, with ``anti`` (True for ``"0to1"``) in place of ``direction``.

    Indexing and iteration yield :class:`FlipTemplate` tuples, so the
    result reads as the list of templates it stands for.
    """

    __slots__ = ("bank", "row", "bit", "anti", "hc_first")

    def __init__(self, bank, row, bit, anti, hc_first) -> None:
        self.bank = np.asarray(bank, dtype=np.int64)
        self.row = np.asarray(row, dtype=np.int64)
        self.bit = np.asarray(bit, dtype=np.int64)
        self.anti = np.asarray(anti, dtype=bool)
        self.hc_first = np.asarray(hc_first, dtype=np.float64)

    @classmethod
    def of(cls, templates: Sequence[FlipTemplate]) -> "FlipTemplates":
        """``templates`` in columns: a :class:`FlipTemplates` as it is,
        any other sequence converted one column at a time (C-level
        iterators, no per-template Python frame or temporary tuple)."""
        if isinstance(templates, cls):
            return templates

        count = len(templates)
        bank, row, bit, hc_first = (
            np.fromiter(map(attrgetter(name), templates), dtype=dtype, count=count)
            for name, dtype in (("bank", np.int64), ("row", np.int64), ("bit", np.int64),
                                ("hc_first", np.float64))
        )
        anti = np.fromiter(map("0to1".__eq__, map(attrgetter("direction"), templates)),
                           dtype=bool, count=count)
        return cls(bank, row, bit, anti, hc_first)

    def select(self, mask: np.ndarray) -> "FlipTemplates":
        """The templates where ``mask`` (a boolean array or slice) holds."""
        return FlipTemplates(self.bank[mask], self.row[mask], self.bit[mask],
                             self.anti[mask], self.hc_first[mask])

    def __len__(self) -> int:
        return len(self.bit)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return self.select(index)
        return FlipTemplate(int(self.bank[index]), int(self.row[index]), int(self.bit[index]),
                            _DIRECTIONS[bool(self.anti[index])], float(self.hc_first[index]))

    def __iter__(self) -> Iterator[FlipTemplate]:
        directions = map(_DIRECTIONS.__getitem__, self.anti.tolist())
        fields = zip(self.bank.tolist(), self.row.tolist(), self.bit.tolist(),
                     directions, self.hc_first.tolist())
        return map(_make_template, fields)


def scan_templates(
    module: DramModule,
    bank: int,
    rows: Sequence[int],
    pressure: float,
) -> FlipTemplates:
    """Templating scan: every weak cell reachable at ``pressure``.

    Uses the device fault map directly (a real scan hammers each victim
    with adversarial patterns, revealing precisely this set).
    """
    model = module.model
    hit_rows, counts, bits, hc_first, anti = [], [], [], [], []
    for row in rows:
        cells = model.weak_cells(bank, row)
        if not len(cells):
            continue
        reachable = cells.hc_first <= pressure
        hit_rows.append(row)
        counts.append(int(np.count_nonzero(reachable)))
        bits.append(cells.bits[reachable])
        hc_first.append(cells.hc_first[reachable])
        anti.append(cells.anti[reachable])
    if not hit_rows:
        return FlipTemplates.of([])
    row_column = np.repeat(np.asarray(hit_rows, dtype=np.int64), counts)
    return FlipTemplates(
        np.full(len(row_column), bank), row_column, np.concatenate(bits),
        np.concatenate(anti), np.concatenate(hc_first),
    )


# ----------------------------------------------------------------------
# Attack 1: PTE spray (kernel privilege escalation)
# ----------------------------------------------------------------------
def pte_spray_success_probability(
    templates: Sequence[FlipTemplate],
    spray_fraction: float,
    trials: int = 2000,
    seed: int = 0,
) -> float:
    """Monte-Carlo success probability of the Project-Zero-style attack.

    Each trial: every templated victim row independently hosts
    attacker page-table pages with probability ``spray_fraction``
    (spray coverage of physical memory); a flip whose bit offset falls
    in the PTE's PFN field redirects that PTE to a random frame, which
    is attacker-controlled again with probability ``spray_fraction``.
    The attack succeeds if any template fires usefully.  Trials are
    drawn lazily (module docstring), with the same result and the same
    generator stream as drawing every trial in full.
    """
    check_probability("spray_fraction", spray_fraction)
    columns = FlipTemplates.of(templates)
    if not len(columns):
        return 0.0
    rng = derive_rng(seed, "pte-spray")
    lo, hi = PFN_BIT_RANGE
    offset = columns.bit % 64
    n = int(np.count_nonzero((offset >= lo) & (offset < hi)))
    if not n:
        return 0.0
    bit_generator = rng.bit_generator
    k = min(n, SPRAY_PREFIX)
    successes = 0
    for _ in range(trials):
        state = bit_generator.state
        sprayed = rng.random(k) < spray_fraction
        bit_generator.advance(n - k)
        if np.any(sprayed & (rng.random(k) < spray_fraction)):
            bit_generator.advance(n - k)
            successes += 1
            continue
        bit_generator.state = state
        sprayed = rng.random(n) < spray_fraction
        redirect_ok = rng.random(n) < spray_fraction
        if np.any(sprayed & redirect_ok):
            successes += 1
    return successes / trials


# ----------------------------------------------------------------------
# Attack 2: Flip Feng Shui (deterministic placement via dedup)
# ----------------------------------------------------------------------
def flip_feng_shui_templates(templates: Sequence[FlipTemplate]) -> FlipTemplates:
    """Templates usable by Flip Feng Shui: those that flip a byte in the
    region of a page where the target cryptographic material (e.g. an
    RSA modulus in an authorized_keys page) resides — modeled as the
    second quarter of the 4 KiB page, any direction.

    With memory deduplication the attacker chooses where the victim
    page lands, so the attack succeeds deterministically iff this is
    non-empty.
    """
    columns = FlipTemplates.of(templates)
    byte_in_page = (columns.bit // 8) % 4096
    return columns.select((byte_in_page >= 1024) & (byte_in_page < 2048))


# ----------------------------------------------------------------------
# Attack 3: Drammer (contiguity-constrained mobile attack)
# ----------------------------------------------------------------------
def drammer_success_probability(
    templates: Sequence[FlipTemplate],
    total_rows: int,
    chunk_rows: int,
    trials: int = 2000,
    seed: int = 0,
) -> float:
    """Success probability when the attacker controls one random
    physically contiguous chunk of ``chunk_rows`` rows.

    A template is reachable if its victim row and both neighbors lie
    inside the chunk (double-sided hammering needs both aggressors).
    All trials' chunk starts come from one sized draw, which yields the
    same values as one draw per trial.
    """
    columns = FlipTemplates.of(templates)
    if chunk_rows < 3 or not len(columns):
        return 0.0
    rng = derive_rng(seed, "drammer")
    victim_rows = np.unique(columns.row)
    max_start = max(1, total_rows - chunk_rows)
    starts = rng.integers(0, max_start, size=trials)
    # A victim in [start + 1, start + chunk_rows - 1) has both neighbors inside.
    first_inside = np.searchsorted(victim_rows, starts + 1)
    first_past = np.searchsorted(victim_rows, starts + chunk_rows - 1)
    return int(np.count_nonzero(first_inside < first_past)) / trials


# ----------------------------------------------------------------------
# Attack 4: remote JavaScript (no address knowledge)
# ----------------------------------------------------------------------
def javascript_success_probability(
    templates: Sequence[FlipTemplate],
    total_rows: int,
    aggressor_attempts: int,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Success probability when aggressor rows are chosen blindly.

    The JavaScript attacker cannot resolve physical addresses, so each
    attempt hammers a random row pair; an attempt pays off if it
    brackets a templated victim.  All trials' picks come from one sized
    draw, which yields the same values as one draw per trial.
    """
    columns = FlipTemplates.of(templates)
    if not len(columns):
        return 0.0
    rng = derive_rng(seed, "js")
    picks = rng.integers(1, total_rows - 1, size=(trials, aggressor_attempts))
    # Lookup table over the victim rows; picks past the last victim
    # land on its final, always-False slot.
    is_victim = np.zeros(int(columns.row.max()) + 2, dtype=bool)
    is_victim[columns.row] = True
    hits = is_victim[np.minimum(picks, len(is_victim) - 1, out=picks)].any(axis=1)
    return int(np.count_nonzero(hits)) / trials
