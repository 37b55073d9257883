"""CPU-side memory system: cache in front of the DRAM module.

Loads that miss the cache become row activations at the device (via
the address mapping), which is exactly the attacker-visible interface
of §II-A: a user program controls only virtual loads and (optionally)
CLFLUSH, yet can drive the activation stream underneath.

The three canonical strategies:

* ``naive_hammer`` — plain loads: the cache absorbs them, nothing
  reaches DRAM (the reason caches were once thought to prevent this);
* ``flush_hammer`` — the released test program's CLFLUSH loop: every
  load misses, the maximum hammer rate;
* ``eviction_hammer`` — no flush instruction (JavaScript [33]): each
  target load is followed by an eviction-set walk, so only a fraction
  of issued loads hammer the target and the within-window activation
  budget shrinks accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.cache import SetAssociativeCache, build_eviction_set
from repro.dram.mapping import AddressMapping
from repro.dram.module import DramModule

#: A loop-body step: ``(address, flush)``, a load or a CLFLUSH.
Step = Tuple[int, bool]

#: Time a CLFLUSH costs.
CLFLUSH_NS = 3.0

#: Most steps one steady-state block covers (bounds its arrays).
_BLOCK_STEPS = 1 << 16


@dataclass
class HammerRunStats:
    """Outcome of a user-level hammer run.

    Attributes:
        loads: CPU loads issued.
        dram_activations: activations that reached the device (any row).
        target_activations: activations of the *aggressor* rows.
        flips: disturbance flips materialized by the run.
        elapsed_ns: simulated time.
    """

    loads: int
    dram_activations: int
    target_activations: int
    flips: int
    elapsed_ns: float

    @property
    def activation_efficiency(self) -> float:
        """Fraction of issued loads that hammered a target row."""
        return self.target_activations / self.loads if self.loads else 0.0

    def target_rate_per_us(self) -> float:
        """Aggressor activations per microsecond of simulated time."""
        return self.target_activations / (self.elapsed_ns / 1000.0) if self.elapsed_ns else 0.0

    def activations_per_window(self, tREFW_ns: float) -> float:
        """Aggressor activations achievable inside one refresh window."""
        return self.target_rate_per_us() * tREFW_ns / 1000.0


class CpuMemorySystem:
    """A cache + DRAM module driven by virtual loads.

    Args:
        module: the DRAM device.
        cache: the last-level cache in front of it.
        mapping: physical-address decomposition.
        hit_ns: latency charged per cache hit.
    """

    def __init__(
        self,
        module: DramModule,
        cache: Optional[SetAssociativeCache] = None,
        mapping: Optional[AddressMapping] = None,
        hit_ns: float = 1.2,
    ) -> None:
        self.module = module
        self.cache = cache if cache is not None else SetAssociativeCache()
        self.mapping = mapping if mapping is not None else AddressMapping(module.geometry)
        self.hit_ns = hit_ns
        self.time_ns = 0.0
        self.dram_accesses = 0

    # ------------------------------------------------------------------
    def load(self, address: int) -> bool:
        """One CPU load; returns True if it reached DRAM (cache miss)."""
        if self.cache.access(address):
            self.time_ns += self.hit_ns
            return False
        coord = self.mapping.decode(address)
        self.module.activate(coord.bank, coord.row, self.time_ns)
        self.module.precharge(coord.bank)
        self.time_ns += self.module.timing.tRC
        self.dram_accesses += 1
        return True

    def clflush(self, address: int) -> None:
        """Flush one line (costs a few ns)."""
        self.cache.flush(address)
        self.time_ns += CLFLUSH_NS

    def row_address(self, bank: int, row: int) -> int:
        """Physical address of a (bank, row) — attacker address arithmetic."""
        return self.mapping.row_address(bank, row)

    # ------------------------------------------------------------------
    # The §II-A attack programs
    # ------------------------------------------------------------------
    def _run(
        self,
        steps: Sequence[Step],
        target_steps: Sequence[int],
        iterations: int,
        time_budget_ns: Optional[float],
    ) -> HammerRunStats:
        """Run ``iterations`` rounds of the loop body ``steps``, stopping
        after the first round that ends ``time_budget_ns`` or more after
        the start, then settle the module.  A miss at one of
        ``target_steps`` is a target activation.

        Equivalent to issuing every step through :meth:`load` and
        :meth:`clflush`, which the first rounds do: until the LRU state
        of the sets the body touches is the same at two consecutive
        round boundaries.  From there every round repeats the last one
        exactly, and :meth:`_repeat` runs the rest in blocks.  Every
        address is decoded and validated before the first load.
        """
        cache = self.cache
        loads_before_run = cache.hits + cache.misses
        start_time = self.time_ns
        start_acts = self.dram_accesses
        before_flips = self.module.total_flips()
        located = [None if flush else self._locate(address) for address, flush in steps]
        touched = sorted({cache.set_index(address) for address, _flush in steps})
        state = cache.lru_state(touched)
        target_acts = 0
        done = 0
        while steps and done < iterations:
            before = (cache.hits, cache.misses, cache.evictions)
            missed = []
            for address, flush in steps:
                if flush:
                    self.clflush(address)
                missed.append(not flush and self.load(address))
            round_targets = sum(missed[i] for i in target_steps)
            target_acts += round_targets
            done += 1
            if time_budget_ns is not None and self.time_ns - start_time >= time_budget_ns:
                break
            previous, state = state, cache.lru_state(touched)
            if state == previous:
                rounds = self._repeat(steps, located, missed, iterations - done, start_time, time_budget_ns)
                cache.hits += (cache.hits - before[0]) * rounds
                cache.misses += (cache.misses - before[1]) * rounds
                cache.evictions += (cache.evictions - before[2]) * rounds
                self.dram_accesses += sum(missed) * rounds
                target_acts += round_targets * rounds
                break
        self.module.settle(self.time_ns)
        return HammerRunStats(
            loads=cache.hits + cache.misses - loads_before_run,
            dram_activations=self.dram_accesses - start_acts,
            target_activations=target_acts,
            flips=self.module.total_flips() - before_flips,
            elapsed_ns=self.time_ns - start_time,
        )

    def _locate(self, address: int) -> Tuple[int, int]:
        """The (bank, physical row) a load of ``address`` activates on a
        miss; raises as :meth:`load` would."""
        coord = self.mapping.decode(address)
        self.module.geometry.check_bank(coord.bank)
        return coord.bank, self.module.remapper.to_physical(coord.row)

    def _repeat(
        self,
        steps: Sequence[Step],
        located: Sequence[Optional[Tuple[int, int]]],
        missed: Sequence[bool],
        rounds: int,
        start_time: float,
        time_budget_ns: Optional[float],
    ) -> int:
        """Run up to ``rounds`` more rounds that each repeat the round
        just run (``missed``: which steps missed) at the DRAM and the
        clock; return how many ran before the budget cut.

        Blocks of at most :data:`_BLOCK_STEPS` steps: a cumulative sum
        from ``time_ns`` (sequential, the same ``+=`` chain as the
        per-load path) gives every activation's time and every round's
        end, and each bank gets one ``activate_run`` and one precharge.
        The caller adds the cache and activation counters.
        """
        n = len(steps)
        tRC = self.module.timing.tRC
        step_ns = np.array([
            CLFLUSH_NS if flush else tRC if miss else self.hit_ns
            for (_address, flush), miss in zip(steps, missed)
        ])
        by_bank: Dict[int, Tuple[List[int], List[int]]] = {}
        for i, miss in enumerate(missed):
            if miss:
                bank, row = located[i]
                offsets, rows = by_bank.setdefault(bank, ([], []))
                offsets.append(i)
                rows.append(row)
        per_block = max(1, _BLOCK_STEPS // n)
        done = 0
        while done < rounds:
            m = min(rounds - done, per_block)
            times = np.cumsum(np.concatenate(([self.time_ns], np.tile(step_ns, m))))
            ends = times[n::n]
            cut = False
            if time_budget_ns is not None:
                over = np.flatnonzero(ends - start_time >= time_budget_ns)
                if len(over):
                    m = int(over[0]) + 1
                    cut = True
            for bank, (offsets, rows) in by_bank.items():
                at = (np.arange(m)[:, None] * n + offsets).ravel()
                self.module.bank(bank).activate_run(rows * m, times[at].tolist())
                self.module.precharge(bank)
            self.time_ns = float(ends[m - 1])
            done += m
            if cut:
                break
        return done

    def flush_hammer(
        self, bank: int, rows: Sequence[int], iterations: int, time_budget_ns: Optional[float] = None
    ) -> HammerRunStats:
        """The CLFLUSH hammer loop of the released test program:
        ``loop { mov (X); mov (Y); clflush (X); clflush (Y); }``."""
        addresses = [self.row_address(bank, row) for row in rows]
        steps = [(address, False) for address in addresses] + [(address, True) for address in addresses]
        return self._run(steps, range(len(addresses)), iterations, time_budget_ns)

    def naive_hammer(
        self, bank: int, rows: Sequence[int], iterations: int, time_budget_ns: Optional[float] = None
    ) -> HammerRunStats:
        """The same loop without CLFLUSH: the cache absorbs everything
        after the first touch — no hammering, the §II-A control case."""
        addresses = [self.row_address(bank, row) for row in rows]
        steps = [(address, False) for address in addresses]
        return self._run(steps, range(len(addresses)), iterations, time_budget_ns)

    def eviction_hammer(
        self,
        bank: int,
        rows: Sequence[int],
        iterations: int,
        eviction_region_rows: Sequence[int] = (),
        time_budget_ns: Optional[float] = None,
    ) -> HammerRunStats:
        """Flush-free (JavaScript-style) hammering: after each target
        load, walk an eviction set congruent with the target line.

        Only the target loads count as hammering; the eviction walk
        consumes most of the loop's time, cutting the within-window
        activation budget — the engineering constraint [33] works under.
        The eviction region (by default 128 rows' worth of addresses
        from 64 rows past the highest aggressor) is clipped to the end
        of memory, so a region that runs out raises ``ValueError``
        before anything runs.
        """
        targets = [self.row_address(bank, row) for row in rows]
        region_rows = list(eviction_region_rows) or [max(rows) + 64 + i for i in range(128)]
        region_base = self.row_address(bank, region_rows[0])
        region_bytes = min(
            self.module.geometry.row_bytes * len(region_rows), self.mapping.capacity_bytes - region_base
        )
        steps: List[Step] = []
        target_steps = []
        for target in targets:
            target_steps.append(len(steps))
            ev_set = build_eviction_set(self.cache, target, region_base, region_bytes)
            steps += [(address, False) for address in [target, *ev_set]]
        return self._run(steps, target_steps, iterations, time_budget_ns)
