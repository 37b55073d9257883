"""The three simulator workloads: inputs from a seed, sessions of ops.

A *session* is one workload's fixed work on fresh simulator objects.
An *op* is one call into ``repro``'s public API that issues a bounded
unit of that work: a chunk of per-command hammer iterations, a slice of
a trace, one command stream, one module scan.  Each op is timed on its
own (the ``rt_*`` percentiles), the session as a whole (``wall_s``).

Library functions are called through their module attribute
(``campaign.whole_module_errors``), never through a name bound at
import, so the traced pass can wrap them from ``tracer.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.attacks import privilege
from repro.controller.controller import MemoryController
from repro.core.scenarios import full_scale_scenario, scaled_scenario
from repro.core.system import MemorySystem
from repro.cpu import CpuMemorySystem, SetAssociativeCache
from repro.dram.stream import CommandStream
from repro.ecc.hamming import SECDED_72_64
from repro.ecc.parity import ParityCode
from repro.ecc.symbol import SYMBOL_72_64
from repro.fieldstudy import campaign, population
from repro.mitigations import ecc_eval
from repro.softmc.interpreter import SoftMcInterpreter
from repro.softmc.program import hammer_program
from repro.workloads.generators import mixed_with_attacker, random_access

Op = Callable[[], Any]

#: ``percmd_hammer`` and ``mixed_trace`` run on the scaled scenario the
#: controller-path experiments use (``mitigation_comparison``,
#: ``trr_bypass_study``, ``raidr_rowhammer_interaction``,
#: ``userlevel_attack_study``): time and thresholds scaled by 20,
#: weak-cell density as profiled.
SCALE = 20.0

#: Hammer iterations per aggressor set on the per-command path.  12 × 1024
#: iterations of a pair, 38% of the experiments' half-window, put 24576
#: activations on the victim, past the scaled profile's 8250 threshold
#: floor: every pinned session flips cells (see ``pins.json``), so the
#: digest covers the flip path.
HAMMER_ITERS = 12 * 1024
#: Iterations one op issues.  Chunks of 512 keep the few chunks that
#: carry a mitigation's bursts of extra refreshes under a tenth of the
#: ops, so the 90th-percentile op is a plain chunk.
HAMMER_CHUNK = 512


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def flip_log_digest(modules) -> str:
    """Digest of every bank's flip log, provenance included."""
    h = hashlib.sha256()
    for module in modules:
        for bank in module.banks:
            h.update(repr(bank.stats.flip_log).encode())
            h.update(b"|")
    return h.hexdigest()[:16]


class Item:
    """One simulated system inside a session and its sim.* counts."""

    def __init__(self, label: str, modules, clock: Callable[[], float] = lambda: 0.0,
                 refreshes: Callable[[], int] = lambda: 0,
                 extra: Callable[[], Any] = lambda: None):
        self.label = label
        self.modules = list(modules)
        self.clock = clock
        self.refreshes = refreshes
        self.extra = extra

    def digest(self) -> Dict[str, Any]:
        return {
            "item": self.label,
            "acts": sum(m.total_activations() for m in self.modules),
            "flips": sum(m.total_flips() for m in self.modules),
            "time_ns": float(self.clock()),
            "mitigation_refreshes": int(self.refreshes()),
            "flip_log": flip_log_digest(self.modules),
            "extra": _sha(self.extra()),
        }


class Session:
    """One pass of a workload's fixed work.

    Items run one after another; :meth:`begin` digests the finished item
    and drops it, so a session holds one item's simulator objects at a
    time and its peak memory does not grow with the number of items.
    """

    def __init__(self) -> None:
        self.items: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self.current: Optional[Item] = None

    def begin(self, item: Item) -> None:
        self.close()
        self.current = item

    def close(self) -> None:
        if self.current is not None:
            self.items.append(self.current.digest())
            self.current = None

    def digest(self) -> Dict[str, Any]:
        self.close()
        items = self.items
        return {
            "sim.acts": sum(d["acts"] for d in items),
            "sim.flips": sum(d["flips"] for d in items),
            "sim.time_ns": round(sum(d["time_ns"] for d in items), 3),
            "sim.mitigation_refreshes": sum(d["mitigation_refreshes"] for d in items),
            "digest": _sha(json.dumps(items, sort_keys=True)),
        }


def _hammer_chunks(controller: MemoryController, rows, rounds: int,
                   chunk: int) -> Iterator[Op]:
    """Ops hammering ``rows`` of bank 0 for ``rounds`` pattern rounds."""
    done = 0
    while done < rounds:
        n = min(chunk, rounds - done)
        yield lambda n=n: controller.run_activation_pattern(0, rows, n)
        done += n
    yield controller.finish


# ----------------------------------------------------------------------
# percmd_hammer
# ----------------------------------------------------------------------
class PercmdHammer:
    """Repeating hammer patterns issued one command at a time."""

    name = "percmd_hammer"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.scenario = scaled_scenario(scale=SCALE)
        rows = self.scenario.geometry.rows
        self.victim = rng.randrange(256, rows - 512)
        self.trr_victims = [self.victim + 200 + 40 * i for i in range(4)]
        self.softmc_victim = rng.randrange(256, rows - 512)
        timing = self.scenario.timing
        threshold = max(64, int(self.scenario.profile.hc_first_min // 4))
        self.configs = [
            ("none", "none", {}, 1.0),
            ("refresh x8", "none", {}, 8.0),
            ("para p=0.02", "para", {"p": 0.02, "seed": seed}, 1.0),
            ("cra full", "cra", {"threshold": threshold, "window_ns": timing.tREFW}, 1.0),
            ("anvil", "anvil", {"sample_interval_ns": timing.tREFW / 16,
                                "rate_threshold": threshold // 2}, 1.0),
            ("trr k=4", "trr", {"tracker_entries": 4, "refresh_period_acts": 512}, 1.0),
        ]
        bins = np.zeros(rows, dtype=np.int64)
        bins[self.victim - 5:self.victim + 6] = 2
        self.raidr_bins = bins
        v = self.softmc_victim
        self.program = hammer_program(0, [v - 1, v + 1], HAMMER_ITERS,
                                      victims_to_init=[v], pattern="rowstripe")

    def ops(self, s: Session) -> Iterator[Op]:
        sc = self.scenario
        v = self.victim
        for label, mitigation, kwargs, multiplier in self.configs:
            system = MemorySystem(sc.make_module(serial=f"cmp-{label}", seed=self.seed),
                                  mitigation=mitigation, mitigation_kwargs=kwargs,
                                  refresh_multiplier=multiplier)
            ctrl = system.controller
            s.begin(Item(label, [system.module], lambda c=ctrl: c.time_ns,
                                system.mitigation.extra_refresh_ops))
            yield from _hammer_chunks(ctrl, [v - 1, v + 1], HAMMER_ITERS, HAMMER_CHUNK)

        module = sc.make_module(serial="raidr", seed=self.seed)
        ctrl = MemoryController(module, refresh_row_bins=self.raidr_bins)
        s.begin(Item("raidr-bin2", [module], lambda c=ctrl: c.time_ns))
        yield from _hammer_chunks(ctrl, [v - 1, v + 1], HAMMER_ITERS, HAMMER_CHUNK)

        system = MemorySystem(sc.make_module(serial="trr-many", seed=self.seed),
                              mitigation="trr",
                              mitigation_kwargs={"tracker_entries": 2, "refresh_period_acts": 512})
        aggressors = [r for victim in self.trr_victims for r in (victim - 1, victim + 1)]
        rounds = HAMMER_ITERS * 2 // len(aggressors)
        ctrl = system.controller
        s.begin(Item("trr-many-sided", [system.module], lambda c=ctrl: c.time_ns,
                            system.mitigation.extra_refresh_ops,
                            lambda m=system.mitigation: m.targeted_refreshes))
        yield from _hammer_chunks(ctrl, aggressors, rounds,
                                  HAMMER_CHUNK * 2 // len(aggressors))

        module = sc.make_module(serial="softmc", seed=self.seed)
        interpreter = SoftMcInterpreter(module)
        out: Dict[str, Any] = {}
        s.begin(Item("softmc", [module], lambda: out["result"].cycles_ns,
                            extra=lambda: (out["result"].mismatches, out["result"].commands)))
        yield lambda: out.__setitem__("result", interpreter.run(self.program))
        s.counts["softmc.instructions"] = sum(out["result"].commands.values())


# ----------------------------------------------------------------------
# mixed_trace
# ----------------------------------------------------------------------
TRACE_BENIGN = 1000
#: Rows the benign stream spreads over, per bank: a working set with
#: reuse, so row payloads stay small and slices cost alike.
TRACE_ROWS = 128
TRACE_CHUNK = 32
#: The CPU attacks run this share of one refresh window each; the
#: experiment runs a whole window per strategy, four times the work at
#: the same cost per access.
CPU_WINDOW_SHARE = 0.25
FLUSH_CHUNK = 256
EVICT_CHUNK = 32


class MixedTrace:
    """Scattered per-command traffic with row data, and a CPU cache."""

    name = "mixed_trace"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.scenario = scaled_scenario(scale=SCALE)
        geometry = self.scenario.geometry
        victim = rng.randrange(256, geometry.rows - 512)
        benign = random_access(TRACE_BENIGN, banks=geometry.banks, rows=TRACE_ROWS, seed=seed)
        self.trace = mixed_with_attacker(benign, 0, [victim - 1, victim + 1],
                                         attacker_share=0.5, seed=seed)
        timing = self.scenario.timing
        threshold = max(64, int(self.scenario.profile.hc_first_min // 4))
        self.configs = [
            ("anvil", {"sample_interval_ns": timing.tREFW / 16,
                       "rate_threshold": threshold // 2}),
            ("para", {"p": 0.02, "seed": seed}),
        ]
        self.cpu_victim = rng.randrange(256, geometry.rows - 512)

    def ops(self, s: Session) -> Iterator[Op]:
        sc = self.scenario
        for mitigation, kwargs in self.configs:
            system = MemorySystem(sc.make_module(serial=f"mix-{mitigation}", seed=self.seed),
                                  mitigation=mitigation, mitigation_kwargs=kwargs)
            ctrl = system.controller
            s.begin(Item(f"trace-{mitigation}", [system.module],
                                lambda c=ctrl: c.time_ns, system.mitigation.extra_refresh_ops))
            for start in range(0, len(self.trace), TRACE_CHUNK):
                yield lambda c=ctrl, t=self.trace[start:start + TRACE_CHUNK]: c.run_trace(t)
            yield ctrl.finish

        window = sc.timing.tREFW * CPU_WINDOW_SHARE
        v = self.cpu_victim
        caches = []
        for strategy, chunk in (("flush", FLUSH_CHUNK), ("eviction", EVICT_CHUNK)):
            module = sc.make_module(serial=f"cpu-{strategy}", seed=self.seed)
            cache = SetAssociativeCache(size_bytes=1 << 20, ways=8)
            cpu = CpuMemorySystem(module, cache=cache)
            caches.append(cache)
            runs: List[Any] = []
            s.begin(Item(f"cpu-{strategy}", [module], lambda c=cpu: c.time_ns,
                                extra=lambda r=runs, c=cache: (r, c.hits, c.misses)))
            hammer = getattr(cpu, f"{strategy}_hammer")
            while cpu.time_ns < window:
                yield lambda h=hammer, c=cpu, r=runs, n=chunk: r.append(
                    h(0, [v - 1, v + 1], n, time_budget_ns=window - c.time_ns))
        hits = sum(c.hits for c in caches)
        s.counts["cpu.cache.hit_ratio"] = hits / max(1, hits + sum(c.misses for c in caches))


# ----------------------------------------------------------------------
# device_batch
# ----------------------------------------------------------------------
DPD_PATTERNS = ("rowstripe", "checkered", "random", "solid1", "colstripe")
SWEEP_VICTIMS = 200
SWEEP_REF_EVERY = 25
FIELD_SCAN_VICTIMS = 8
ECC_VICTIMS = 100
SCAN_ROWS = 500
# One op per module test, and one each for the ECC study, the template
# scan and the exploit odds: the ops beyond the module tests stay under
# 8 of 137, so the median and the 90th-percentile op are both module
# tests, not the edge between module tests and the larger ops.


class DeviceBatch:
    """Batched device path: streams, module scans, ECC and templating."""

    name = "device_batch"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.scenario = full_scale_scenario("B", 2013.0)
        pressure = self.scenario.attack_budget // 2
        first = rng.randrange(64, 4096)
        stream = CommandStream()
        for i in range(SWEEP_VICTIMS):
            victim = first + 3 * i
            stream.act(victim - 1, pressure).act(victim + 1, pressure)
            if (i + 1) % SWEEP_REF_EVERY == 0:
                stream.ref_all()
        self.stream = stream.settle()
        self.field_specs = population.build_population()
        first_field = rng.randrange(64, 8192)
        self.field_victims = [first_field + 3 * i for i in range(FIELD_SCAN_VICTIMS)]
        self.ecc_scenario = full_scale_scenario("B", 2013.2)
        self.ecc_start = rng.randrange(64, 8192)
        self.scan_start = rng.randrange(64, 8192)
        self.codes = (("parity", ParityCode(64)), ("secded(72,64)", SECDED_72_64),
                      ("symbol(80,64)", SYMBOL_72_64))

    def ops(self, s: Session) -> Iterator[Op]:
        seed = self.seed
        for pattern in DPD_PATTERNS:
            module = self.scenario.make_module(serial="dpd", seed=seed, default_pattern=pattern)
            s.begin(Item(f"sweep-{pattern}", [module]))
            yield lambda b=module.bank(0): b.execute(self.stream)

        results: List[Any] = []
        s.begin(Item("field-population", [], extra=lambda: results))

        def test_module(spec) -> None:
            module = population.instantiate(spec, seed=seed)
            whole = campaign.whole_module_errors(module)
            scan = campaign.scan_module_rows(module, 0, self.field_victims)
            results.append((whole.serial, whole.errors, scan.errors,
                            module.total_activations(), flip_log_digest([module])))

        for spec in self.field_specs:
            yield lambda spec=spec: test_module(spec)

        ecc_module = self.ecc_scenario.make_module(serial="ecc", seed=seed)
        ecc: Dict[str, Any] = {}
        s.begin(Item("ecc", [ecc_module], extra=lambda: (
            sorted(ecc["histogram"].items()),
            [(e.code_name, sorted((k.value, v) for k, v in e.evaluation.outcomes.items()))
             for e in ecc["ladder"]])))
        budget = self.ecc_scenario.attack_budget

        def ecc_study() -> None:
            ecc["histogram"] = ecc_eval.flip_histogram_from_hammer(
                ecc_module, bank=0, victim_count=ECC_VICTIMS, pressure=budget,
                start_row=self.ecc_start)
            ecc["ladder"] = ecc_eval.evaluate_ladder(ecc["histogram"], codes=self.codes,
                                                     seed=seed)

        yield ecc_study

        gallery = self.ecc_scenario.make_module(serial="gallery", seed=seed)
        templates: List[Any] = []
        odds: Dict[str, Any] = {}
        s.begin(Item("attack-gallery", [gallery], extra=lambda: (
            len(templates), sorted(odds.items()))))
        yield lambda: templates.extend(privilege.scan_templates(
            gallery, 0, range(self.scan_start, self.scan_start + SCAN_ROWS), budget))

        def exploit_odds() -> None:
            odds["pte_spray"] = privilege.pte_spray_success_probability(
                templates, spray_fraction=0.35, seed=seed)
            odds["ffs"] = len(privilege.flip_feng_shui_templates(templates))
            odds["drammer"] = privilege.drammer_success_probability(
                templates, total_rows=SCAN_ROWS, chunk_rows=256, seed=seed)
            odds["javascript"] = privilege.javascript_success_probability(
                templates, total_rows=SCAN_ROWS, aggressor_attempts=200, seed=seed)

        yield exploit_odds
        s.counts["attacks.templates"] = len(templates)


SIM_WORKLOADS = {w.name: w for w in (PercmdHammer, MixedTrace, DeviceBatch)}
