"""Layer attribution for the traced pass, from the benchmark's own files.

``Tracer.install()`` replaces the public methods of each layer's
classes (and the public functions of each layer's modules) with
wrappers that open and close a span named ``<layer>:<Qualified.name>``
on a :class:`stats.SpanRecorder`; ``uninstall()`` puts the originals
back.  Nothing inside ``repro`` changes.  Spans are aggregated per call
path in memory while the pass runs (a per-call span list would hold
millions of entries) and rendered at the end with ``repro``'s own span
tree and folded-stack renderers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from typing import Dict, List, Tuple

from stats import SpanRecorder

#: (layer, module, class names or None for the module's functions,
#:  method names or None for every public one).
TARGETS: List[Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]] = [
    ("controller", "repro.controller.controller", ("MemoryController",), ()),
    ("controller.refresh", "repro.controller.refresh", ("RefreshEngine",), ()),
    ("mitigations", "repro.controller.hooks", ("NullMitigation",), ("on_activate",)),
    ("mitigations", "repro.mitigations.para", ("Para",), ("on_activate",)),
    ("mitigations", "repro.mitigations.cra", ("CounterBasedMitigation",), ("on_activate",)),
    ("mitigations", "repro.mitigations.anvil", ("AnvilMitigation",), ("on_activate",)),
    ("mitigations", "repro.mitigations.trr", ("TrrMitigation",), ("on_activate",)),
    ("cpu", "repro.cpu.system", ("CpuMemorySystem",), ()),
    ("cpu", "repro.cpu.cache", ("SetAssociativeCache",), ()),
    ("softmc", "repro.softmc.interpreter", ("SoftMcInterpreter",), ()),
    ("dram.module", "repro.dram.module", ("DramModule",), ()),
    ("dram.bank", "repro.dram.bank", ("DramBank",), ()),
    ("dram.bank", "repro.dram.columnar", ("ColumnarDramBank",), ()),
    ("dram.disturbance", "repro.dram.disturbance", ("DisturbanceModel",), ()),
    ("ecc", "repro.ecc.parity", ("ParityCode",), ("encode", "decode")),
    ("ecc", "repro.ecc.hamming", ("HammingSecded",), ("encode", "decode")),
    ("ecc", "repro.ecc.symbol", ("SingleSymbolCorrectingCode",), ("encode", "decode")),
    ("ecc", "repro.mitigations.ecc_eval", (), ()),
    ("fieldstudy", "repro.fieldstudy.campaign", (), ()),
    ("fieldstudy", "repro.fieldstudy.population", (), ()),
    ("attacks", "repro.attacks.privilege", (), ()),
]

#: Every layer the per-layer metrics report, in stack order.
LAYERS = ("controller", "controller.refresh", "mitigations", "cpu", "softmc",
          "dram.module", "dram.bank", "dram.disturbance", "ecc", "fieldstudy",
          "attacks")

#: The root span each session runs under; its self time is the
#: benchmark's own code plus anything no layer wraps.
ROOT = "bench:session"


def _public(namespace: Dict[str, object], names: Tuple[str, ...]):
    for attr, value in list(namespace.items()):
        if names and attr not in names:
            continue
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        yield attr, value


class Tracer:
    """Installs span wrappers on every layer in :data:`TARGETS`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, fn, name: str) -> None:
        push, pop = self.recorder.push, self.recorder.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for layer, module_name, classes, methods in TARGETS:
            module = importlib.import_module(module_name)
            if not classes:
                for attr, fn in _public(vars(module), methods):
                    if fn.__module__ == module_name:  # skip re-exported imports
                        self._wrap(module, attr, fn, f"{layer}:{attr}")
                continue
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for attr, fn in _public(vars(cls), methods):
                    self._wrap(cls, attr, fn, f"{layer}:{cls_name}.{attr}")
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def attribute(recorder: SpanRecorder) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self seconds and per-span-name call counts."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for name, (count, seconds) in recorder.by_name().items():
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + seconds
        calls[name] = calls.get(name, 0) + count
    return self_s, calls


def calls_matching(calls: Dict[str, int], layer: str, *methods: str) -> int:
    """Calls to ``<layer>:<Class>.<method>`` for any class and listed method."""
    total = 0
    for name, count in calls.items():
        span_layer, _, qual = name.partition(":")
        if span_layer == layer and (not methods or qual.rsplit(".", 1)[-1] in methods):
            total += count
    return total
