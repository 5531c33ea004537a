"""Per-layer call counts and self times, by wrapping public engine functions.

``install`` replaces each listed function with a counting wrapper in every
``limitstab`` module namespace that holds it: ``crossing`` and ``walls`` keep
their own ``from .geometry import degree`` bindings, and wrapping only
``geometry.degree`` would miss their calls.  Self time is kept on the fly
with a stack of child-time accumulators, so memory stays bounded however
many calls are made.  A listed name the engine does not define is reported
as absent.

``TableCache`` is swapped for a subclass that adds the entries of every
dictionary it holds to ``memo_entries`` when the cache is freed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from typing import Dict, List, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("degree", "effective_below", "min_ch3", "decompositions"),
    "walls": (
        "_wall_degrees", "wall_set", "chambers", "is_wall", "next_wall_above",
        "mu_threshold", "pt_bounds",
    ),
    "crossing": (
        "chamber_table", "cross_wall", "l_at_wall", "invariant_value",
        "enumerate_wall_data", "pt_symmetry_check",
    ),
    "comparator": ("compare_phases", "compare_phases_closed", "cross_polynomial"),
    "charge": ("twisted_invariants", "charge_polynomial", "slope"),
    "poly": ("mul", "sub", "sign_at_infinity"),
    "modelio": ("parse_model", "load_model"),
    "cli": ("main",),
    "verify": ("run_verification",),
}
MEMO = "crossing.memo_entries"


def _engine_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "limitstab" or name.startswith("limitstab.")
    ]


class Tracer:
    def __init__(self):
        keys = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
        self.calls = dict.fromkeys(keys, 0)
        self.self_s = dict.fromkeys(keys, 0.0)
        self.memo_entries = 0
        self.absent: List[str] = []
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[key] += 1
                self_s[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for module in _engine_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _count_memo(self, state: dict) -> None:
        self.memo_entries += sum(len(v) for v in state.values() if isinstance(v, dict))

    def install(self) -> None:
        for mod_name, fns in LAYERS.items():
            try:
                module = importlib.import_module(f"limitstab.{mod_name}")
            except ImportError:
                self.absent += [f"{mod_name}.{fn}" for fn in fns]
                continue
            for fn in fns:
                original = getattr(module, fn, None)
                if callable(original):
                    self._rebind(original, self._wrap(f"{mod_name}.{fn}", original))
                else:
                    self.absent.append(f"{mod_name}.{fn}")
        cache_cls = getattr(sys.modules.get("limitstab.crossing"), "TableCache", None)
        if not isinstance(cache_cls, type):
            self.absent.append(MEMO)
            return
        tracer = self

        class CountedCache(cache_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                weakref.finalize(self, tracer._count_memo, vars(self))

        self._rebind(cache_cls, CountedCache)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
