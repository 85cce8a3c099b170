"""Span recording around calls into the calculator's layers.

``Tracer.install`` wraps every public function of each layer module, and
every public method and arithmetic operator of the classes defined there, in
a wrapper that records (name, start, end, parent, op) in memory. Attributes
of other package modules that are bound to a wrapped function (``from
.hseries import c_series`` in ``mmr``, say) are patched too, so the call is
recorded whichever module it goes through. ``Tracer.remove`` puts every
original back.

Constructors and properties are not wrapped: their time counts as self time
of the calling span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "cli", "parsing", "alexander", "laurent", "seifert", "matrices",
    "surgery", "gaussian", "hseries", "wheels", "mmr",
)

#: Arithmetic and comparison dunders that are recorded, under these names.
DUNDERS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow",
    "__eq__": "eq", "__str__": "str",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self._active: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self._active.append(0)
        spans, stack, active, clock = self.spans, self.stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer = active[name_id] == 0
            active[name_id] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name_id] -= 1
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op, outer)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"nabla_lmo.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "nabla_lmo"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            name = DUNDERS.get(attr, None if attr.startswith("_") else attr)
            if name is None:
                continue
            full = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, full)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, full)))
            elif callable(obj) and not isinstance(obj, type):
                self._set(cls, attr, self._wrap(obj, full))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """{name: {calls, self_s, total_s}}; self time is the span's duration
        minus its direct children's, total time counts only spans with no
        enclosing span of the same name."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = {}
        for i, (name_id, t0, t1, _, _, outer) in enumerate(self.spans):
            s = stats.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child[i]
            if outer:
                s["total_s"] += t1 - t0
        return stats

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, op index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps([self.names[name_id], t0, t1, parent, op]) + "\n")
