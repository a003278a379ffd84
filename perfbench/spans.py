"""Spans around calls into the ulamdist modules, recorded from outside.

``Tracer.install`` replaces each public function of the six layer modules
with a wrapper that records a span per call, and rebinds every module-level
name bound to that function, because modules import names directly (for
example ``injections.rsk`` next to ``tableaux.rsk``).  The ``__post_init__``
validation of ``Tableau`` and ``LatticePath`` is wrapped as
``tableaux.Tableau.new`` and ``paths.LatticePath.new``.

A call that returns an iterator gets its iterator wrapped too: every item it
yields is a span of the same name, counted under ``items``.  The private
candidate generator ``census._permutations_of`` is only counted, not timed,
so that the sweep loop it feeds is not slowed by a span per permutation.

Spans are aggregated per (function, caller) as they close, caller being the
innermost open span, so memory stays bounded however long the run is.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
from time import perf_counter

LAYERS = ("permutations", "tableaux", "paths", "injections", "census", "cli")
ROOT = "<root>"
COUNTED_SOURCES = (("census", "_permutations_of"),)
VALIDATORS = (("tableaux", "Tableau"), ("paths", "LatticePath"))


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.child_time = [0.0]
        # (name, caller) -> [calls, items, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = {}

    def reset(self) -> None:
        self.stats = {}

    def records(self) -> list[dict]:
        return [
            {"name": name, "caller": caller, "calls": r[0], "items": r[1],
             "total_s": r[2], "self_s": r[3]}
            for (name, caller), r in sorted(self.stats.items())
        ]

    def _record(self, name: str, caller: str) -> list:
        key = (name, caller)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0, 0.0, 0.0]
        return rec

    def _wrap_iterator(self, name: str, it):
        names, child_time = self.names, self.child_time
        while True:
            caller = names[-1]
            names.append(name)
            child_time.append(0.0)
            start = perf_counter()
            try:
                item = next(it)
                done = False
            except StopIteration:
                done = True
            finally:
                dur = perf_counter() - start
                names.pop()
                own = dur - child_time.pop()
                child_time[-1] += dur
                rec = self._record(name, caller)
                rec[2] += dur
                rec[3] += own
            if done:
                return
            rec[1] += 1
            yield item

    def wrap(self, name: str, fn):
        names, child_time = self.names, self.child_time

        def traced(*args, **kwargs):
            caller = names[-1]
            names.append(name)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                names.pop()
                own = dur - child_time.pop()
                child_time[-1] += dur
                rec = self._record(name, caller)
                rec[0] += 1
                rec[2] += dur
                rec[3] += own
            if hasattr(result, "__next__") and iter(result) is result:
                return self._wrap_iterator(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        names = self.names

        def counted(*args, **kwargs):
            rec = self._record(name, names[-1])
            rec[0] += 1
            for item in fn(*args, **kwargs):
                rec[1] += 1
                yield item

        return counted

    def install(self, package) -> None:
        """Wrap the layer modules of an imported ``ulamdist`` package."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replace = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    replace[value] = self.wrap(f"{layer}.{attr}", value)
        for layer, attr in COUNTED_SOURCES:
            fn = getattr(getattr(package, layer), attr, None)
            if fn is not None:
                replace[fn] = self.count(f"{layer}.{attr}", fn)
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(module, attr, replace[value])
        for layer, cls_name in VALIDATORS:
            cls = getattr(getattr(package, layer), cls_name)
            cls.__post_init__ = self.wrap(f"{layer}.{cls_name}.new", cls.__post_init__)
