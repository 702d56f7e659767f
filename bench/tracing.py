"""Spans around the calls into cdckit's public functions, for traced runs.

The wrappers are installed from the benchmark's side: every module
attribute in cdckit that refers to one of the traced functions is replaced,
so calls through imported names and intra-module calls are both seen.
Spans nest; a span's self time is its duration minus that of the spans it
encloses.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_TRACED = (
    ("registry", "shipped_registry"),
    ("constructions", "run_plan"),
    ("subspaces", "cdc_to_text"),
    ("subspaces", "cdc_from_text"),
    ("subspaces", "verify_min_distance"),
    ("bounds", "optimize_parameters"),
    ("bounds", "reproduce_table"),
)


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._child = [0.0]  # time of finished child spans, per open span

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            self._child[-1] += dt
            self.time[name] += dt
            self.self_time[name] += dt - child
            self.calls[name] += 1

    def install(self):
        import cdckit.cli  # noqa: F401  (loads every module)

        modules = [m for name, m in sys.modules.items()
                   if name == "cdckit" or name.startswith("cdckit.")]
        for mod_name, fn_name in _TRACED:
            orig = getattr(sys.modules[f"cdckit.{mod_name}"], fn_name)
            _replace(modules, orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        enum = sys.modules["cdckit.rankcodes"].enumerate_code
        _replace(modules, enum, self._wrap_enumerate(enum))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            label = name
            if fn.__name__ == "verify_min_distance":
                label += ":" + kwargs.get("mode", args[1] if len(args) > 1 else "exhaustive")
            elif fn.__name__ == "optimize_parameters" and \
                    kwargs.get("target", args[6] if len(args) > 6 else None) is not None:
                label += ":target"
            out = self.call(label, fn, *args, **kwargs)
            if fn.__name__ == "run_plan" and out.cdc is not None:
                self.counts["constructions.words"] += len(out.cdc)
            elif fn.__name__ == "verify_min_distance":
                self.counts[f"subspaces.pairs:{out.mode}"] += out.pairs_checked
            elif fn.__name__ == "reproduce_table":
                self.counts["bounds.table_rows"] += len(out)
            return out
        return traced

    def _wrap_enumerate(self, fn):
        name = "rankcodes.enumerate_code"

        def traced(code, rank_cap=None, streaming=False):
            gen = self.call(name, fn, code, rank_cap, streaming)
            capped = rank_cap is not None
            if capped:
                self.counts["rankcodes.cap_enumerated"] += code.cardinality
            while True:
                try:
                    word = self.call(name, next, gen)
                except StopIteration:
                    return
                self.counts["rankcodes.words"] += 1
                if capped:
                    self.counts["rankcodes.cap_kept"] += 1
                yield word
        return traced

    def report(self):
        return {
            "spans": {name: {"s": self.time[name], "self_s": self.self_time[name],
                             "calls": self.calls[name]} for name in self.time},
            "counts": dict(self.counts),
        }


def _replace(modules, orig, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
