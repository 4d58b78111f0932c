"""Benchmark-side tracing: wrap public functions of the program, record a
span per call, and restore every wrapped attribute afterwards.

Nothing in the program is edited.  A function is patched in every loaded
module that holds it — ``repro.sim.vec.engine`` imports
``predict_trace_batch`` by name, so patching only ``repro.core.batch``
would miss the production caller.  Methods are patched on their class.
Spans are recorded for the installing thread only; other threads (the
serve event loop) pass through untraced.

A layer's self time is its spans' duration minus the time covered by
nested traced calls, so the self times of all layers plus the time no
span covers add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class LayerStats:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs wrappers (``patch_function`` / ``patch_method``) and
    aggregates per-layer call counts, busy time and self time.

    Use as a context manager, or call :meth:`remove` — wrappers must
    never outlive the traced pass."""

    def __init__(self) -> None:
        self.layers = {}            # layer -> LayerStats
        self.seen = {}              # layer -> set of observed keys
        self.counts = {}            # name -> count observed by hooks
        self._stack = []            # child time of each open span
        self._patches = []          # (owner, attribute, original)
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------

    def _wrap(self, layer: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = tracer._stack.pop()
                stats = tracer.layers.setdefault(layer, LayerStats())
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - children
                if tracer._stack:
                    tracer._stack[-1] += duration
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__e2ebench_original__ = fn
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note(self, layer: str, key) -> None:
        """Record ``key`` as seen by ``layer`` (for useful ratios)."""
        self.seen.setdefault(layer, set()).add(key)

    # -- installation --------------------------------------------------

    def patch_function(self, module, name: str, layer: str,
                       observe=None) -> None:
        """Wrap ``module.name`` in every loaded module that holds the
        same function object under that name."""
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, observe)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def patch_method(self, cls, name: str, layer: str,
                     observe=None) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrap(layer, original, observe))

    def remove(self) -> None:
        """Restore every patched attribute, newest first, then sweep the
        loaded modules for a wrapper a late ``from x import y`` copied."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                original = getattr(value, "__e2ebench_original__", None)
                if original is not None and callable(value):
                    setattr(mod, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -------------------------------------------------------

    def stat(self, layer: str) -> LayerStats:
        return self.layers.get(layer, LayerStats())

    def self_total(self) -> float:
        return sum(s.self_s for s in self.layers.values())

    def span_count(self) -> int:
        return sum(s.calls for s in self.layers.values())


def is_wrapped(value) -> bool:
    return hasattr(value, "__e2ebench_original__")
