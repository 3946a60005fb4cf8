"""Span tracer that wraps the library's public functions from outside.

:meth:`Tracer.install` replaces every public function of every ``nshess``
module with a recording wrapper, at each module that binds it (the
package namespace and importing modules included), so calls made through
any import path are seen. It also wraps the cache's ``evaluate``, the
bound-input constructors, and every oracle handed to an
``EvaluationCache``, which is the user's function. Spans are recorded only
inside an op opened with :meth:`Tracer.op`; outside one the wrappers pass
straight through, so the benchmark's own checks leave no trace.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span, or -1 for an op. Spans stay in memory until :meth:`write`.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

OP = "op"
ORACLE = "oracle"
CACHE = "cache.EvaluationCache.evaluate"

# Methods worth a span besides the public module-level functions: the cache
# is the layer under study, the constructors carry the bounds' linear algebra.
_METHODS = (
    ("nshess.cache", "EvaluationCache", ("evaluate", "__call__")),
    ("nshess.bounds", "BoundInputs", ("for_hessian", "for_gradient")),
    ("nshess.calculus", "RuleGeometry", ("from_sets",)),
)


def _layer_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def op(self):
        """Root span of one timed operation."""
        record = [OP, time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- installation ------------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        old = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        self._undo.append((target, attr, old))
        setattr(target, attr, value)

    def install(self) -> None:
        import nshess

        modules = [nshess] + [
            importlib.import_module(f"nshess.{info.name}")
            for info in pkgutil.iter_modules(nshess.__path__)
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("nshess."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(_layer_name(obj), obj)
                self._set(module, attr, wrappers[obj])

        for module_name, cls_name, methods in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    if fn not in wrappers:
                        wrappers[fn] = classmethod(self._wrap(_layer_name(fn), fn))
                else:
                    fn = raw
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(_layer_name(fn), fn)
                self._set(cls, attr, wrappers[fn])

        cache_cls = nshess.cache.EvaluationCache
        init = cache_cls.__init__
        wrap_oracle = functools.partial(self._wrap, ORACLE)

        @functools.wraps(init)
        def traced_init(cache, oracle, *args, **kwargs):
            init(cache, wrap_oracle(oracle), *args, **kwargs)

        self._set(cache_cls, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    # -- output ------------------------------------------------------------

    def count(self, name: str, first: int = 0) -> int:
        """Spans called ``name`` recorded at or after index ``first``."""
        return sum(1 for i in range(first, len(self.spans)) if self.spans[i][0] == name)

    def write(self, path) -> None:
        """Write the spans as JSON: a name table and (name, start, end, parent) rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": names, "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]},
                fh,
                separators=(",", ":"),
            )


class OracleClock:
    """Total time inside the oracles handed to an ``EvaluationCache``, and nothing else.

    Costs two clock reads per oracle call, so an op timed with it installed
    still reads as untraced. ``overhead_ratio`` divides op time by this
    rather than by the tracer's oracle spans, which carry the wrappers of
    every other traced call around them.
    """

    def __init__(self):
        self.seconds = 0.0
        self._init = None

    def _timed(self, oracle):
        clock = time.perf_counter

        @functools.wraps(oracle)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return oracle(*args, **kwargs)
            finally:
                self.seconds += clock() - start

        return timed

    def install(self) -> None:
        import nshess

        cache_cls = nshess.cache.EvaluationCache
        init = self._init = cache_cls.__init__

        @functools.wraps(init)
        def timed_init(cache, oracle, *args, **kwargs):
            init(cache, self._timed(oracle), *args, **kwargs)

        cache_cls.__init__ = timed_init

    def uninstall(self) -> None:
        import nshess

        nshess.cache.EvaluationCache.__init__ = self._init


class SpanStats:
    """Per-name totals over a list of spans: count, inclusive and self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            self.calls[s[0]] += 1
            self.self_s[s[0]] += (s[2] - s[1]) - child_time[i]

    def count(self, names) -> int:
        return sum(self.calls[n] for n in names)

    def self_time(self, prefix: str) -> float:
        """Self time summed over every span whose name starts with ``prefix``."""
        return sum(t for n, t in self.self_s.items() if n.startswith(prefix))

    def inclusive(self, names) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        names = set(names)
        total = 0.0
        for s in self.spans:
            if s[0] not in names:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += s[2] - s[1]
        return total
