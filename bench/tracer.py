"""Span tracer installed from outside the program it measures.

``Tracer.install`` replaces a public function of a package by a timing
wrapper.  Modules import public functions by name (``from .rcgraph import
enumerate_rcgraphs``), so the wrapper is bound in place of every reference
held by any module of the package, and methods are replaced in the class
dictionary under every name that holds them (``__rmul__ = __mul__``).
Modules are looked up in ``sys.modules``, never as package attributes: a
package ``__init__`` may re-export a function over a submodule of the same
name (``pipedreams.catalan`` is the function ``catalan``).

Each call records one span: name, start, end and the span that was open
when it began.  Spans stay in memory as flat arrays until ``write_spans``.
A span's self time is its duration minus the durations of its direct
children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count: Callable[[object], int] | None = None) -> Callable:
        """A wrapper that records one span per call of ``fn``; ``count``
        maps each result to a number summed into ``self.counts[name]``."""
        nid = len(self.names)
        self.names.append(name)
        self.counts[name] = 0
        clock = self.clock
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(result)
            return result

        return traced

    def install(self, package: str, module: str, qualname: str,
                count: Callable[[object], int] | None = None) -> None:
        """Trace ``package.module.qualname`` (a function or ``Class.method``)
        under the span name ``module.qualname``."""
        mod = sys.modules[f"{package}.{module}"]
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, count))
            else:
                new = self.wrap(name, raw, count)
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, key, new)
                    self._undo.append(functools.partial(setattr, cls, key, raw))
            return
        original = getattr(mod, qualname)
        new = self.wrap(name, original, count)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == package or mname.startswith(package + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, new)
                    self._undo.append(functools.partial(setattr, m, key, original))

    def uninstall(self) -> None:
        """Put every replaced reference back."""
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive nanoseconds, self nanoseconds and
        the summed result count."""
        n = len(self.span_start)
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0,
                      "count": self.counts[name]} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += dur - child_ns[i]
        return out

    def write_spans(self, path) -> int:
        """Write one tab-separated line per span: index, name, start_ns,
        end_ns, parent index (-1 for a root).  Returns the span count."""
        n = len(self.span_start)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(n):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\n")
        return n
