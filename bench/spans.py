"""Span recording around fairfilter's public functions, installed from outside.

`Tracer.patch` replaces a function or method with a wrapper that records one
span per call: name, start, end and the index of the enclosing span. The
wrapper is installed on the owner and on every `fairfilter` module global
that refers to the same object, because several callers import functions by
name (`from .trainer import checkpoint_load`); patching only the defining
module would leave those call sites untraced. Spans are kept in memory;
`summary` turns them into per-name self time and call counts, and `save`
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._set(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fairfilter" and not mod_name.startswith("fairfilter."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch(self, name: str, owner, attr: str) -> None:
        """Record a span called `name` around every call of `owner.attr`."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        self._install(owner, attr, traced)

    def count(self, name: str, owner, attr: str) -> None:
        """Count calls of `owner.attr` under `name`, without a span."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, counted)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time in seconds and number of calls.

        Calls nest without overlap, so a span's self time is its duration
        minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child[i]
            entry["calls"] += 1
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")
