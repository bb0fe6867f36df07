"""In-memory spans around calls into slopecalc's layers.

A span is [name, start_ns, end_ns, parent index, work counts].  Its layer is
the name up to the first dot.  Spans are recorded from the benchmark's side
of each call, so nothing inside the package changes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Run fn inside a span; work(args, kwargs, result) gives the span's counts."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets, works):
        """Replace each (object, attribute, span name) with a traced wrapper, then restore."""
        saved = []
        try:
            for obj, attr, name in targets:
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                setattr(obj, attr, self.wrap(name, fn, works.get(name)))
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "work"],
                       "spans": self.spans}, handle)
