"""Outside-in tracing of locallearn, done entirely from the benchmark's files.

``Tracer.wrap`` swaps a function for a timed wrapper in the namespace of the
module that calls it (``locallearn.local.top_k`` is the ``top_k`` that
``local_predict_batch`` sees), so each layer is timed as its caller sees it
and the package itself is never edited.  Spans are kept in memory as
``[name, start, end, parent, run_id]`` and written out once, at the end of a
run.  A function the package no longer has, or no longer calls, simply
yields no spans: its counts read 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run_id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``module.attr`` under span ``name``.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, result)`` after it closes, so the bookkeeping
        they do is not charged to the layer.  An attribute the module lacks
        is recorded in ``missing`` and left alone.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover.

        Spans come from one thread and nest properly, so children of one
        parent never overlap and their durations simply add up.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [d - c for d, c in zip(own, child)]

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s} over every recorded span."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id", "self_s"],
                    "missing": self.missing,
                    "spans": [s + [o] for s, o in zip(self.spans, own)],
                },
                fh,
            )
