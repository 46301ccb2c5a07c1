"""Spans around the benchmark's own calls into gadgetforge.

Every library call the benchmark makes goes through `Tracer.call` with a
layer name `<module>.<function>`.  With tracing off that is one attribute
test and a direct call.  With tracing on it records a span (id, name, start,
end, parent span, op id, phase) in memory; spans are written out only when
the run ends.  The library itself is not instrumented: a span covers the
whole public call, including whatever the call does internally.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

# span record layout
_ID, _NAME, _START, _END, _PARENT, _OP, _PHASE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent, self._op, self.phase]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str, op_id: int):
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    def self_times(self, phase: str) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name within one phase.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] += s[_END] - s[_START]
        out: dict[str, list] = {}
        for s in self.spans:
            if s[_PHASE] != phase:
                continue
            entry = out.setdefault(s[_NAME], [0, 0.0])
            entry[0] += 1
            entry[1] += s[_END] - s[_START] - covered[s[_ID]]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def median_duration(self, name: str, phase: str) -> float:
        durations = [
            s[_END] - s[_START]
            for s in self.spans
            if s[_NAME] == name and s[_PHASE] == phase
        ]
        return statistics.median(durations) if durations else 0.0

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
