"""In-memory spans around the benchmark's calls into the program.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the number of input rows the call handled. Spans stay in
memory and are written out once, when the run ends. A layer's self time is
a span's duration minus the time its child spans cover.

``NullTracer`` has the same interface and records nothing, so the untraced
and the traced runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str, rows: int = 0) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "rows", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, rows: int):
        self.tracer = tracer
        self.name = name
        self.rows = rows

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._open[-1] if tr._open else -1
        tr._open.append(self.sid)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        tr = self.tracer
        tr._open.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.start, end, self.rows))
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._next_id = 0

    def span(self, name: str, rows: int = 0) -> _Span:
        return _Span(self, name, rows)

    def self_times(self) -> dict[str, dict]:
        """Per span name: total self seconds, each call's self seconds, rows."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "each": [], "rows": 0})
        for sid, _, name, start, end, rows in self.spans:
            agg = out[name]
            own = (end - start) - child_time[sid]
            agg["self_s"] += own
            agg["each"].append(own)
            agg["rows"] += rows
        return dict(out)

    def write(self, path) -> None:
        """Write every span as JSON: id, parent id, name, start, end, rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "rows"],
                       "spans": self.spans}, fh)
