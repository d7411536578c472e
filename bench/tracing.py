"""In-memory spans recorded around the benchmark's calls into the library.

A span is (name, start_ns, end_ns, parent, op).  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def wrap(self, name: str, fn):
        """fn with a span named ``name`` around every call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def aggregate(spans: list[list]) -> dict[str, tuple[int, int]]:
    """name -> (calls, total self ns)."""
    per: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_times(spans)):
        acc = per[span[0]]
        acc[0] += 1
        acc[1] += own
    return {name: (calls, total) for name, (calls, total) in per.items()}
