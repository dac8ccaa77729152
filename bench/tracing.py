"""In-memory spans recorded around the benchmark's own calls into trapcoh.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, and op numbers the timed operation it belongs to.
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children. Counts (fit
evaluations, bytes, samples) are recorded beside the spans under a name.
"""

from __future__ import annotations

import gzip
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records spans when enabled; when disabled, call() is a plain call."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value):
        if self.enabled:
            self.counts[name] += value

    def self_times(self):
        """{span name: [self time of each call]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name].append(end - start - c)
        return out

    def summary(self):
        """{span name: {"calls", "self_s", "median_self_s"}}."""
        return {name: {"calls": len(v), "self_s": sum(v),
                       "median_self_s": statistics.median(v)}
                for name, v in sorted(self.self_times().items())}

    def write(self, path):
        """All spans as gzip CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
