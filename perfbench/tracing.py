"""In-memory span tracer for the benchmark.

A span is (name, start, end, parent index). Spans are opened by the
benchmark around its own stages and, in a traced run, by wrappers that
the benchmark installs around the program's public functions from the
outside; the program itself is never edited. Self time is a span's
duration minus the durations of its direct children, so over a whole
tree the self times add up to the root's duration.
"""

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counters = defaultdict(float)
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name, observe=None):
        """A stand-in for fn that records a span per call; observe, if
        given, sees (counters, args, kwargs, result) after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result
        return traced

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def self_times(spans):
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


def inclusive_times(spans):
    """Total duration per span name, counting a span nested inside a
    span of the same name only once."""
    out = defaultdict(float)
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def call_counts(spans):
    out = defaultdict(int)
    for name, *_ in spans:
        out[name] += 1
    return out
