"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the run id shared
by every span of one run.  Spans are kept in lists while the run goes on;
the benchmark writes them out once it has ended.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Span recorder for one single-threaded run.

    Spans nest through a stack, so children of one span never overlap and
    a span's self time is its duration minus the sum of its children's.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    @contextmanager
    def span(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name):
        """Durations in seconds of every span called `name`, in start order."""
        return [
            e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        ]

    def self_times(self):
        """Summed self time in seconds per span name."""
        covered = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - covered[i]
            out[name] = out.get(name, 0.0) + own
        return out

    def to_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
