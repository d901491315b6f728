"""Span recorder for the traced benchmark run.

Spans are recorded only by the benchmark's own code, around its calls into
the package's public functions; nothing inside ``src/optliq`` is timed.
Each span holds its name, start and end (``time.perf_counter`` seconds),
the index of its parent span and the operation id it belongs to.  Spans
stay in memory and are written out once, when the run ends.

A span named ``<layer>.<function>`` belongs to that layer (``ode``,
``model``, ``simulate``, ``market_data``, ``backtest``); the benchmark's
own operation spans are named ``bench.<workload>``.  A layer's self time
is the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class SpanRecorder:
    """Collects spans in memory; one recorder per traced run."""

    def __init__(self):
        # each span is [name, start, end, parent index, operation id]
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: str, name: str):
        """Span for one benchmark operation; nested spans inherit op_id."""
        outer, self._op = self._op, op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    def durations(self, name: str) -> list:
        """Durations in seconds of every span with this name, in order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_time_by_layer(self) -> dict:
        """Seconds per layer: span durations minus their children's."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op_id"],
                       "spans": self.spans}, fh)


class NullRecorder:
    """Stand-in used when tracing is off: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def operation(self, op_id: str, name: str):
        return nullcontext()
