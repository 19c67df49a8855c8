"""In-memory spans around the benchmark's calls into the library.

A span is ``[id, parent, name, start, end]``; one root span per op, with a
child span around each public call the harness makes for it.  Spans stay in
memory until the run ends and are then written out as JSON lines.  A
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def keep(self, name: str, value) -> None:
        """Hold a call's inputs so that counts over them are taken after the run."""
        self.kept.setdefault(name, []).append(value)

    def self_times(self) -> dict[str, list]:
        """``{name: [calls, self seconds]}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for (_, _, name, start, end), covered in zip(self.spans, child_time):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - covered
        return totals

    def children(self, parent_name: str) -> list[list[list]]:
        """For each span called ``parent_name``, its direct children."""
        groups = {i: [] for i, _, name, _, _ in self.spans if name == parent_name}
        for span in self.spans:
            if span[1] in groups:
                groups[span[1]].append(span)
        return list(groups.values())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": i, "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)

    def keep(self, name: str, value) -> None:
        pass


NULL = NullTracer()
