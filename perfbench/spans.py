"""In-memory spans and self-time accounting for the traced benchmark run.

A span is ``[name, start, end, parent]`` with times from
``time.monotonic`` (CLOCK_MONOTONIC, shared by every process on the
machine, so the parent's launch time and the child's stamps compare).
Spans are opened only around calls into rgld's public functions; they
nest and never overlap their siblings, because the CLI runs with one
worker in one thread. ``bench.*`` spans are the benchmark's own work,
left out of the traced wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

SPEC_SPAN = "harness.spec"
BENCH_PREFIX = "bench."


class Recorder:
    """Collects spans in memory; ``spans[0]`` is the root."""

    def __init__(self, root: str):
        # None stands for the launch or exit time of the process, which
        # the parent fills in: the root spans both.
        self.spans: list[list] = [[root, None, None, None]]
        self._stack = [0]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        self.spans.append([name, start, end, self._stack[-1]])

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self._stack[-1]])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.monotonic()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call enclosed in a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def total_time(spans: list[list], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(end - start for n, start, end, _ in spans if n == name)


def self_time(spans: list[list], name: str) -> float:
    """Summed duration of every span called ``name``, minus its direct children."""
    own = total_time(spans, name)
    for _, start, end, parent in spans:
        if parent is not None and spans[parent][0] == name:
            own -= end - start
    return own


def traced_wall(spans: list[list]) -> float:
    """Root duration minus the benchmark's own spans."""
    _, start, end, _ = spans[0]
    return end - start - sum(
        e - s for n, s, e, _ in spans if n.startswith(BENCH_PREFIX)
    )


def setup_s(spans: list[list]) -> float:
    """Launch to the end of spec resolution: interpreter start, import, spec."""
    return max(e for n, _, e, _ in spans if n == SPEC_SPAN) - spans[0][1]
