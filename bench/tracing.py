"""In-memory spans recorded by interposing on module attributes.

A traced run replaces names that one gtexchange module binds from another
(for example ``gtexchange.harness.solve_optimal``) with thin wrappers that
record one span per call: its name, the span that was open when it started
(its parent), and its start and end times.  Self time is a span's duration
minus the durations of its direct children.  Everything stays in memory;
the originals are put back when the traced block ends, even on error, and
a name the program no longer has is skipped and reported, so its metrics
read as zero calls.

The program runs single-threaded, so one stack of open spans is enough.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

# hook(counts, args, kwargs, result) adds counters derived from a call's result
Hook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Holds every span of one traced run plus counters that hooks fill in."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # one [name, parent index or -1, start, end] list per call
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._open = [-1]

    def wrap(self, fn: Callable, name: str | Callable[[tuple, dict], str], hook: Hook | None = None) -> Callable:
        """Return ``fn`` recording a span per call; ``name`` may be computed from the arguments."""
        spans, open_spans, clock, counts = self.spans, self._open, self.clock, self.counts
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            record = [name if fixed else name(args, kwargs), open_spans[-1], 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_spans.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for idx, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[idx]
        return {name: tuple(entry) for name, entry in out.items()}

    def calls_within(self, ancestor: str, name: str) -> int:
        """Spans named ``name`` that ran, at any depth, inside a span named ``ancestor``."""
        inside = [False] * len(self.spans)
        count = 0
        for idx, (span_name, parent, _, _) in enumerate(self.spans):
            parent_inside = parent >= 0 and inside[parent]
            inside[idx] = span_name == ancestor or parent_inside
            if span_name == name and parent_inside:
                count += 1
        return count


@contextmanager
def interposed(
    tracer: Tracer, targets: Iterable[tuple[str, str, str | Callable, Hook | None]]
) -> Iterator[Tracer]:
    """Wrap each ``(module, attribute, span name, hook)`` target for the block's duration."""
    saved = []
    try:
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(original, name, hook))
            saved.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
