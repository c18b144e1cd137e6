"""In-memory spans for the traced run, with self time and coverage.

A span is one call into a layer of the package, timed from the benchmark's
own code: name, start, end, parent span and operation id. Spans stay in a
list and are written once, when the run ends.

A probe re-runs a call that a layer makes internally (``feasibility_check``
calls ``dft``, for example) on the same input, after the operation has
finished. It is linked to the span it looks inside, but it is not part of
that span's interval: it never reduces its parent's self time and never
counts toward coverage. A probe sees the package's caches as the operation
left them, unless the tracer's ``before_probe`` resets them first.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

ROOT = "op"


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    probe: bool = False
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "probe": self.probe,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for one operation at a time.

    Memory probes re-run a call with tracemalloc on, just for that call, and
    record its allocation peak. They are named ``<call>.alloc`` so no time
    metric counts them, and run only while ``measure_alloc`` is set: the
    traced run measures memory once per operation, not once per pass.
    """

    def __init__(self, before_probe: Callable[[], None] | None = None) -> None:
        self.spans: list[Span] = []
        self.measure_alloc = True
        self.before_probe = before_probe  # runs before every probe, untimed
        self._stack: list[Span] = []
        self._pending: list[tuple[int, str, Callable[[], Any], dict]] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self._op, parent, 0.0, attrs=dict(attrs))
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[Span]:
        """Root span of one operation; queued probes run after it closes."""
        self._op = op_id
        with self.span(ROOT) as root:
            yield root
        pending, self._pending = self._pending, []
        for parent, name, fn, attrs in pending:
            if self.before_probe is not None:
                self.before_probe()
            alloc = name.endswith(".alloc")
            if alloc:
                tracemalloc.start()
            try:
                with self.span(name, **attrs) as s:
                    s.parent = parent
                    s.probe = True
                    fn()
            finally:
                if alloc:
                    s.attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

    def probe(self, of: Span, name: str, fn: Callable[[], Any], **attrs: Any) -> None:
        """Queue ``fn`` to be timed as a probe of span ``of``."""
        self._pending.append((of.id, name, fn, attrs))

    def memory_probe(self, of: Span, name: str, fn: Callable[[], Any]) -> None:
        """Queue ``fn`` to be re-run under tracemalloc, if memory is measured."""
        if self.measure_alloc:
            self._pending.append((of.id, name + ".alloc", fn, {}))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of its interval that its
    (non-probe) children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and not s.probe:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def coverage(spans: list[Span]) -> tuple[float, float]:
    """(sum of top-level span time, sum of operation wall time)."""
    roots = {s.id: s for s in spans if s.name == ROOT}
    top = sum(s.duration for s in spans if not s.probe and s.parent in roots)
    return top, sum(s.duration for s in roots.values())
