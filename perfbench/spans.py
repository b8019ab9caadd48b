"""In-memory spans around the program's public entry points.

The traced run wraps each layer's entry point (see :data:`LAYER_ENTRY_POINTS`
in ``run.py``) so that every call records a span: name, start, end, its
parent span and the trace it belongs to.  Spans stay in memory and are
written out when the run ends; :func:`self_times` turns them into each
layer's own time.  End-to-end metrics never come from a traced run: the
wrappers cost Python calls on hot paths.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

_INHERITED = object()


@dataclass(frozen=True)
class Span:
    """One recorded call: ``[start, end)`` in ``perf_counter`` seconds."""

    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start: float
    end: float
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans per thread; nested calls become child spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, size: int = 0):
        """Record the enclosed block as a span; a span with no parent starts a trace."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id, trace_id = stack[-1] if stack else (None, span_id)
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, span_id, parent_id, trace_id, start, end, size))

    def wrap(self, owner, attribute: str, name: str, size=None) -> None:
        """Replace ``owner.attribute`` (a class or module) by a span-recording wrapper.

        *size*, when given, maps the call's arguments to a work count
        stored on the span (pairs explained, graphs built).
        """
        target = getattr(owner, attribute)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name, size(*args, **kwargs) if size is not None else 0):
                return target(*args, **kwargs)

        self._patched.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, after a header naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps([field.name for field in fields(Span)]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(astuple(span)) + "\n")


def covered(interval: tuple[float, float], children) -> float:
    """Length of *interval* covered by the union of the *children* intervals."""
    low, high = interval
    total = 0.0
    cursor = low
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }
