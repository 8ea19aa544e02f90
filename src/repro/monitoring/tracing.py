"""Invocation tracing.

Every external request carries a trace id (defaulting to its request
id); the invocation engine records spans for each phase of the data
plane — record load, task offload, state commit — and dataflow steps
propagate the parent's trace id, so one macro invocation yields a tree
of spans across objects and classes.

A span is a wait with a duration.  A point in time — where a request
was routed, what the scheduler decided — is an attribute of the span it
happened in, or an event-log row, not a span of its own.

The tracer is disabled by default (zero overhead beyond a branch);
enable it per platform via ``PlatformConfig(tracing_enabled=True)`` or
``platform.tracer.enable()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One timed operation within a trace, as a read of the tracer hands
    it out: built from the tracer's row, with ``attrs`` the reader's
    own."""

    trace_id: str
    span_id: int
    name: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


class Tracer:
    """Collects spans into a bounded buffer.

    The buffer keeps rows, not spans, one per span in recording order,
    so a span's id is given by its row's position.  An open span's row
    is the list ``[name, None, trace_id, start, parent_id, attrs]``;
    :meth:`finish` replaces it with one flat tuple ``(shape, end,
    trace_id, start, parent_id, *values)``, where ``shape`` is the tuple
    ``(name, *attribute keys)`` shared by every span of the same name
    and keys.  The tracer retains up to ``capacity`` rows; a
    :class:`Span` is built only when read."""

    def __init__(self, env, enabled: bool = False, capacity: int = 10_000) -> None:
        self.env = env
        self.enabled = enabled
        self._rows: deque[Any] = deque(maxlen=capacity)
        #: (name, *keys) -> the one tuple of them every row of that shape shares
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._next_id = 0

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def start(
        self,
        trace_id: str,
        name: str,
        parent: int | None = None,
        **attrs: Any,
    ) -> int | None:
        """Open a span and return its id; ``None`` when tracing is off.

        ``parent`` is the id of the parent span (``None``: a root)."""
        if not self.enabled:
            return None
        self._next_id += 1
        self._rows.append([name, None, trace_id, self.env.now, parent, attrs])
        return self._next_id

    def finish(self, span_id: int | None, **attrs: Any) -> None:
        """Close a span, merging ``attrs`` into its attributes (no-op for
        ``None``, so call sites stay clean, and for a span already closed
        or evicted from the buffer)."""
        if span_id is None:
            return
        rows = self._rows
        index = span_id - self._next_id - 1  # from the newest end
        if -index > len(rows):
            return
        row = rows[index]
        if type(row) is not list:
            return
        name, _, trace_id, start, parent, opened = row
        if not opened:
            opened = attrs
        elif attrs:
            opened.update(attrs)
        shape = (name, *opened)
        shape = self._shapes.setdefault(shape, shape)
        rows[index] = (shape, self.env.now, trace_id, start, parent, *opened.values())

    def point(self, trace_id: str, name: str, /, **attrs: Any) -> None:
        """Record a span that opens and closes now: a platform action
        narrated under a synthetic trace id (``monitoring.events.emit``)."""
        if not self.enabled:
            return
        self._next_id += 1
        now = self.env.now
        shape = (name, *attrs)
        shape = self._shapes.setdefault(shape, shape)
        self._rows.append((shape, now, trace_id, now, None, *attrs.values()))

    # -- queries -----------------------------------------------------------

    def _spans(self, keep: Callable[[tuple[Any, ...]], bool] | None = None) -> list[Span]:
        """The retained spans whose row ``keep`` accepts (all: ``None``),
        in recording order, built from their rows."""
        first = self._next_id - len(self._rows) + 1
        spans = []
        for index, row in enumerate(self._rows):
            if keep is None or keep(row):
                if type(row) is list:  # open
                    name, attrs = row[0], dict(row[5])
                else:
                    name, attrs = row[0][0], dict(zip(row[0][1:], row[5:]))
                spans.append(Span(row[2], first + index, name, row[3], row[1], row[4], attrs))
        return spans

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in start order."""
        spans = self._spans(lambda row: row[2] == trace_id)
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def spans_named(self, name: str) -> list[Span]:
        return self._spans(lambda row: (row[0] if type(row) is list else row[0][0]) == name)

    def spans(self) -> list[Span]:
        """Every retained span, in recording order."""
        return self._spans()

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, in first-seen order."""
        return list(dict.fromkeys(row[2] for row in self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def render(self, trace_id: str | None = None) -> str:
        """A human-readable tree of one trace (or every trace).

        Spans whose parent was evicted from the bounded buffer (or never
        recorded) render as roots rather than silently disappearing.
        """
        if trace_id is None:
            ids = self.trace_ids()
            if not ids:
                return "(no spans recorded)"
            return "\n".join(self.render(tid) for tid in ids)
        spans = self.trace(trace_id)
        if not spans:
            return f"(no spans for trace {trace_id})"
        present = {span.span_id for span in spans}
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in present else None
            children.setdefault(parent, []).append(span)
        lines: list[str] = [f"trace {trace_id}"]

        def walk(parent_id: int | None, depth: int) -> None:
            for span in children.get(parent_id, []):
                duration = f"{span.duration_s * 1000:.2f} ms" if span.end else "open"
                attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
                lines.append(f"{'  ' * depth}- {span.name} [{duration}] {attrs}".rstrip())
                walk(span.span_id, depth + 1)

        walk(None, 1)
        return "\n".join(lines)
