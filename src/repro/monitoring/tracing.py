"""Invocation tracing.

Every external request carries a trace id (defaulting to its request
id); the invocation engine records spans for each phase of the data
plane — record load, task offload, state commit — and dataflow steps
propagate the parent's trace id, so one macro invocation yields a tree
of spans across objects and classes.

The tracer is disabled by default (zero overhead beyond a branch);
enable it per platform via ``PlatformConfig(tracing_enabled=True)`` or
``platform.tracer.enable()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One timed operation within a trace.

    A request opens seven or eight of these, so the record is slotted
    and the tracer builds it positionally."""

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
    """Collects spans into a bounded buffer."""

    def __init__(self, env, enabled: bool = False, capacity: int = 10_000) -> None:
        self.env = env
        self.enabled = enabled
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._next_id = 0

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def start(
        self,
        trace_id: str,
        name: str,
        parent: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span | None:
        """Open a span; returns ``None`` when tracing is off.

        ``parent`` may be a span or a raw span id (cross-request links).
        """
        if not self.enabled:
            return None
        self._next_id = span_id = self._next_id + 1
        if type(parent) is Span:
            parent = parent.span_id
        # ``attrs`` is this call's own dict: the span keeps it.
        span = Span(trace_id, span_id, name, self.env.now, None, parent, attrs)
        self._spans.append(span)
        return span

    def finish(self, span: Span | None, **attrs: Any) -> None:
        """Close a span (no-op for ``None``, so call sites stay clean)."""
        if span is None:
            return
        span.end = self.env.now
        if attrs:
            span.attrs.update(attrs)

    # -- queries -----------------------------------------------------------

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in start order."""
        return sorted(
            (s for s in self._spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self._spans if s.name == name]

    def spans(self) -> list[Span]:
        """Every retained span, in recording order."""
        return list(self._spans)

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._spans)

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
