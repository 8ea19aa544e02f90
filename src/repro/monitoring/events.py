"""Structured control-plane event log.

The tracer answers "where did this request's time go"; the event log
answers "what did the *platform* do and why".  Each platform action is
narrated once, here: a row, not also a span (an action that takes time
carries its ``duration_s``).  Every control-plane
actor — scheduler, autoscalers, pod lifecycle, template selection, the
requirement optimizer — records typed events with simulated timestamps,
so a run's reconfiguration history is auditable after the fact (the
§III-B monitoring loop made inspectable).

Like the tracer, the log is disabled by default: ``record`` is a single
branch when off, so instrumented call sites stay on hot paths without
cost.  Enable it per platform via ``PlatformConfig(events_enabled=True)``
or ``platform.events.enable()``.

Event types currently emitted by the platform:

=============================  ======================================================
type                           emitted by / fields
=============================  ======================================================
scheduler.place                Scheduler.schedule — pod, node, image, policy
pod.bind                       Cluster.bind_pod — pod, node
pod.ready                      Pod._boot — pod, node, startup_s
pod.terminated                 Cluster.terminate_pod — pod, node
template.select                CRM deploy/update — cls, template, engine
class.deploy                   CRM deploy_class — cls, services, nodes
faas.cold_start                KnativeService — service, pod
autoscale.knative              KnativeService.tick — service, before, after, desired
autoscale.hpa                  HorizontalPodAutoscaler.tick — deployment, before, after
optimizer.decision             RequirementOptimizer.tick — cls, service, action, before,
                               after, floor, reason (the alert behind a scale-up)
chaos.inject                   ChaosInjector — plan, kind, fault-specific fields
chaos.recover                  ChaosInjector — plan, kind, fault-specific fields
resilience.retry               InvocationEngine — cls, node, attempt, error
resilience.timeout             InvocationEngine — cls, node, deadline_s
resilience.exhausted           InvocationEngine — cls, node, attempts, error
resilience.shed                InvocationEngine — cls, avoided, node
resilience.stale_read          InvocationEngine — cls, object
resilience.breaker_open        BreakerBoard — cls, node, failures[, probe]
resilience.breaker_half_open   BreakerBoard — cls, node
resilience.breaker_close       BreakerBoard — cls, node
qos.reject                     QosPlane — cls, reason, path, retry_after_s
qos.shed                       OverloadController — cls, count, depth, tier[, brownout]
durability.snapshot            SnapshotCoordinator — cls, generation, docs, tombstones,
                               duration_s
durability.restore             RestoreManager — cls, kind, plus kind-specific fields
                               (``pit``: generation, cut_time, restored, purged,
                               duration_s; ``recovery``: node, rpo_s, rto_s,
                               lost_writes, restored_docs)
federation.migrate             MigrationManager — class, object, source, source_zone,
                               target, target_zone, version, epoch, duration_s
federation.migrate_failed      MigrationManager — cls, object, source, target, error,
                               duration_s
federation.reject              FederationPlane — cls, object, origin, jurisdictions
slo.alert                      SloEvaluator — cls, slo, severity, burn_long,
                               burn_short, detail
slo.resolve                    SloEvaluator — cls, slo, severity, burn_long,
                               burn_short, detail
scheduler.register             SchedulerPlane — worker, node
scheduler.ready                SchedulerPlane — worker, node
scheduler.install              SchedulerPlane — worker, cls
scheduler.dispatch             SchedulerPlane — worker, request, object, fn
scheduler.complete             SchedulerPlane — worker, request, ok
scheduler.suppressed           SchedulerPlane — worker, request (fenced duplicate)
scheduler.degraded             SchedulerPlane — worker
scheduler.recovered            SchedulerPlane — worker
scheduler.rebind               SchedulerPlane — worker, moved, reason
scheduler.draining             SchedulerPlane — worker
scheduler.dead                 SchedulerPlane — worker, reason, requeued
storage.query                  InvocationEngine.query_objects — cls, matched, scanned,
                               index_used, plan, duration_s
=============================  ======================================================

A committed write is not an event: each one is a ``state.commit`` span
and a count in the durability tracker's ``commits_recorded``, and the
commits not yet covered by a snapshot cut live once, in
``ClassDurabilityState.commits`` (what recovery measures RPO from).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["PlatformEvent", "EventLog"]


@dataclass(frozen=True, slots=True)
class PlatformEvent:
    """One recorded control-plane action, as a read of the log hands it
    out: built from the log's row, with ``fields`` the reader's own."""

    seq: int
    at: float
    type: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "at": self.at, "type": self.type, **self.fields}

    def render(self) -> str:
        """The event's one listing line."""
        attrs = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.at:10.4f}s] {self.type:<20} {attrs}".rstrip()


class EventLog:
    """Collects platform events into a bounded buffer, stamped with
    ``env.now`` — the sim environment's clock, or any object with a
    ``now`` (the asyncio scheduler server stamps with its loop's).

    The buffer keeps rows, not events: ``(at, type, keys, *values)`` in
    one flat tuple, the ``keys`` tuple shared by every event of the same
    field shape and an event's ``seq`` given by its row's position.  The
    log retains up to ``capacity`` of them; a :class:`PlatformEvent` is
    built only when read."""

    def __init__(self, env, enabled: bool = False, capacity: int = 100_000) -> None:
        self.env = env
        self.enabled = enabled
        self._rows: deque[tuple[Any, ...]] = deque(maxlen=capacity)
        #: field names -> the one tuple of them every row of that shape shares
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._seq = 0
        self.dropped = 0

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def record(self, type: str, **fields: Any) -> None:
        """Append one event (nothing when the log is off)."""
        if not self.enabled:
            return
        self._seq += 1
        if len(self._rows) == self._rows.maxlen:
            self.dropped += 1
        keys = tuple(fields)
        keys = self._shapes.setdefault(keys, keys)
        self._rows.append((self.env.now, type, keys, *fields.values()))

    # -- queries -----------------------------------------------------------

    def events(self, type: str | None = None) -> list[PlatformEvent]:
        """All retained events (optionally filtered by type), in order."""
        first = self._seq - len(self._rows) + 1
        return [
            PlatformEvent(first + index, row[0], row[1], dict(zip(row[2], row[3:])))
            for index, row in enumerate(self._rows)
            if type is None or row[1] == type
        ]

    def type_counts(self) -> dict[str, int]:
        """How many retained events of each type."""
        return dict(Counter(row[1] for row in self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self.events())

    def render(self, type: str | None = None, limit: int | None = None) -> str:
        """A human-readable listing (newest last): the newest ``limit``
        events, so ``limit=0`` selects none."""
        selected = self.events(type)
        if limit is not None:
            selected = selected[-limit:] if limit > 0 else []
        if not selected:
            scope = f" of type {type!r}" if type else ""
            return f"(no events{scope})"
        return "\n".join(event.render() for event in selected)
