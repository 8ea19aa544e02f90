"""Asynchronous (fire-and-forget) invocation.

Every accepted request takes one path: it is entered in a
:class:`~repro.scheduler.transport.core.DispatchCore`'s ledger and
handed to exactly one worker port, rendezvous-hashed on the object id,
so all updates to one object queue on one port and execute in order —
serializing writers per object without locks.  The port drains its
queue through the invocation engine and the core calls back here with
the single delivered completion per request; callers can await it
through the returned completion event or poll the result log by
request id.

Which pool the core dispatches over is the platform's choice, not the
caller's: the scheduler plane's ``SimWorker`` pool when that plane is
on (``scheduler=SchedulerConfig(enabled=True)``), otherwise a
:class:`~repro.scheduler.worker.StaticPool` of always-READY in-process
ports.  Either way the place a request waits is a
:class:`~repro.qos.fairqueue.WeightedFairQueue`: plain FIFO with QoS
off; with a QoS plane attached (``qos=QosConfig(enabled=True)``)
requests are admission-checked at submit, served deficit-round-robin
across classes with EDF inside latency-declared classes, and queued
work may be shed by the overload controller.  Shed and rejected
requests resolve their completion events with failed
:class:`~repro.invoker.request.InvocationResult`\\ s (``RateLimitedError``
/ ``OverloadError``; a class the CRM does not hold, ``UnknownClassError``,
at submit), never silently; a shed request is a ledger
completion like any other, so ``accepted == completed + outstanding``
holds under shedding too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.errors import UnknownClassError
from repro.invoker.engine import InvocationEngine
from repro.invoker.request import InvocationRequest, InvocationResult
from repro.qos.fairqueue import QueuedItem
from repro.qos.plane import QosPlane
from repro.scheduler.ledger import COMPLETION_HORIZON
from repro.scheduler.transport.core import request_class
from repro.scheduler.worker import StaticPool
from repro.sim.kernel import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.plane import SchedulerPlane

__all__ = ["AsyncInvoker"]


class AsyncInvoker:
    """Queue-backed invocation front end."""

    def __init__(
        self,
        env: Environment,
        engine: InvocationEngine,
        qos: QosPlane | None = None,
        scheduler: "SchedulerPlane | None" = None,
    ) -> None:
        self.env = env
        self.directory = engine.directory
        self.qos = qos
        self.pool = scheduler if scheduler is not None else StaticPool(env, engine, qos)
        self.core = self.pool.core
        self.core.on_complete = self._resolve
        #: The last ``COMPLETION_HORIZON`` results, oldest first.
        self.results: OrderedDict[str, InvocationResult] = OrderedDict()
        self._completions: dict[str, Event] = {}
        self.submitted = 0
        self.rejected = 0
        self.shed = 0
        if qos is not None:
            qos.start_shedder(self._on_shed)

    def submit(self, request: InvocationRequest) -> Event:
        """Enqueue a request; returns an event resolving to its result."""
        self.submitted += 1
        completion = self.env.event()
        self._completions[request.request_id] = completion
        cls = request_class(request)
        if cls is not None:
            try:  # answered typed: parked, it could wait for good
                self.directory.runtime(cls)
            except UnknownClassError as exc:
                self.rejected += 1
                self._resolve(
                    request,
                    InvocationResult.failure(request, str(exc), error_type="UnknownClassError"),
                )
                return completion
        if self.qos is not None:
            decision = self.qos.admit_async(cls)
            if not decision.admitted:
                self.rejected += 1
                self._resolve(
                    request,
                    InvocationResult.failure(
                        request,
                        f"admission rejected ({decision.reason}); "
                        f"retry after {decision.retry_after_s:.3f}s",
                        error_type="RateLimitedError",
                    ),
                )
                return completion
        self.core.submit(request)
        return completion

    def result(self, request_id: str) -> InvocationResult | None:
        """Poll a completed result by request id.  Only the most recent
        :data:`~repro.scheduler.ledger.COMPLETION_HORIZON` results are
        kept: ``None`` means not completed yet, evicted, or never
        submitted — an evicted id is indistinguishable from an unknown
        one.  A caller that needs the result for certain awaits the
        completion event :meth:`submit` returned."""
        return self.results.get(request_id)

    def stats(self) -> dict[str, int]:
        """Async-path submission accounting."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "pending": self.pending,
        }

    @property
    def completed(self) -> int:
        """Delivered completions — executed results and shed failures."""
        return self.core.delivered

    @property
    def pending(self) -> int:
        """Accepted but not completed: queued, parked or mid-execution."""
        return self.core.outstanding

    def _resolve(self, request: InvocationRequest, result: InvocationResult) -> None:
        """Record a result and fire its completion event — the dispatch
        core's callback for the single delivered completion, and the
        direct path for a submission admission refused."""
        self.results[request.request_id] = result
        if len(self.results) > COMPLETION_HORIZON:
            self.results.popitem(last=False)
        completion = self._completions.pop(request.request_id, None)
        if completion is not None and not completion.triggered:
            completion.succeed(result)

    def _on_shed(self, queued: QueuedItem) -> None:
        """Overload-controller callback: complete a shed request, as a
        failure, through the ledger."""
        request: InvocationRequest = queued.value.request
        self.shed += 1
        self.core.complete(
            self.core.ledger.entry(request.request_id).worker,
            request,
            InvocationResult.failure(
                request,
                "shed by overload controller (queue brownout)",
                error_type="OverloadError",
            ),
        )

    def stop(self) -> dict[str, int]:
        """Stop draining; returns the pool's report, whose ``"pending"``
        counts submissions accepted but not fully processed (queued or
        mid-execution) at stop time, mirroring
        ``WriteBehindQueue.stop()``'s loss report."""
        if self.qos is not None:
            self.qos.stop()
        return self.pool.stop()
