"""Knative-like FaaS engine (paper §III-C; the Fig. 3 baseline's engine).

Reproduces the Knative serving behaviours the experiments depend on:

* **Activator / scale-from-zero** — with no replicas, the first request
  triggers a scale-up and buffers until the pod is ready (a cold
  start).
* **Concurrency-based autoscaler (KPA)** — desired replicas track
  observed in-flight requests against ``concurrency x target
  utilization``; after an idle grace period the service scales back to
  ``min_scale`` (possibly zero).
* **Per-request proxy overhead** — every request traverses the
  activator/queue-proxy data path, which is the overhead ``oprc-bypass``
  eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import InvocationError, SchedulingError
from repro.faas.engine import EngineModel, FaasEngine, FunctionService
from repro.faas.runtime import InvocationTask
from repro.orchestrator.pod import Pod

__all__ = ["KnativeModel", "KnativeService", "KnativeEngine"]

#: The KPA's per-pod target: the share of a pod's declared concurrency
#: the autoscaler aims to keep in flight.
TARGET_UTILIZATION = 0.7


@dataclass(frozen=True)
class KnativeModel(EngineModel):
    """Knative-specific tuning on top of the generic engine model."""

    request_overhead_s: float = 0.002
    cold_start_s: float = 1.8
    autoscale_interval_s: float = 2.0
    scale_to_zero_grace_s: float = 30.0


class KnativeService(FunctionService):
    """A Knative service: autoscaled revision + activator semantics."""

    autoscaled = True
    deployment_prefix = "kn"
    pod_label = "serving.oparaca.io/service"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.max_scale = self.definition.provision.max_scale
        self._last_request_at = self.env.now
        self._running = True
        self._autoscaler = self.env.process(self._autoscale_loop())

    # -- activator path --------------------------------------------------------

    def _acquire_pod(
        self, task: InvocationTask, waits: list[int] | None
    ) -> Generator[Any, Any, Pod]:
        self._last_request_at = self.env.now
        while True:
            pod = self.deployment.least_loaded_pod(include_starting=True)
            if pod is None:
                # Scale from zero: the activator holds the request and
                # kicks the autoscaler synchronously.
                try:
                    self.deployment.scale(1)
                except SchedulingError as exc:
                    raise InvocationError(
                        f"service {self.name!r}: cluster cannot host a replica"
                    ) from exc
                continue
            if pod.is_ready:
                return pod
            # The request is buffered behind a booting replica: that
            # wait is the user-visible cold start.
            self.cold_starts += 1
            cold_span = None
            if self.tracer.enabled:
                cold_span = self.tracer.start(
                    task.trace_id or task.request_id,
                    "faas.cold_start",
                    parent=self._waiting(task, waits),
                    service=self.name,
                    pod=pod.name,
                )
            if self.events.enabled:
                self.events.record(
                    "faas.cold_start", service=self.name, pod=pod.name
                )
            yield pod.ready_event()
            self.tracer.finish(cold_span, ready=pod.is_ready)
            if pod.is_ready:
                return pod
            # The pod died while starting; retry placement.

    # -- autoscaler (KPA) --------------------------------------------------------

    def desired_replicas(self) -> int:
        """The KPA decision from current in-flight concurrency."""
        model: KnativeModel = self.model
        in_flight = self.deployment.total_in_flight()
        if in_flight <= 0:
            idle = self.env.now - self._last_request_at
            if idle >= model.scale_to_zero_grace_s:
                return self.min_scale
            return max(self.min_scale, min(self.deployment.replicas, self.max_scale))
        target_per_pod = max(1.0, self.definition.provision.concurrency * TARGET_UTILIZATION)
        desired = math.ceil(in_flight / target_per_pod)
        return max(self.min_scale, 1, min(self.max_scale, desired))

    def _autoscale_loop(self) -> Generator:
        model: KnativeModel = self.model
        while self._running:
            yield self.env.timeout(model.autoscale_interval_s)
            if not self._running:
                return
            self.tick()

    def tick(self) -> None:
        """One autoscaler evaluation (exposed for deterministic tests)."""
        self.deployment.reconcile()
        desired = self.desired_replicas()
        before = self.deployment.replicas
        if desired == before:
            return
        try:
            self.deployment.scale(desired)
        except SchedulingError:
            # Cluster full: keep whatever fit.
            pass
        if self.events.enabled and self.deployment.replicas != before:
            self.events.record(
                "autoscale.knative",
                service=self.name,
                before=before,
                after=self.deployment.replicas,
                desired=desired,
            )

    def stop(self) -> None:
        """Stop the autoscaler loop (teardown)."""
        self._running = False


class KnativeEngine(FaasEngine):
    """Deploys functions as Knative services."""

    service_type = KnativeService
    model_type = KnativeModel
