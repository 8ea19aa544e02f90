"""Plain-deployment FaaS engine (the ``oprc-bypass`` execution path).

Fig. 3's ``oprc-bypass`` "uses a standard Kubernetes deployment as its
underlying function execution instead of Knative": replicas are
provisioned up front (optionally autoscaled by the generic HPA), there
is no activator hop, no queue-proxy, and no scale-to-zero — so requests
skip Knative's per-request overhead and never see cold starts, at the
cost of idle replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import InvocationError
from repro.faas.engine import EngineModel, FaasEngine, FunctionService
from repro.faas.runtime import InvocationTask
from repro.monitoring.tracing import Span
from repro.orchestrator.hpa import HorizontalPodAutoscaler
from repro.orchestrator.pod import Pod

__all__ = ["DeploymentModel", "DeploymentService", "DeploymentEngine"]


@dataclass(frozen=True)
class DeploymentModel(EngineModel):
    """Thin data path: just the service VIP, no serverless machinery."""

    request_overhead_s: float = 0.0004
    cold_start_s: float = 1.5
    autoscale: bool = False
    autoscale_interval_s: float = 2.0


class DeploymentService(FunctionService):
    """A pre-provisioned deployment behind a plain service."""

    deployment_prefix = "dep"
    pod_label = "app.oparaca.io/deployment"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        model: DeploymentModel = self.model
        self.hpa: HorizontalPodAutoscaler | None = None
        self.autoscaled = model.autoscale
        if model.autoscale:
            provision = self.definition.provision
            self.hpa = HorizontalPodAutoscaler(
                self.env,
                self.deployment,
                target_per_replica=max(1.0, provision.concurrency * 0.7),
                min_replicas=max(1, self.min_scale),
                max_replicas=provision.max_scale,
                interval_s=model.autoscale_interval_s,
                events=self.events,
            )

    def _acquire_pod(
        self, task: InvocationTask | None = None, parent: Span | None = None
    ) -> Generator[Any, Any, Pod]:
        pod = self.deployment.least_loaded_pod()
        if pod is not None:
            return pod
        # Replicas exist but are still booting (deploy-time warm-up):
        # wait on the least-loaded starting pod rather than failing.
        pod = self.deployment.least_loaded_pod(include_starting=True)
        if pod is None:
            raise InvocationError(
                f"service {self.name!r} has no replicas; plain deployments "
                "do not scale from zero"
            )
        while not pod.is_ready:
            yield pod.ready_event()
            if pod.is_ready:
                break
            pod = self.deployment.least_loaded_pod(include_starting=True)
            if pod is None:
                raise InvocationError(f"service {self.name!r} lost all replicas")
        return pod

    def set_floor(self, replicas: int) -> None:
        super().set_floor(replicas)
        if self.hpa is not None:
            self.hpa.min_replicas = max(1, replicas)

    def stop(self) -> None:
        if self.hpa is not None:
            self.hpa.stop()


class DeploymentEngine(FaasEngine):
    """Deploys functions as plain deployments."""

    service_type = DeploymentService
    model_type = DeploymentModel
