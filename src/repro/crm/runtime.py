"""A deployed class runtime: the per-class slice of the platform.

Realizing a class (Fig. 2) provisions: a DHT cache configured per the
selected template (replication, persistence, batching), a placement
router, and one FaaS service per TASK method.  MACRO and BUILTIN
methods execute inside the invoker and need no service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import UnknownFunctionError
from repro.faas.engine import FunctionService
from repro.crm.template import ClassRuntimeTemplate
from repro.invoker.resilience import ResiliencePolicy
from repro.invoker.router import ObjectRouter
from repro.model.resolver import ResolvedClass
from repro.storage.dht import Dht

__all__ = ["ClassRuntime"]


@dataclass
class ClassRuntime:
    """Everything provisioned for one deployed class."""

    cls: str
    resolved: ResolvedClass
    template: ClassRuntimeTemplate
    dht: Dht
    router: ObjectRouter
    services: dict[str, FunctionService] = field(default_factory=dict)
    engine_name: str = "knative"
    #: Data-plane fault-tolerance knobs, derived from the class's NFRs.
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    #: Durability policy derived from the ``persistence`` constraint;
    #: ``None`` until (and unless) the durability plane attaches.
    durability: Any | None = None
    #: Declared QoS requirement -> the mechanism enforcing it (``None``:
    #: nothing does), decided at deploy; the NFR table's enforcer column.
    enforcers: dict[str, str | None] = field(default_factory=dict)
    #: Every deployed class's runtime by name — the manager's live
    #: table, where :meth:`service` finds an ancestor's service.
    peers: Mapping[str, ClassRuntime] = field(default_factory=dict, repr=False, compare=False)

    def service(self, fn_name: str) -> FunctionService:
        """The FaaS service realizing method ``fn_name`` of the class."""
        svc = self.services.get(fn_name)
        if svc is not None:
            return svc
        # Inherited methods may be served by an ancestor's runtime when
        # the child's own deployment was trimmed (not the default path,
        # but undeploy/redeploy sequences can produce it).
        for ancestor in self.resolved.ancestry[1:]:
            parent = self.peers.get(ancestor)
            if parent is not None and fn_name in parent.services:
                return parent.services[fn_name]
        raise UnknownFunctionError(
            f"no service for {self.cls}.{fn_name}; deployed services: "
            f"{sorted(self.services)}"
        )

    def describe(self) -> dict[str, Any]:
        """A human-readable summary (used by the CLI and tests)."""
        summary = self._describe_base()
        if self.durability is not None:
            summary["durability"] = self.durability.mode
        return summary

    def _describe_base(self) -> dict[str, Any]:
        return {
            "class": self.cls,
            "template": self.template.name,
            "engine": self.engine_name,
            "placement": self.router.policy.value,
            "replication": self.dht.model.replication,
            "persistent": self.dht.model.persistent,
            "services": {
                name: {
                    "image": svc.definition.image,
                    "replicas": svc.replicas,
                    "ready": svc.ready_replicas,
                }
                for name, svc in sorted(self.services.items())
            },
            "methods": list(self.resolved.method_names),
        }
