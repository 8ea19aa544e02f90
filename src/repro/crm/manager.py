"""The class runtime manager (CRM) — Oparaca's control plane.

Deploying a package (tutorial step 5) walks each class through:
resolve inheritance → select the runtime template matching its NFRs →
provision the class runtime (DHT cache, router, one FaaS service per
TASK method) → register it for the invocation engine.

The manager implements the invoker's
:class:`~repro.invoker.engine.RuntimeDirectory` protocol, so the data
plane always executes against the runtime each class's template built.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.crm.costs import CostModel, CostTracker
from repro.crm.runtime import ClassRuntime
from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog, default_catalog
from repro.errors import (
    DeploymentError,
    SchedulingError,
    UnknownClassError,
    UnknownFunctionError,
)
from repro.faas.deployment_engine import DeploymentEngine, DeploymentModel
from repro.faas.engine import FaasEngine, FunctionService
from repro.faas.knative import KnativeEngine, KnativeModel
from repro.faas.registry import FunctionRegistry
from repro.invoker.resilience import ResiliencePolicy
from repro.invoker.router import ObjectRouter
from repro.model.function import FunctionType
from repro.model.nfr import NonFunctionalRequirements
from repro.model.pkg import Package
from repro.model.resolver import ResolvedClass
from repro.monitoring.events import EventLog
from repro.monitoring.nfr_table import enforcers
from repro.monitoring.tracing import Tracer
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.scheduler import Scheduler
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.storage.dht import Dht, DhtModel
from repro.storage.kv import DocumentStore
from repro.storage.object_store import ObjectStore

__all__ = ["ClassRuntimeManager"]

#: Simulated seconds one DHT operation costs on its owner node.
DHT_OP_COST_S = 0.00002


def unranked(nfr: NonFunctionalRequirements, eligible: list[str]) -> list[str] | None:
    """Baseline ranking: the eligible nodes as listed when a jurisdiction
    restricts the class, else ``None`` — pods go where the scheduler says."""
    return list(eligible) if nfr.constraint.jurisdictions else None


class ClassRuntimeManager:
    """Deploys classes onto runtimes and serves as the runtime directory."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        scheduler: Scheduler,
        registry: FunctionRegistry,
        store: DocumentStore,
        object_store: ObjectStore,
        network: Network,
        rng: RngStreams | None = None,
        catalog: TemplateCatalog | None = None,
        knative_model: KnativeModel | None = None,
        deployment_model: DeploymentModel | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.scheduler = scheduler
        self.registry = registry
        self.store = store
        self.object_store = object_store
        self.network = network
        self.rng = rng or RngStreams(0)
        self.catalog = catalog or default_catalog()
        self.tracer = tracer
        self.events = events if events is not None else EventLog(env)
        self.knative = KnativeEngine(
            env, scheduler, registry, knative_model, tracer=tracer, events=self.events
        )
        self.deployment = DeploymentEngine(
            env, scheduler, registry, deployment_model, tracer=tracer, events=self.events
        )
        #: Services exposed to function handlers through ``ctx.service``.
        self.handler_services: dict[str, Any] = {"object_store": object_store}
        self.costs = CostTracker(env, store, CostModel())
        #: The durability plane, set by the platform when enabled; the
        #: CRM attaches every (re)deployed class to it.  ``None`` in the
        #: baseline — deployment takes the original code path.
        self.durability: Any | None = None
        #: (NFRs, eligible nodes) -> the nodes to pin the class to, in pod
        #: hint order, or ``None`` to leave it on every eligible node
        #: unhinted; the federation plane installs its planner's ranking.
        self.rank_placement = unranked
        #: What runs to enforce declared NFRs: the platform's plane
        #: names, plus ``"optimizer"``; set by the platform.
        self.mechanisms: frozenset[str] = frozenset()
        self._runtimes: dict[str, ClassRuntime] = {}
        self._resolved: dict[str, ResolvedClass] = {}
        #: Bumped by every deploy, update and undeploy.
        self.generation = 0

    # -- deployment -------------------------------------------------------------

    def deploy_package(self, package: Package) -> list[ClassRuntime]:
        """Deploy every class of a package (parents before children)."""
        resolved_all = package.resolved_classes()
        # Deploy shallowest-first so parents exist when children need them.
        order = sorted(resolved_all.values(), key=lambda r: (len(r.ancestry), r.name))
        return [self.deploy_class(resolved) for resolved in order]

    def deploy_class(
        self, resolved: ResolvedClass, template: ClassRuntimeTemplate | None = None
    ) -> ClassRuntime:
        """Provision one class runtime (explicit ``template`` overrides
        catalog selection, used by operators and experiments)."""
        if resolved.name in self._runtimes:
            raise DeploymentError(f"class {resolved.name!r} is already deployed")
        chosen = template or self.catalog.select(resolved.nfr)
        config = chosen.config
        if self.events.enabled:
            self.events.record(
                "template.select",
                cls=resolved.name,
                template=chosen.name,
                engine=config.engine,
                explicit=template is not None,
            )
        allowed_nodes, node_hints = self._placement_for(resolved)
        dht = Dht(
            self.env,
            allowed_nodes,
            self.network,
            self.store if config.persistent else None,
            DhtModel(
                op_cost_s=DHT_OP_COST_S,
                replication=min(config.replication, len(allowed_nodes)),
                persistent=config.persistent,
                write_behind=config.write_behind,
                max_entries_per_node=config.dht_max_entries,
                read_coalescing=config.read_coalescing,
                read_batch=config.read_batch,
                near_cache_entries=config.near_cache_entries,
            ),
            collection=f"objects.{resolved.name}",
            tracer=self.tracer,
        )
        router = ObjectRouter(dht, config.placement, self.rng)
        return self._install(resolved, chosen, dht, router, node_hints)

    def _install(
        self,
        resolved: ResolvedClass,
        template: ClassRuntimeTemplate,
        dht: Dht,
        router: ObjectRouter,
        node_hints: list[str] | None,
        **update: Any,
    ) -> ClassRuntime:
        """Provision ``resolved``'s services on ``template``'s engine and
        install the runtime around ``dht`` and ``router``: the one path
        a class runtime is built by, for a deploy and for an update
        (``update=True``, a field of the ``class.deploy`` event)."""
        config = template.config
        services = self._provision(resolved, config, node_hints)
        router.policy = config.placement
        if config.persistent and dht.store is not None:
            # Compile the class's declared keySpecs into the store
            # engine's schema so it can maintain secondary indexes
            # (the SQLite engine creates typed columns + indexes; the
            # dict engine just remembers the declaration).  An update
            # only ever adds keys; existing documents are backfilled.
            self.store.register_schema(
                f"objects.{resolved.name}",
                {
                    spec.name: spec.dtype
                    for spec in resolved.state
                    if not spec.is_file
                },
            )
        runtime = ClassRuntime(
            cls=resolved.name,
            resolved=resolved,
            template=template,
            dht=dht,
            router=router,
            services=services,
            engine_name=config.engine,
            resilience=ResiliencePolicy.from_nfr(
                resolved.nfr, persistent=config.persistent
            ),
            enforcers=enforcers(resolved.nfr.qos, self.mechanisms),
        )
        self._runtimes[resolved.name] = runtime
        self._resolved[resolved.name] = resolved
        self.generation += 1
        self.costs.register(runtime)
        if self.durability is not None:
            self.durability.attach(runtime)
        if self.events.enabled:
            unenforced = [name for name, by in runtime.enforcers.items() if by is None]
            if unenforced:
                update["unenforced"] = unenforced
            self.events.record(
                "class.deploy",
                cls=resolved.name,
                template=template.name,
                engine=config.engine,
                services=len(services),
                **update,
            )
        return runtime

    def _provision(
        self,
        resolved: ResolvedClass,
        config: RuntimeConfig,
        node_hints: list[str] | None,
    ) -> dict[str, FunctionService]:
        """One FaaS service per TASK method, on the template's engine;
        a failure part-way deletes what was already provisioned."""
        engine = self._engine(config.engine)
        services: dict[str, FunctionService] = {}
        try:
            for method in sorted(resolved.methods):
                binding = resolved.methods[method]
                if binding.function.ftype is not FunctionType.TASK:
                    continue
                definition = binding.function
                if config.min_scale_override is not None:
                    provision = dataclasses.replace(
                        definition.provision,
                        min_scale=config.min_scale_override,
                        max_scale=max(
                            definition.provision.max_scale, config.min_scale_override
                        ),
                    )
                    definition = dataclasses.replace(definition, provision=provision)
                services[method] = engine.deploy(
                    f"{resolved.name}.{method}",
                    definition,
                    services=self.handler_services,
                    node_hints=node_hints,
                )
        except Exception:
            for svc in services.values():
                engine.delete(svc.name)
            raise
        return services

    def _placement_for(
        self, resolved: ResolvedClass
    ) -> tuple[list[str], list[str] | None]:
        """The class's node domain plus ordered pod-placement hints.

        Eligibility is the cluster's jurisdiction filter (§II-C, §VI:
        state and pods live only in zones the constraint names); order
        and pod pinning are :attr:`rank_placement`'s.  A constraint
        naming no zone, or satisfied by no live node, raises
        :class:`DeploymentError` naming the labels that exist.
        """
        jurisdictions = resolved.nfr.constraint.jurisdictions
        try:
            eligible = self.cluster.nodes_in_regions(jurisdictions)
        except SchedulingError as exc:
            raise DeploymentError(
                f"class {resolved.name!r}: jurisdiction constraint "
                f"{list(jurisdictions)} cannot be satisfied: {exc}"
            ) from exc
        if not eligible:
            raise DeploymentError(
                f"class {resolved.name!r} is constrained to jurisdictions "
                f"{list(jurisdictions)}, but no cluster node sits in a "
                f"matching zone (regions: {list(self.cluster.regions)})"
            )
        hints = self.rank_placement(resolved.nfr, eligible)
        return (eligible if hints is None else list(hints)), hints

    def refresh_placement(self, runtime: ClassRuntime) -> list[str]:
        """Re-run placement for a deployed class after cluster
        membership changed, pushing fresh hints into every service's
        deployment — so scale-up and self-heal replacements obey the
        same constraints as the initial deploy (classes deployed
        unconstrained have no hints to refresh).  Returns the class's
        current node domain, empty when no node satisfies its
        constraints."""
        try:
            domain, node_hints = self._placement_for(runtime.resolved)
        except DeploymentError:
            # Every allowed node is gone.  Keep the stale (dead) hints:
            # the deployment refuses to place rather than spilling the
            # class outside its jurisdiction.
            return []
        if node_hints is not None:
            for svc in runtime.services.values():
                svc.deployment.set_hints(node_hints)
        return domain

    def update_class(
        self, resolved: ResolvedClass, template: ClassRuntimeTemplate | None = None
    ) -> ClassRuntime:
        """Redeploy a class definition in place.

        Existing objects keep their state — the class's DHT cache is
        carried over — while function services are torn down and
        re-provisioned from the new definition (new images, new
        provision hints, possibly a different template/engine).

        Schema evolution is additive-only: every state key of the old
        schema must survive with its type, otherwise live objects would
        stop validating.  Violations raise :class:`DeploymentError`
        before anything is touched.  If the new definition cannot be
        provisioned, the previous services are provisioned again and
        the error re-raised: the class keeps serving its old version.
        """
        old_runtime = self.runtime(resolved.name)
        old_resolved = self._resolved[resolved.name]
        for old_spec in old_resolved.state:
            new_spec = resolved.state.get(old_spec.name)
            if new_spec is None:
                raise DeploymentError(
                    f"class update for {resolved.name!r} drops state key "
                    f"{old_spec.name!r}; existing objects would stop validating"
                )
            if new_spec.dtype is not old_spec.dtype:
                raise DeploymentError(
                    f"class update for {resolved.name!r} changes the type of "
                    f"state key {old_spec.name!r} "
                    f"({old_spec.dtype.value} -> {new_spec.dtype.value})"
                )
        chosen = template or self.catalog.select(resolved.nfr)
        # Re-run placement for the new definition before touching the
        # old services: re-provisioned pods must honour
        # jurisdiction/latency constraints exactly like the initial
        # deploy (updates used to spill outside them).
        _, node_hints = self._placement_for(resolved)
        self._teardown(old_runtime)
        try:
            runtime = self._install(
                resolved, chosen, old_runtime.dht, old_runtime.router, node_hints,
                update=True,
            )
        except Exception:
            # The new definition could not be provisioned (say, an
            # unregistered image): bring the previous services back.
            old_runtime.services = self._provision(
                old_resolved,
                old_runtime.template.config,
                self._placement_for(old_resolved)[1],
            )
            raise
        return runtime

    def undeploy_class(self, cls: str) -> None:
        runtime = self._runtimes.pop(cls, None)
        if runtime is None:
            raise UnknownClassError(f"class {cls!r} is not deployed")
        self._resolved.pop(cls, None)
        self.generation += 1
        self.costs.unregister(cls)
        if self.durability is not None:
            self.durability.detach(cls, runtime=runtime)
        self._teardown(runtime)

    def _engine(self, name: str) -> FaasEngine:
        return self.knative if name == "knative" else self.deployment

    def _teardown(self, runtime: ClassRuntime) -> None:
        engine = self._engine(runtime.engine_name)
        for svc in runtime.services.values():
            engine.delete(svc.name)

    # -- RuntimeDirectory protocol ------------------------------------------------

    def resolved(self, cls: str) -> ResolvedClass:
        resolved = self._resolved.get(cls)
        if resolved is None:
            raise UnknownClassError(
                f"class {cls!r} is not deployed; deployed: {self.deployed_classes()}"
            )
        return resolved

    def dht_for(self, cls: str) -> Dht:
        return self.runtime(cls).dht

    def router_for(self, cls: str) -> ObjectRouter:
        return self.runtime(cls).router

    def service_for(self, cls: str, fn_name: str) -> FunctionService:
        runtime = self.runtime(cls)
        svc = runtime.services.get(fn_name)
        if svc is not None:
            return svc
        # Inherited methods may be served by an ancestor's runtime when
        # the child's own deployment was trimmed (not the default path,
        # but undeploy/redeploy sequences can produce it).
        for ancestor in runtime.resolved.ancestry[1:]:
            parent_runtime = self._runtimes.get(ancestor)
            if parent_runtime and fn_name in parent_runtime.services:
                return parent_runtime.services[fn_name]
        raise UnknownFunctionError(
            f"no service for {cls}.{fn_name}; deployed services: "
            f"{sorted(runtime.services)}"
        )

    def policy_for(self, cls: str) -> ResiliencePolicy:
        """The resilience policy the invoker enforces for ``cls``."""
        return self.runtime(cls).resilience

    def set_policy(self, cls: str, policy: ResiliencePolicy) -> None:
        """Operator override of a deployed class's resilience policy."""
        self.runtime(cls).resilience = policy

    def deployed_classes(self) -> tuple[str, ...]:
        return tuple(sorted(self._runtimes))

    # -- introspection ---------------------------------------------------------------

    def runtime(self, cls: str) -> ClassRuntime:
        runtime = self._runtimes.get(cls)
        if runtime is None:
            raise UnknownClassError(
                f"class {cls!r} is not deployed; deployed: {self.deployed_classes()}"
            )
        return runtime

    @property
    def runtimes(self) -> Mapping[str, ClassRuntime]:
        return dict(self._runtimes)

    def describe(self) -> list[dict[str, Any]]:
        return [self._runtimes[cls].describe() for cls in sorted(self._runtimes)]
