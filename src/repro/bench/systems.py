"""The four systems compared in Fig. 3.

* ``knative`` — the baseline: a stateless Knative function doing its
  own per-request DB reads/writes (no OaaS layer at all).
* ``oprc`` — Oparaca with Knative as the execution engine: state through
  the DHT, batched write-behind persistence.
* ``oprc-bypass`` — Oparaca executing on plain Kubernetes deployments
  (no activator/queue-proxy overhead, pre-provisioned replicas).
* ``oprc-bypass-nonpersist`` — additionally keeps object data in memory
  only, isolating the database from the picture entirely.

All four share the same cluster geometry, the same document-store
service model, and the same JSON-randomization workload.
"""

from __future__ import annotations

import abc
from typing import Any, Generator

from repro.bench.config import Fig3Config
from repro.bench.workloads import (
    FAAS_IMAGE,
    OAAS_IMAGE,
    initial_document,
    register_faas_handler,
    register_oaas_handler,
)
from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog, TemplateSelector
from repro.errors import ValidationError
from repro.faas.deployment_engine import DeploymentModel
from repro.faas.knative import KnativeEngine, KnativeModel
from repro.faas.registry import FunctionRegistry
from repro.faas.runtime import InvocationTask
from repro.invoker.request import InvocationRequest
from repro.invoker.router import PlacementPolicy
from repro.model.cls import ClassDefinition, FunctionBinding
from repro.model.function import FunctionDefinition, ProvisionSpec
from repro.model.pkg import Package
from repro.model.types import DataType, KeySpec, StateSpec
from repro.object.obj import ObjectRecord
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.scheduler import Scheduler
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import Environment
from repro.sim.network import NetworkModel
from repro.sim.rng import RngStreams
from repro.storage.kv import DbModel, DocumentStore
from repro.storage.write_behind import WriteBehindConfig

__all__ = ["BenchSystem", "OprcSystem", "KnativeBaselineSystem", "build_system", "SYSTEMS"]

SYSTEMS = ("knative", "oprc", "oprc-bypass", "oprc-bypass-nonpersist")


def _db_model(cfg: Fig3Config) -> DbModel:
    return DbModel(
        capacity_units_per_s=cfg.db_capacity_units,
        op_cost=cfg.db_op_cost,
        doc_cost=cfg.db_doc_cost,
        read_cost=cfg.db_read_cost,
    )


class BenchSystem(abc.ABC):
    """One system under test: an environment plus a request generator."""

    name: str

    def __init__(self, cfg: Fig3Config, nodes: int) -> None:
        self.cfg = cfg
        self.nodes = nodes

    @property
    @abc.abstractmethod
    def env(self) -> Environment:
        """The system's simulation environment."""

    @abc.abstractmethod
    def prepare(self) -> None:
        """Deploy the application and seed the object population."""

    @abc.abstractmethod
    def request(self, index: int) -> Generator:
        """One client request (a process generator)."""

    @abc.abstractmethod
    def extras(self) -> dict[str, Any]:
        """System-specific counters for the report."""

    def shutdown(self) -> None:
        """Stop background loops (optional)."""


class OprcSystem(BenchSystem):
    """Oparaca in one of its three Fig. 3 configurations."""

    def __init__(
        self,
        cfg: Fig3Config,
        nodes: int,
        variant: str = "oprc",
        replication: int = 1,
    ) -> None:
        super().__init__(cfg, nodes)
        if variant not in ("oprc", "oprc-bypass", "oprc-bypass-nonpersist"):
            raise ValidationError(f"unknown oprc variant {variant!r}")
        self.name = variant
        self.variant = variant
        bypass = variant != "oprc"
        persistent = variant != "oprc-bypass-nonpersist"
        write_behind = WriteBehindConfig(
            batch_size=cfg.batch_size, linger_s=cfg.linger_s, max_pending=cfg.max_pending
        )
        template = ClassRuntimeTemplate(
            name=f"bench-{variant}",
            selector=TemplateSelector(),
            config=RuntimeConfig(
                engine="deployment" if bypass else "knative",
                placement=PlacementPolicy.LOCALITY,
                replication=replication,
                persistent=persistent,
                write_behind=write_behind,
                min_scale_override=cfg.max_pods(nodes) if bypass else None,
            ),
            priority=100,
            description="benchmark-pinned runtime",
        )
        self.platform = Oparaca(
            PlatformConfig(
                nodes=nodes,
                node_cpu_millis=cfg.node_cpu_millis,
                node_memory_mb=cfg.node_memory_mb,
                seed=cfg.seed,
                db=_db_model(cfg),
                network=NetworkModel(),
                knative=KnativeModel(
                    request_overhead_s=cfg.knative_overhead_s,
                    cold_start_s=cfg.cold_start_s,
                    scale_to_zero_grace_s=3600.0,
                ),
                deployment=DeploymentModel(
                    request_overhead_s=cfg.deployment_overhead_s,
                    cold_start_s=cfg.cold_start_s,
                ),
                catalog=TemplateCatalog([template]),
            )
        )
        register_oaas_handler(
            self.platform.registry, cfg.service_time_s, fields=cfg.json_fields
        )
        self._rng = RngStreams(cfg.seed).stream("oprc-object-pick")
        self._object_ids: list[str] = []

    @property
    def env(self) -> Environment:
        return self.platform.env

    def _package(self) -> Package:
        definition = FunctionDefinition(
            name="randomize",
            image=OAAS_IMAGE,
            provision=ProvisionSpec(
                concurrency=self.cfg.concurrency,
                cpu_millis=self.cfg.pod_cpu_millis,
                memory_mb=self.cfg.pod_memory_mb,
                min_scale=1,
                max_scale=self.cfg.max_pods(self.nodes),
            ),
        )
        doc_cls = ClassDefinition(
            name="Doc",
            state=StateSpec((KeySpec("data", DataType.JSON),)),
            bindings=(FunctionBinding(name="randomize", function=definition),),
        )
        return Package(name="bench", classes=(doc_cls,))

    def prepare(self) -> None:
        self.platform.deploy(self._package())
        runtime = self.platform.crm.runtime("Doc")
        for index in range(self.cfg.objects):
            record = ObjectRecord(
                id=f"Doc~{index}",
                cls="Doc",
                version=1,
                state={"data": initial_document(index, self.cfg.json_fields)},
            )
            runtime.dht.seed(record.to_doc())
            self._object_ids.append(record.id)

    def request(self, index: int) -> Generator:
        object_id = self._object_ids[self._rng.randrange(len(self._object_ids))]
        result = yield self.platform.engine.invoke(
            InvocationRequest(
                object_id=object_id, fn_name="randomize", payload={"seed": index}
            )
        )
        if not result.ok:
            raise RuntimeError(result.error)
        return result

    def extras(self) -> dict[str, Any]:
        runtime = self.platform.crm.runtime("Doc")
        svc = runtime.services["randomize"]
        out: dict[str, Any] = {
            "db_write_ops": self.platform.store.write_ops,
            "db_docs_written": self.platform.store.docs_written,
            "db_read_ops": self.platform.store.read_ops,
            "db_multi_read_ops": self.platform.store.multi_read_ops,
            "replicas": svc.replicas,
            "cold_starts": svc.cold_starts,
            "cas_conflicts": self.platform.engine.cas_conflicts,
        }
        if runtime.dht.model.persistent:
            out.update(runtime.dht.write_behind_stats)
        out.update(runtime.dht.read_path_stats)
        return out

    def shutdown(self) -> None:
        self.platform.shutdown()


class KnativeBaselineSystem(BenchSystem):
    """The stateless-FaaS baseline: Knative + direct DB access."""

    name = "knative"

    def __init__(self, cfg: Fig3Config, nodes: int) -> None:
        super().__init__(cfg, nodes)
        self._env = Environment()
        self.cluster = Cluster(self._env)
        for index in range(nodes):
            self.cluster.add_node(
                f"vm-{index}", ResourceSpec(cfg.node_cpu_millis, cfg.node_memory_mb)
            )
        self.scheduler = Scheduler(self.cluster)
        self.registry = FunctionRegistry()
        register_faas_handler(self.registry, cfg.service_time_s, fields=cfg.json_fields)
        self.store = DocumentStore(self._env, _db_model(cfg))
        self.engine = KnativeEngine(
            self._env,
            self.scheduler,
            self.registry,
            KnativeModel(
                request_overhead_s=cfg.knative_overhead_s,
                cold_start_s=cfg.cold_start_s,
                scale_to_zero_grace_s=3600.0,
            ),
        )
        self.service = None
        self._rng = RngStreams(cfg.seed).stream("knative-object-pick")
        self._keys: list[str] = []

    @property
    def env(self) -> Environment:
        return self._env

    def prepare(self) -> None:
        definition = FunctionDefinition(
            name="randomize",
            image=FAAS_IMAGE,
            provision=ProvisionSpec(
                concurrency=self.cfg.concurrency,
                cpu_millis=self.cfg.pod_cpu_millis,
                memory_mb=self.cfg.pod_memory_mb,
                min_scale=1,
                max_scale=self.cfg.max_pods(self.nodes),
            ),
        )
        self.service = self.engine.deploy(
            "json-random", definition, services={"db": self.store}
        )
        for index in range(self.cfg.objects):
            key = f"doc-{index}"
            self.store.put_sync(
                "objects",
                {
                    "id": key,
                    "data": initial_document(index, self.cfg.json_fields),
                },
            )
            self._keys.append(key)

    def request(self, index: int) -> Generator:
        key = self._keys[self._rng.randrange(len(self._keys))]
        task = InvocationTask(
            request_id=f"kn-{index}",
            cls="-",
            object_id=key,
            fn_name="randomize",
            image=FAAS_IMAGE,
            payload={"key": key, "seed": index},
        )
        completion = yield self.service.invoke(task)
        if not completion.ok:
            raise RuntimeError(completion.error)
        return completion

    def extras(self) -> dict[str, Any]:
        return {
            "db_write_ops": self.store.write_ops,
            "db_docs_written": self.store.docs_written,
            "db_read_ops": self.store.read_ops,
            "replicas": self.service.replicas if self.service else 0,
            "cold_starts": self.service.cold_starts if self.service else 0,
        }

    def shutdown(self) -> None:
        if self.service is not None:
            self.service.stop()


def build_system(name: str, cfg: Fig3Config, nodes: int) -> BenchSystem:
    """Factory over the four Fig. 3 systems."""
    if name == "knative":
        return KnativeBaselineSystem(cfg, nodes)
    if name in ("oprc", "oprc-bypass", "oprc-bypass-nonpersist"):
        return OprcSystem(cfg, nodes, variant=name)
    raise ValidationError(f"unknown system {name!r}; expected one of {SYSTEMS}")
