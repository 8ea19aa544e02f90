"""The cluster: nodes (worker VMs) and the pods bound to them.

The evaluation scales *worker VMs* from 3 to 12 (Fig. 3); each VM is a
:class:`Node` with a fixed capacity.  The cluster tracks allocations
and delegates placement decisions to a scheduler.
"""

from __future__ import annotations

import itertools

from repro.errors import SchedulingError, ValidationError
from repro.monitoring.events import EventLog
from repro.orchestrator.pod import Pod, PodPhase, PodSpec
from repro.orchestrator.resources import ResourceSpec
from repro.orchestrator.topology import ZoneTopology
from repro.sim.kernel import Environment

__all__ = ["Node", "Cluster"]


class Node:
    """One worker VM."""

    def __init__(
        self,
        name: str,
        capacity: ResourceSpec,
        labels: dict[str, str] | None = None,
    ) -> None:
        if not name:
            raise ValidationError("node name must be non-empty")
        self.name = name
        self.capacity = capacity
        self.labels = dict(labels or {})
        self.pods: dict[str, Pod] = {}

    @property
    def allocated(self) -> ResourceSpec:
        total = ResourceSpec()
        for pod in self.pods.values():
            total = total + pod.spec.resources
        return total

    @property
    def allocatable(self) -> ResourceSpec:
        return self.capacity - self.allocated

    def can_fit(self, request: ResourceSpec) -> bool:
        return request.fits_within(self.allocatable)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} alloc={self.allocated} cap={self.capacity}>"


class Cluster:
    """Node inventory, its zone topology, pod lifecycle (bind, terminate)."""

    def __init__(
        self,
        env: Environment,
        events: EventLog | None = None,
        topology: ZoneTopology | None = None,
    ) -> None:
        self.env = env
        self.events = events if events is not None else EventLog(env)
        #: The zones node ``region`` labels name; open (flat) by default.
        self.topology = topology if topology is not None else ZoneTopology()
        #: Dicts remembering an answer per node *name* (a pair's RTT, a
        #: geo-route).  A name may come back in another zone, so every
        #: join and leave clears them.
        self.memos: list[dict] = []
        self._nodes: dict[str, Node] = {}
        self._pods: dict[str, Pod] = {}
        self._pod_seq = itertools.count(1)

    # -- nodes ---------------------------------------------------------------

    def add_node(
        self,
        name: str,
        capacity: ResourceSpec | None = None,
        labels: dict[str, str] | None = None,
    ) -> Node:
        if name in self._nodes:
            raise ValidationError(f"node {name!r} already exists")
        node = Node(name, capacity or ResourceSpec(4000, 16384), labels)
        self.topology.admit(node.labels.get("region"))
        self._nodes[name] = node
        self._membership_changed()
        return node

    def remove_node(self, name: str) -> None:
        """Drain and remove a node; its pods are terminated."""
        node = self._nodes.pop(name, None)
        if node is None:
            raise ValidationError(f"no node {name!r}")
        self._membership_changed()
        for pod in list(node.pods.values()):
            self.terminate_pod(pod.name)

    def _membership_changed(self) -> None:
        for memo in self.memos:
            memo.clear()

    def node(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            raise ValidationError(f"no node {name!r}")
        return node

    @property
    def nodes(self) -> list[Node]:
        return [self._nodes[name] for name in sorted(self._nodes)]

    @property
    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def region_of(self, node_name: str) -> str | None:
        """The node's ``region`` label (multi-datacenter deployments).

        Unknown endpoint names (external clients, gateways) resolve to
        ``None`` — region-neutral.
        """
        node = self._nodes.get(node_name)
        return node.labels.get("region") if node is not None else None

    def nodes_in_regions(self, regions: tuple[str, ...] | list[str]) -> list[str]:
        """The jurisdiction filter: nodes whose zone is in ``regions`` by
        name or by jurisdiction region (all nodes when empty).

        Entries naming neither raise :class:`SchedulingError` listing
        the labels that exist — a silent ``[]`` here used to surface
        much later as a confusing "no cluster node" failure.
        """
        known = self.topology.jurisdiction_labels()
        unknown = set(regions) - known
        if unknown:
            raise SchedulingError(
                f"unknown jurisdiction(s) {sorted(unknown)}; "
                f"known zones/regions: {sorted(known)}"
            )
        return [
            name
            for name in sorted(self._nodes)
            if self.topology.matches_jurisdiction(self.region_of(name), regions)
        ]

    @property
    def regions(self) -> tuple[str, ...]:
        """All distinct region labels present in the cluster."""
        return tuple(
            sorted(
                {
                    node.labels["region"]
                    for node in self._nodes.values()
                    if "region" in node.labels
                }
            )
        )

    # -- pods ----------------------------------------------------------------

    def bind_pod(self, spec: PodSpec, node_name: str, name: str | None = None) -> Pod:
        """Create a pod and bind it to ``node_name`` (scheduler output)."""
        node = self.node(node_name)
        if not node.can_fit(spec.resources):
            raise SchedulingError(
                f"pod does not fit on {node_name}: needs {spec.resources}, "
                f"free {node.allocatable}"
            )
        pod_name = name or f"{spec.image.replace('/', '-')}-{next(self._pod_seq)}"
        if pod_name in self._pods:
            raise ValidationError(f"pod {pod_name!r} already exists")
        pod = Pod(self.env, pod_name, spec, events=self.events)
        node.pods[pod_name] = pod
        self._pods[pod_name] = pod
        if self.events.enabled:
            self.events.record(
                "pod.bind", pod=pod_name, node=node_name, image=spec.image
            )
        pod._start(node_name)
        return pod

    def terminate_pod(self, name: str) -> None:
        pod = self._pods.pop(name, None)
        if pod is None:
            return
        if pod.node and pod.node in self._nodes:
            self._nodes[pod.node].pods.pop(name, None)
        if self.events.enabled:
            self.events.record("pod.terminated", pod=name, node=pod.node)
        pod._terminate()

    def pod(self, name: str) -> Pod | None:
        return self._pods.get(name)

    def pods_with_label(self, key: str, value: str) -> list[Pod]:
        return sorted(
            (
                pod
                for pod in self._pods.values()
                if pod.spec.labels.get(key) == value and pod.phase is not PodPhase.TERMINATED
            ),
            key=lambda p: p.name,
        )

    @property
    def pod_count(self) -> int:
        return len(self._pods)

    def total_capacity(self) -> ResourceSpec:
        total = ResourceSpec()
        for node in self._nodes.values():
            total = total + node.capacity
        return total

    def total_allocated(self) -> ResourceSpec:
        total = ResourceSpec()
        for node in self._nodes.values():
            total = total + node.allocated
        return total
