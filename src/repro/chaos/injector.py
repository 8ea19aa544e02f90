"""The chaos injector: replays a :class:`FaultPlan` against a live
platform, deterministically.

The injector compiles the plan into a timeline of inject/recover
actions, walks it as a simulation process, and applies each fault
through the platform's own seams — node membership for crashes, the
network fault state for partitions and delays, FaaS slowdown hooks for
saturated hosts, the document store's write-fault knob, and deployment
scaling for cold-start storms.  No fault bypasses the data path the
workload actually uses.

Every action emits a ``chaos.inject``/``chaos.recover`` control-plane
event (and an instantaneous span under the ``"chaos"`` trace), so fault
timelines line up with retries, breaker transitions, and request spans
in the exported traces.

While at least one fault is held, the injector keeps an *availability
window* open: per-class completed/failed counters are snapshotted when
the window opens and the deltas accumulated when it closes, yielding
:meth:`ChaosInjector.fault_availability` — the number the NFR report
compares against each class's declared availability target.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.chaos.plan import (
    ColdStartStorm,
    Fault,
    FaultPlan,
    HeartbeatLoss,
    NetworkDelay,
    NodeCrash,
    Partition,
    SlowPods,
    SlowWorker,
    StorageFaults,
    WanDegradation,
    WorkerCrash,
    ZonePartition,
)
from repro.errors import SimulationError
from repro.monitoring.events import emit
from repro.monitoring.metrics import set_counter
from repro.plane import Plane
from repro.sim.kernel import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.oparaca import Oparaca

#: Chaos action spans share one synthetic trace (like ``"resilience"``).
CHAOS_TRACE_ID = "chaos"

__all__ = ["CHAOS_TRACE_ID", "ChaosInjector", "FaultWindow"]


class FaultWindow:
    """One contiguous span of wall-clock (sim) time with faults active."""

    def __init__(self, started_at: float) -> None:
        self.started_at = started_at
        self.ended_at: float | None = None

    @property
    def open(self) -> bool:
        return self.ended_at is None

    def to_dict(self) -> dict[str, Any]:
        return {"started_at": self.started_at, "ended_at": self.ended_at}


class ChaosInjector(Plane):
    """Executes one fault plan against one platform instance."""

    name = "chaos"

    def __init__(self, platform: "Oparaca", plan: FaultPlan) -> None:
        self.platform = platform
        self.plan = plan
        self.env = platform.env
        self.events = platform.events
        self.tracer = platform.tracer
        self.injected = 0
        self.recovered = 0
        self.windows: list[FaultWindow] = []
        self._active = 0
        self._process: Process | None = None
        self._storage_rng: random.Random | None = None
        # Per-class (completed, failed) at the moment the current window
        # opened, and the accumulated under-fault deltas of closed windows.
        self._window_base: dict[str, tuple[int, int]] = {}
        self._fault_completed: dict[str, int] = {}
        self._fault_failed: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Process:
        """Launch the injection timeline; returns its process."""
        if self._process is not None:
            return self._process
        self._process = self.env.process(self._run())
        return self._process

    @property
    def done(self) -> bool:
        return self._process is not None and self._process.triggered

    def _run(self) -> Generator[Any, Any, None]:
        actions: list[tuple[float, int, int, Callable[[], None]]] = []
        for index, fault in enumerate(
            sorted(self.plan.faults, key=lambda f: (f.at, f.kind))
        ):
            inject, recover = self._compile(fault)
            # Phase 0 = recover, 1 = inject: at the same instant, heal
            # the previous fault before injecting the next one.
            actions.append((fault.at, 1, index, inject))
            if recover is not None:
                actions.append((fault.at + fault.duration_s, 0, index, recover))
        actions.sort(key=lambda entry: entry[:3])
        for when, _phase, _index, action in actions:
            if when > self.env.now:
                yield self.env.timeout(when - self.env.now)
            action()

    # -- fault compilation ---------------------------------------------------

    def _compile(
        self, fault: Fault
    ) -> tuple[Callable[[], None], Callable[[], None] | None]:
        """Build the (inject, recover) closures for one fault."""
        if isinstance(fault, NodeCrash):
            return self._compile_node_crash(fault)
        if isinstance(fault, Partition):
            return self._compile_partition(fault)
        if isinstance(fault, NetworkDelay):
            return self._compile_delay(fault)
        if isinstance(fault, SlowPods):
            return self._compile_slow_pods(fault)
        if isinstance(fault, StorageFaults):
            return self._compile_storage(fault)
        if isinstance(fault, ColdStartStorm):
            return self._compile_storm(fault)
        if isinstance(fault, WorkerCrash):
            return self._compile_worker_crash(fault)
        if isinstance(fault, HeartbeatLoss):
            return self._compile_heartbeat_loss(fault)
        if isinstance(fault, SlowWorker):
            return self._compile_slow_worker(fault)
        if isinstance(fault, ZonePartition):
            return self._compile_zone_partition(fault)
        if isinstance(fault, WanDegradation):
            return self._compile_wan_degradation(fault)
        raise NotImplementedError(f"no injector for fault kind {fault.kind!r}")

    def _compile_node_crash(self, fault: NodeCrash):
        region_box: list[str | None] = [None]

        def inject() -> None:
            region_box[0] = self.platform.cluster.region_of(fault.node)
            self.platform.fail_node(fault.node)
            self._on_inject(fault)

        if not fault.duration_s:
            # Permanent crash: the platform stays degraded, the
            # availability window stays open for the rest of the run.
            return inject, None

        def recover() -> None:
            self.platform.add_node(fault.node, region=region_box[0])
            self._on_recover(fault)

        return inject, recover

    def _compile_partition(self, fault: Partition):
        def inject() -> None:
            self.platform.network.fault_state().isolate(fault.nodes)
            self._on_inject(fault)

        def recover() -> None:
            self.platform.network.fault_state().clear_partition()
            # Anti-entropy: replicas on both sides reconverge on the
            # newest version of every key they own.
            isolated = set(fault.nodes)
            for runtime in self.platform.crm.runtimes.values():
                if isolated & set(runtime.dht.nodes):
                    runtime.dht.rebalance()
            self._on_recover(fault)

        return inject, recover

    def _compile_delay(self, fault: NetworkDelay):
        token_box: list[object] = [None]

        def inject() -> None:
            token_box[0] = self.platform.network.fault_state().add_delay(
                fault.extra_s, src=fault.src, dst=fault.dst
            )
            self._on_inject(fault)

        def recover() -> None:
            self.platform.network.fault_state().remove_delay(token_box[0])
            self._on_recover(fault)

        return inject, recover

    def _services_of(self, classes: tuple[str, ...]):
        for cls, runtime in sorted(self.platform.crm.runtimes.items()):
            if classes and cls not in classes:
                continue
            for _name, svc in sorted(runtime.services.items()):
                yield runtime, svc

    def _compile_slow_pods(self, fault: SlowPods):
        classes = (fault.cls,) if fault.cls else ()

        def inject() -> None:
            for _runtime, svc in self._services_of(classes):
                svc.set_slowdown(fault.factor, node=fault.node)
            self._on_inject(fault)

        def recover() -> None:
            for _runtime, svc in self._services_of(classes):
                svc.clear_slowdown(node=fault.node)
            self._on_recover(fault)

        return inject, recover

    def _compile_storage(self, fault: StorageFaults):
        def inject() -> None:
            if self._storage_rng is None:
                self._storage_rng = self.platform.rng.stream("chaos.storage")
            self.platform.store.set_write_fault(
                fault.error_rate, rng=self._storage_rng
            )
            self._on_inject(fault)

        def recover() -> None:
            self.platform.store.clear_write_fault()
            self._on_recover(fault)

        return inject, recover

    def _compile_storm(self, fault: ColdStartStorm):
        def inject() -> None:
            for runtime, svc in self._services_of(fault.classes):
                prior = max(1, svc.deployment.desired)
                svc.deployment.scale(0)
                if runtime.engine_name != "knative":
                    # Plain deployments cannot scale from zero; replace
                    # the evicted pods with cold-booting ones instead.
                    svc.deployment.scale(prior)
            self._on_inject(fault)

        # Instantaneous: the storm's cost is the cold starts that follow,
        # which the latency metrics capture; no availability window.
        return inject, None

    def _plane(self, fault: Fault, name: str):
        """The plane a fault targets, from the platform's registry."""
        plane = self.platform.planes.get(name)
        if plane is None:
            raise SimulationError(
                f"{fault.kind} targets the {name} plane; enable it with "
                f"PlatformConfig({name}={name.capitalize()}Config(enabled=True))"
            )
        return plane

    def _compile_worker_crash(self, fault: WorkerCrash):
        plane = self._plane(fault, "scheduler")

        def inject() -> None:
            plane.crash_worker(fault.worker, reason="chaos")
            self._on_inject(fault)

        if not fault.duration_s:
            # Permanent: pool replacement policy (if on) already filled
            # the slot; the named worker itself never returns.
            return inject, None

        def recover() -> None:
            current = plane.workers.get(fault.worker)
            if current is None or current.machine.is_dead:
                plane.register_worker(fault.worker)
            self._on_recover(fault)

        return inject, recover

    def _compile_heartbeat_loss(self, fault: HeartbeatLoss):
        plane = self._plane(fault, "scheduler")

        def inject() -> None:
            plane.suppress_heartbeats(fault.worker, fault.duration_s)
            self._on_inject(fault)

        def recover() -> None:
            plane.resume_heartbeats(fault.worker)
            self._on_recover(fault)

        return inject, recover

    def _compile_slow_worker(self, fault: SlowWorker):
        plane = self._plane(fault, "scheduler")

        def inject() -> None:
            plane.set_worker_slow(fault.worker, fault.factor)
            self._on_inject(fault)

        def recover() -> None:
            plane.clear_worker_slow(fault.worker)
            self._on_recover(fault)

        return inject, recover

    def _zone_nodes(self, plane, zone: str) -> list[str]:
        return plane.planner.nodes_in_zone(zone)  # ValidationError for unknown zones

    def _compile_zone_partition(self, fault: ZonePartition):
        plane = self._plane(fault, "federation")

        def inject() -> None:
            nodes = self._zone_nodes(plane, fault.zone)
            self.platform.network.fault_state().isolate(nodes)
            self._on_inject(fault)

        def recover() -> None:
            self.platform.network.fault_state().clear_partition()
            # Anti-entropy, exactly like a healed Partition: zone-side
            # replicas reconverge with the rest of the federation.
            isolated = set(self._zone_nodes(plane, fault.zone))
            for runtime in self.platform.crm.runtimes.values():
                if isolated & set(runtime.dht.nodes):
                    runtime.dht.rebalance()
            self._on_recover(fault)

        return inject, recover

    def _compile_wan_degradation(self, fault: WanDegradation):
        plane = self._plane(fault, "federation")
        token_box: list[object] = [None]

        def inject() -> None:
            src = self._zone_nodes(plane, fault.src_zone)
            dst = (
                self._zone_nodes(plane, fault.dst_zone)
                if fault.dst_zone is not None
                else None
            )
            token_box[0] = self.platform.network.fault_state().add_delay(
                fault.extra_s, src=src, dst=dst
            )
            self._on_inject(fault)

        def recover() -> None:
            self.platform.network.fault_state().remove_delay(token_box[0])
            self._on_recover(fault)

        return inject, recover

    # -- window + event accounting -------------------------------------------

    def _emit(self, kind: str, fault: Fault) -> None:
        fields = fault.describe()
        fields.pop("at", None)
        # The event carries the fault's fields; the span is named after
        # the fault kind and carries only the plan.
        emit(self.events, None, CHAOS_TRACE_ID, kind, plan=self.plan.name, **fields)
        emit(None, self.tracer, CHAOS_TRACE_ID, f"{kind} {fault.kind}", plan=self.plan.name)

    def _on_inject(self, fault: Fault) -> None:
        self.injected += 1
        self._emit("chaos.inject", fault)
        if isinstance(fault, ColdStartStorm):
            return
        self._active += 1
        if self._active == 1:
            self.windows.append(FaultWindow(self.env.now))
            self._window_base = {
                cls: (obs.completed, obs.failed) for cls, obs in self._class_obs()
            }

    def _on_recover(self, fault: Fault) -> None:
        self.recovered += 1
        self._emit("chaos.recover", fault)
        self._active -= 1
        if self._active == 0:
            self.windows[-1].ended_at = self.env.now
            for cls, completed, failed in self._window_deltas():
                self._fault_completed[cls] = (
                    self._fault_completed.get(cls, 0) + completed
                )
                self._fault_failed[cls] = self._fault_failed.get(cls, 0) + failed
            self._window_base = {}

    def _class_obs(self):
        monitoring = self.platform.monitoring
        for cls in self.platform.crm.deployed_classes():
            yield cls, monitoring.for_class(cls)

    def _window_deltas(self):
        """Per-class (completed, failed) deltas of the open window."""
        for cls, obs in self._class_obs():
            base_completed, base_failed = self._window_base.get(cls, (0, 0))
            yield cls, obs.completed - base_completed, obs.failed - base_failed

    # -- reporting -----------------------------------------------------------

    def fault_time_s(self) -> float:
        """Total simulated time spent with at least one fault active."""
        total = 0.0
        for window in self.windows:
            total += (window.ended_at if window.ended_at is not None else self.env.now) - window.started_at
        return total

    def fault_counts(self) -> dict[str, tuple[int, int]]:
        """Per-class (completed, failed) during fault windows, live."""
        counts = {
            cls: (self._fault_completed.get(cls, 0), self._fault_failed.get(cls, 0))
            for cls in self.platform.crm.deployed_classes()
        }
        if self._active > 0:
            for cls, completed, failed in self._window_deltas():
                base_completed, base_failed = counts.get(cls, (0, 0))
                counts[cls] = (base_completed + completed, base_failed + failed)
        return counts

    def fault_availability(self) -> dict[str, float | None]:
        """Fraction of invocations that succeeded while faults were
        active, per class; ``None`` when a class saw no traffic then."""
        out: dict[str, float | None] = {}
        for cls, (completed, failed) in self.fault_counts().items():
            total = completed + failed
            out[cls] = completed / total if total else None
        return out

    def collect_metrics(self, registry) -> None:
        """Metrics-plane pull hook: injection totals and live fault state."""
        labels = {"plane": "chaos"}
        set_counter(registry, "chaos.injected", float(self.injected), labels)
        set_counter(registry, "chaos.recovered", float(self.recovered), labels)
        registry.gauge("chaos.active_faults", labels).set(float(self._active))
        registry.gauge("chaos.fault_time_s", labels).set(self.fault_time_s())

    def stats(self) -> dict[str, Any]:
        return {
            "plan": self.plan.describe(),
            "injected": self.injected,
            "recovered": self.recovered,
            "fault_time_s": self.fault_time_s(),
            "windows": [w.to_dict() for w in self.windows],
            "availability_under_fault": self.fault_availability(),
        }
