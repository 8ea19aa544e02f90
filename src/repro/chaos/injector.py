"""The chaos injector: replays a :class:`FaultPlan` against a live
platform, deterministically.

Each fault kind is one :class:`FaultKind` row of :data:`FAULT_KINDS`:
an ``inject`` that applies the fault through the platform's own seam
and returns a handle, a ``recover`` that releases exactly that handle,
and the plane the kind needs.  The seams are node membership for
crashes, the network fault state for partitions and delays, FaaS
slowdown hooks for saturated hosts, the document store's write-fault
knob, deployment scaling for cold-start storms, and the scheduler
plane's worker knobs.  No fault bypasses the data path the workload
actually uses.  A new kind is one dataclass in :mod:`repro.chaos.plan`
plus one row here.

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

from typing import TYPE_CHECKING, Any, Callable, Generator, NamedTuple

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
from repro.monitoring.nfr_table import Objective
from repro.plane import Plane
from repro.sim.kernel import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.oparaca import Oparaca

#: Chaos action spans share one synthetic trace (like ``"resilience"``).
CHAOS_TRACE_ID = "chaos"

__all__ = ["CHAOS_TRACE_ID", "ChaosInjector", "FaultWindow"]


class FaultKind(NamedTuple):
    """How one fault kind is applied and released."""

    #: ``inject(injector, fault) -> handle``: apply the fault.
    inject: Callable[[ChaosInjector, Any], Any]
    #: ``recover(injector, fault, handle)``: release that handle and
    #: nothing else.  ``None`` marks an instantaneous kind, which opens
    #: no availability window.
    recover: Callable[[ChaosInjector, Any, Any], None] | None
    #: The plane the kind acts on, when it is not the baseline platform.
    plane: str | None = None


# -- the seams ---------------------------------------------------------------


def _crash_node(injector: ChaosInjector, fault: NodeCrash) -> str | None:
    region = injector.platform.cluster.region_of(fault.node)
    injector.platform.fail_node(fault.node)
    return region


def _restart_node(injector: ChaosInjector, fault: NodeCrash, region: str | None) -> None:
    injector.platform.add_node(fault.node, region=region)


def _cut(injector: ChaosInjector, nodes) -> int:
    return injector.platform.network.fault_state().isolate(nodes)


def _heal(injector: ChaosInjector, nodes, token: int) -> None:
    injector.platform.network.fault_state().heal(token)
    # Anti-entropy: replicas on both sides reconverge on the newest
    # version of every key they own.
    isolated = set(nodes)
    for runtime in injector.platform.crm.runtimes.values():
        if isolated & set(runtime.dht.nodes):
            runtime.dht.rebalance()


def _delay(injector: ChaosInjector, extra_s: float, src, dst) -> int:
    return injector.platform.network.fault_state().add_delay(extra_s, src=src, dst=dst)


def _undelay(injector: ChaosInjector, fault: Fault, token: int) -> None:
    injector.platform.network.fault_state().remove_delay(token)


def _zone(injector: ChaosInjector, zone: str) -> list[str]:
    # ValidationError for unknown zones.
    return injector.platform.planes["federation"].planner.nodes_in_zone(zone)


def _workers(injector: ChaosInjector):
    return injector.platform.planes["scheduler"]


def _services(injector: ChaosInjector, classes: tuple[str, ...]):
    for cls, runtime in sorted(injector.platform.crm.runtimes.items()):
        if classes and cls not in classes:
            continue
        for _name, svc in sorted(runtime.services.items()):
            yield runtime, svc


def _slow_pods(injector: ChaosInjector, fault: SlowPods) -> None:
    for _runtime, svc in _services(injector, (fault.cls,) if fault.cls else ()):
        svc.set_slowdown(fault.factor, node=fault.node)


def _unslow_pods(injector: ChaosInjector, fault: SlowPods, _handle: None) -> None:
    for _runtime, svc in _services(injector, (fault.cls,) if fault.cls else ()):
        svc.clear_slowdown(node=fault.node)


def _fail_writes(injector: ChaosInjector, fault: StorageFaults) -> None:
    # Every StorageFaults of a run draws from the platform's one seeded
    # "chaos.storage" stream (created on first use).
    injector.platform.store.set_write_fault(
        fault.error_rate, rng=injector.platform.rng.stream("chaos.storage")
    )


def _storm(injector: ChaosInjector, fault: ColdStartStorm) -> None:
    for runtime, svc in _services(injector, fault.classes):
        prior = max(1, svc.deployment.desired)
        svc.deployment.scale(0)
        if runtime.engine_name != "knative":
            # Plain deployments cannot scale from zero; replace the
            # evicted pods with cold-booting ones instead.
            svc.deployment.scale(prior)


def _restart_worker(injector: ChaosInjector, fault: WorkerCrash, _handle: bool) -> None:
    plane = _workers(injector)
    current = plane.workers.get(fault.worker)
    if current is None or current.machine.is_dead:
        plane.register_worker(fault.worker)


#: One row per fault kind.  A fault gets a recover action only when its
#: ``duration_s > 0``: a permanent crash holds (and keeps its
#: availability window open) for the rest of the run.
FAULT_KINDS: dict[type[Fault], FaultKind] = {
    NodeCrash: FaultKind(_crash_node, _restart_node),
    Partition: FaultKind(
        lambda inj, f: _cut(inj, f.nodes),
        lambda inj, f, token: _heal(inj, f.nodes, token),
    ),
    # A scoped endpoint is one node name, not a set of its characters.
    NetworkDelay: FaultKind(
        lambda inj, f: _delay(inj, f.extra_s, f.src and (f.src,), f.dst and (f.dst,)),
        _undelay,
    ),
    SlowPods: FaultKind(_slow_pods, _unslow_pods),
    StorageFaults: FaultKind(
        _fail_writes, lambda inj, f, _handle: inj.platform.store.clear_write_fault()
    ),
    # Instantaneous: the storm's cost is the cold starts that follow,
    # which the latency metrics capture.
    ColdStartStorm: FaultKind(_storm, None),
    WorkerCrash: FaultKind(
        lambda inj, f: _workers(inj).crash_worker(f.worker, reason="chaos"),
        _restart_worker,
        "scheduler",
    ),
    HeartbeatLoss: FaultKind(
        lambda inj, f: _workers(inj).suppress_heartbeats(f.worker, f.duration_s),
        lambda inj, f, _handle: _workers(inj).resume_heartbeats(f.worker),
        "scheduler",
    ),
    SlowWorker: FaultKind(
        lambda inj, f: _workers(inj).set_worker_slow(f.worker, f.factor),
        lambda inj, f, _handle: _workers(inj).clear_worker_slow(f.worker),
        "scheduler",
    ),
    # The zone's nodes are looked up again at heal time.
    ZonePartition: FaultKind(
        lambda inj, f: _cut(inj, _zone(inj, f.zone)),
        lambda inj, f, token: _heal(inj, _zone(inj, f.zone), token),
        "federation",
    ),
    WanDegradation: FaultKind(
        lambda inj, f: _delay(
            inj,
            f.extra_s,
            _zone(inj, f.src_zone),
            _zone(inj, f.dst_zone) if f.dst_zone is not None else None,
        ),
        _undelay,
        "federation",
    ),
}


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
        faults = sorted(self.plan.faults, key=lambda f: (f.at, f.kind))
        kinds = [FAULT_KINDS.get(type(fault)) for fault in faults]
        for fault, kind in zip(faults, kinds):
            if kind is None:
                raise SimulationError(f"no injector row for fault kind {fault.kind!r}")
            if kind.plane is not None and kind.plane not in self.platform.planes:
                raise SimulationError(
                    f"{fault.kind} targets the {kind.plane} plane; enable it with "
                    f"PlatformConfig({kind.plane}={kind.plane.capitalize()}Config(enabled=True))"
                )
        # (when, phase, index) with phase 0 = recover, 1 = inject: at the
        # same instant, heal the previous fault before injecting the next.
        actions = [(fault.at, 1, index) for index, fault in enumerate(faults)]
        actions += [
            (fault.at + fault.duration_s, 0, index)
            for index, fault in enumerate(faults)
            if fault.duration_s > 0
        ]
        actions.sort()
        handles: dict[int, Any] = {}
        for when, phase, index in actions:
            if when > self.env.now:
                yield self.env.timeout(when - self.env.now)
            fault, kind = faults[index], kinds[index]
            if phase:
                handles[index] = kind.inject(self, fault)
                self._on_inject(fault, holds=kind.recover is not None)
            else:
                kind.recover(self, fault, handles.pop(index))
                self._on_recover(fault)

    # -- window + event accounting -------------------------------------------

    def _emit(self, kind: str, fault: Fault) -> None:
        fields = fault.describe()
        fields.pop("at", None)
        # The event carries the fault's fields; the span is named after
        # the fault kind and carries only the plan.
        emit(self.events, None, CHAOS_TRACE_ID, kind, plan=self.plan.name, **fields)
        emit(None, self.tracer, CHAOS_TRACE_ID, f"{kind} {fault.kind}", plan=self.plan.name)

    def _on_inject(self, fault: Fault, holds: bool) -> None:
        self.injected += 1
        self._emit("chaos.inject", fault)
        if not holds:
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

    def verdicts(self, cls: str, runtime: Any) -> list[Objective]:
        """The ``availability_under_fault`` row: the success fraction of
        invocations completed while a fault was held — what separates a
        replicated class riding out a crash from an ephemeral one."""
        floor = runtime.resolved.nfr.qos.availability
        if floor is None:
            return []

        def under_fault() -> tuple[float, bool, str] | None:
            completed, failed = self.fault_counts().get(cls, (0, 0))
            if not completed + failed:
                return None
            observed = completed / (completed + failed)
            return observed, observed >= floor, (
                f"{completed + failed} invocations during fault windows"
            )

        return [Objective(cls, "availability_under_fault", floor, "resilience policy", under_fault)]

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
