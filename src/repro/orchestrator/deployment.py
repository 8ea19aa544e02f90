"""Deployments: replica-set management over the scheduler.

A deployment keeps ``replicas`` pods of one spec alive, spreads or pins
them per the scheduler policy, and offers least-loaded pod selection to
the engines routing requests onto it.
"""

from __future__ import annotations

import itertools

from repro.errors import SchedulingError
from repro.orchestrator.pod import Pod, PodPhase, PodSpec
from repro.orchestrator.scheduler import Scheduler
from repro.sim.kernel import Environment

__all__ = ["Deployment"]


class Deployment:
    """Maintains a fleet of identical pods."""

    def __init__(
        self,
        env: Environment,
        name: str,
        spec: PodSpec,
        scheduler: Scheduler,
        replicas: int = 1,
        node_hints: list[str] | None = None,
    ) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        self.scheduler = scheduler
        self.node_hints = list(node_hints or [])
        self._hint_cycle = itertools.cycle(self.node_hints) if self.node_hints else None
        self._seq = itertools.count(1)
        self.pods: list[Pod] = []
        self.desired = 0
        self.scale(replicas)

    @property
    def replicas(self) -> int:
        return len(self.pods)

    @property
    def ready_replicas(self) -> int:
        return sum(1 for pod in self.pods if pod.is_ready)

    def total_in_flight(self) -> int:
        """Requests executing or queued across all replicas."""
        return sum(pod.in_flight for pod in self.pods)

    def _next_hint(self) -> str | None:
        """The next placement hint, skipping nodes that left the cluster.

        Hints are a *constraint*, not a preference: they carry the
        class's jurisdiction/placement decision.  When every hinted node
        has left the cluster the deployment refuses to place (raising
        :class:`SchedulingError`) rather than silently falling back to
        an unconstrained scheduler pick — a healed pod must never land
        outside its class's allowed nodes.
        """
        if not self._hint_cycle:
            return None
        live = set(self.scheduler.cluster.node_names)
        for _ in range(len(self.node_hints)):
            hint = next(self._hint_cycle)
            if hint in live:
                return hint
        raise SchedulingError(
            f"deployment {self.name!r}: every allowed node "
            f"{self.node_hints} has left the cluster"
        )

    def set_hints(self, node_hints: list[str]) -> None:
        """Replace the placement-hint set (cluster membership changed).

        Callers (the CRM / federation planner) keep hints current as
        nodes join and leave so reconcile-time replacements track the
        latest placement decision.
        """
        self.node_hints = list(node_hints)
        self._hint_cycle = itertools.cycle(self.node_hints) if self.node_hints else None

    def scale(self, replicas: int) -> None:
        """Adjust the desired replica count and converge toward it.

        Scale-up binds new pods (raising :class:`SchedulingError` if the
        cluster is full — callers may catch and settle for fewer);
        scale-down terminates the least-loaded pods first.
        """
        if replicas < 0:
            raise SchedulingError(f"cannot scale to {replicas} replicas")
        self.desired = replicas
        self._converge()

    def _converge(self) -> None:
        while len(self.pods) < self.desired:
            pod = self.scheduler.schedule(
                self.spec, node_hint=self._next_hint(), name=f"{self.name}-{next(self._seq)}"
            )
            self.pods.append(pod)
        if len(self.pods) > self.desired:
            victims = sorted(self.pods, key=lambda p: (p.in_flight, p.name))
            for pod in victims[: len(self.pods) - self.desired]:
                self.pods.remove(pod)
                self.scheduler.cluster.terminate_pod(pod.name)

    def reconcile(self) -> int:
        """Replace pods that died underneath us (node failures).

        Prunes TERMINATED pods and re-converges to the desired count;
        returns how many replacements were attempted.  A full cluster
        leaves the deployment below desired — the next reconcile retries.
        """
        dead = [pod for pod in self.pods if pod.phase is PodPhase.TERMINATED]
        for pod in dead:
            self.pods.remove(pod)
        try:
            self._converge()
        except SchedulingError:
            pass
        return len(dead)

    def least_loaded_pod(self, include_starting: bool = False) -> Pod | None:
        """The pod with the fewest in-flight requests.

        With ``include_starting`` a STARTING pod is eligible (requests
        queue on it and run once it's ready) — the activator's behaviour
        during a cold start.  Warm capacity is always preferred: a
        request only queues on a booting pod when every ready pod is
        already saturated past twice its concurrency, otherwise a burst
        arriving mid-scale-up would pile onto idle-but-cold pods and
        wait out their boot while warm slots sit free.
        """
        # One pass over the pods, reading the phase and the slot counts
        # directly: the least ``(in_flight, name)`` ready pod and, when
        # asked for, the least starting one.
        best = spill = None
        best_load = spill_load = 0
        for pod in self.pods:
            phase = pod.phase
            if phase is PodPhase.RUNNING:
                slots = pod.slots
                load = slots.in_use + len(slots.waiting)
                if best is None or load < best_load or (
                    load == best_load and pod.name < best.name
                ):
                    best, best_load = pod, load
            elif include_starting and phase is PodPhase.STARTING:
                slots = pod.slots
                load = slots.in_use + len(slots.waiting)
                if spill is None or load < spill_load or (
                    load == spill_load and pod.name < spill.name
                ):
                    spill, spill_load = pod, load
        if best is None:
            return spill
        if spill is None or best_load < best.spec.concurrency * 2:
            return best
        return spill if spill_load < best_load else best

    def delete(self) -> None:
        """Terminate every pod."""
        self.desired = 0
        for pod in self.pods:
            self.scheduler.cluster.terminate_pod(pod.name)
        self.pods.clear()
