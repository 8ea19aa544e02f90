"""Per-class observation feeding the requirement-driven optimizer."""

from __future__ import annotations

from typing import Any

from repro.monitoring.metrics import Histogram, MetricsRegistry, SlidingWindow
from repro.sim.kernel import Environment

__all__ = ["ClassObservations", "MonitoringSystem"]


class ClassObservations:
    """Live + lifetime metrics for one deployed class."""

    def __init__(self, env: Environment, cls: str, window_s: float = 30.0) -> None:
        self.env = env
        self.cls = cls
        self.window = SlidingWindow(window_s)
        self.latency = Histogram(f"{cls}.latency_s")
        self.completed = 0
        self.failed = 0
        #: Latency SLO threshold installed by the SLO evaluator; when
        #: unset (the default, and always when the metrics plane is
        #: off) the slow-request accounting is a single no-op branch.
        self.slo_threshold_s: float | None = None
        #: Invocations slower than the SLO threshold (cumulative).
        self.slow = 0

    def set_latency_slo(self, threshold_s: float | None) -> None:
        """Count invocations slower than ``threshold_s`` from zero."""
        self.slo_threshold_s = threshold_s
        self.slow = 0

    def record_invocation(self, latency_s: float, ok: bool) -> None:
        self.window.record(self.env.now, latency_s, ok)
        self.latency.record(latency_s)
        if self.slo_threshold_s is not None and latency_s > self.slo_threshold_s:
            self.slow += 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1

    @property
    def throughput_rps(self) -> float:
        return self.window.throughput(self.env.now)

    @property
    def error_rate(self) -> float:
        return self.window.error_rate(self.env.now)

    def latency_pct_ms(self, pct: float) -> float:
        """Windowed latency percentile in milliseconds (0 when empty).

        The overload controller watches p95 rather than p99 so a
        brownout triggers on sustained degradation, not one straggler.
        """
        return self.window.latency_percentile(self.env.now, pct) * 1000.0

    def stats(self) -> dict[str, Any]:
        """Lifetime counts and the windowed rates, JSON-friendly."""
        return {
            "completed": self.completed,
            "failed": self.failed,
            "throughput_rps": self.throughput_rps,
            "error_rate": self.error_rate,
            "latency_p99_ms": self.latency_pct_ms(99),
        }


class MonitoringSystem:
    """The platform's metrics hub: per-class observations + a registry."""

    def __init__(self, env: Environment, window_s: float = 30.0) -> None:
        self.env = env
        self.window_s = window_s
        self.registry = MetricsRegistry()
        self._classes: dict[str, ClassObservations] = {}
        self.deployed: set[str] = set()
        self._unobserved = ClassObservations(env, "", window_s).stats()

    def class_changed(self, cls: str, runtime: Any | None) -> None:
        """An undeployed class's observations and every instrument
        labelled with it go, so a redeploy counts from zero."""
        if runtime is not None:
            self.deployed.add(cls)
            return
        self.deployed.discard(cls)
        self._classes.pop(cls, None)
        self.registry.discard_labelled("class", cls)

    def for_class(self, cls: str) -> ClassObservations:
        obs = self._classes.get(cls)
        if obs is None:
            obs = ClassObservations(self.env, cls, self.window_s)
            if cls in self.deployed:  # not any id prefix from outside
                self._classes[cls] = obs
        return obs

    def class_stats(self, cls: str) -> dict[str, Any]:
        """``for_class(cls).stats()`` without creating the observations:
        a class not invoked yet reads zeros and stays unobserved."""
        obs = self._classes.get(cls)
        return obs.stats() if obs is not None else dict(self._unobserved)

    @property
    def observed_classes(self) -> tuple[str, ...]:
        return tuple(sorted(self._classes))

