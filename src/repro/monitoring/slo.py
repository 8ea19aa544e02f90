"""SLO evaluation: declared NFRs compiled into burn-rate alerts.

The NFR report (:mod:`repro.monitoring.nfr_report`) judges *point in
time* compliance; this module watches compliance *over time*, the way
an SRE would run it: each declared requirement becomes a service-level
objective with an error budget, and the evaluator computes **multi-
window burn rates** — how fast the budget is being consumed over a long
and a short trailing window.  An alert fires only when *both* windows
burn above the pair's threshold (the long window proves the problem is
real, the short window proves it is still happening), which is the
standard construction that pages quickly on cliffs without flapping on
blips.

Objectives compiled per class:

* ``availability`` — bad event = failed invocation; budget =
  ``1 - declared availability``.
* ``latency_p95`` — bad event = invocation slower than the declared
  ``latency_ms``; budget = ``1 - LATENCY_OBJECTIVE`` (5%: a p95-style
  objective over the declared bound).
* ``throughput`` — deficit alert: windowed observed throughput below
  the declared capacity while the class's services are saturated.
* ``durability_rpo`` — point alert: a measured crash recovery lost more
  acknowledged seconds than the policy's RPO budget.

Alerts are emitted as typed control-plane events (``slo.alert`` /
``slo.resolve``) and retained in :attr:`SloEvaluator.alerts`; the
``slo`` report section summarizes objectives, budget consumption, and
the alert history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ValidationError
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.durability.plane import DurabilityPlane
    from repro.model.nfr import NonFunctionalRequirements, QosRequirement

__all__ = ["BurnWindow", "SloConfig", "SloAlert", "SloEvaluator"]


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate rule (long + short window, threshold)."""

    long_s: float
    short_s: float
    burn_rate: float
    severity: str  # "page" | "ticket"

    def __post_init__(self) -> None:
        if self.long_s <= 0 or self.short_s <= 0:
            raise ValidationError(
                f"burn windows must be > 0, got long={self.long_s} short={self.short_s}"
            )
        if self.short_s >= self.long_s:
            raise ValidationError(
                f"short window must be shorter than long "
                f"({self.short_s} >= {self.long_s})"
            )
        if self.burn_rate <= 1:
            raise ValidationError(
                f"burn-rate threshold must be > 1, got {self.burn_rate}"
            )


#: Default page/ticket pairs, scaled to simulated seconds (a platform
#: run lasts seconds, not the SRE handbook's hours).
DEFAULT_WINDOWS = (
    BurnWindow(long_s=30.0, short_s=5.0, burn_rate=10.0, severity="page"),
    BurnWindow(long_s=120.0, short_s=15.0, burn_rate=3.0, severity="ticket"),
)


#: Fraction of requests that must meet a declared latency bound
#: (0.95 = a p95 objective).
LATENCY_OBJECTIVE = 0.95
#: Deficit fraction tolerated before a saturated class's throughput
#: alert fires (observed may run 10% under the declared capacity).
THROUGHPUT_TOLERANCE = 0.1


@dataclass(frozen=True)
class SloConfig:
    """Evaluator tuning.

    Attributes:
        windows: the multi-window burn-rate rules, strictest first.
        min_requests: fewer requests than this inside the long window
            yields burn rate 0 (no alerting on statistical noise).
    """

    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    min_requests: int = 5

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValidationError("SloConfig requires at least one burn window")
        if self.min_requests < 1:
            raise ValidationError(
                f"min_requests must be >= 1, got {self.min_requests}"
            )


@dataclass
class SloAlert:
    """One burn-rate (or point) alert occurrence."""

    cls: str
    slo: str
    severity: str
    fired_at: float
    burn_long: float
    burn_short: float
    window: BurnWindow | None = None
    resolved_at: float | None = None
    detail: str = ""

    @property
    def firing(self) -> bool:
        return self.resolved_at is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "cls": self.cls,
            "slo": self.slo,
            "severity": self.severity,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "window_long_s": self.window.long_s if self.window else None,
            "window_short_s": self.window.short_s if self.window else None,
            "detail": self.detail,
        }


class _BudgetSeries:
    """Cumulative (total, bad) samples supporting windowed burn rates."""

    __slots__ = ("_points",)

    def __init__(self, capacity: int = 4096) -> None:
        self._points: deque[tuple[float, int, int]] = deque(maxlen=capacity)

    def append(self, at: float, total: int, bad: int) -> None:
        self._points.append((at, total, bad))

    def window_counts(self, now: float, window_s: float) -> tuple[int, int]:
        """(total, bad) deltas over the trailing window.

        The window is clipped to retained history, so early in a run a
        30-second rule evaluates over whatever has been sampled so far.
        """
        if not self._points:
            return 0, 0
        cutoff = now - window_s
        base_total = base_bad = 0
        for at, total, bad in self._points:
            if at > cutoff:
                break
            base_total, base_bad = total, bad
        _, last_total, last_bad = self._points[-1]
        return last_total - base_total, last_bad - base_bad


class _Objective:
    """One watched SLO of one class."""

    def __init__(
        self,
        cls: str,
        slo: str,
        target: float,
        budget: float,
        sample: Callable[[], tuple[int, int]],
        detail: str = "",
    ) -> None:
        self.cls = cls
        self.slo = slo  # "availability" | "latency_p95" | "throughput"
        self.target = target
        self.budget = budget
        self.sample = sample  # () -> cumulative (total, bad)
        self.detail = detail
        self.series = _BudgetSeries()

    def describe(self, now: float, windows: tuple[BurnWindow, ...]) -> dict[str, Any]:
        total, bad = self.series.window_counts(now, float("inf"))
        budget_events = total * self.budget
        out: dict[str, Any] = {
            "cls": self.cls,
            "slo": self.slo,
            "target": self.target,
            "budget": self.budget,
            "total": total,
            "bad": bad,
            "budget_consumed": (bad / budget_events) if budget_events else 0.0,
            "detail": self.detail,
        }
        for window in windows:
            w_total, w_bad = self.series.window_counts(now, window.long_s)
            fraction = (w_bad / w_total) if w_total else 0.0
            out[f"burn_{int(window.long_s)}s"] = (
                fraction / self.budget if self.budget else 0.0
            )
        return out


class SloEvaluator:
    """Watches declared NFRs as SLOs and fires burn-rate alerts."""

    def __init__(
        self,
        env: Environment,
        monitoring: MonitoringSystem,
        events: EventLog | None = None,
        config: SloConfig | None = None,
    ) -> None:
        self.env = env
        self.monitoring = monitoring
        self.events = events
        self.config = config or SloConfig()
        self.alerts: list[SloAlert] = []
        self.evaluations = 0
        self._objectives: list[_Objective] = []
        #: cls -> the declared QoS its objectives were compiled from.
        self.watched: dict[str, "QosRequirement"] = {}
        #: (cls, slo, severity) -> the currently firing alert.
        self._firing: dict[tuple[str, str, str], SloAlert] = {}
        #: Throughput deficit state per class: (target, saturated_fn, ticks).
        self._throughput: dict[str, tuple[float, Callable[[], bool], _BudgetSeries]] = {}
        #: Durability recovery counts already judged, per class.
        self._rpo_seen: dict[str, int] = {}
        self._durability: "DurabilityPlane | None" = None

    # -- registration ------------------------------------------------------

    def watch_class(
        self,
        cls: str,
        nfr: "NonFunctionalRequirements",
        saturated: Callable[[], bool] | None = None,
    ) -> None:
        """Compile one class's declared NFRs into objectives.

        Idempotent per (class, QoS); a changed QoS replaces the class's
        objectives.  Classes with no declared QoS add nothing.
        """
        qos = nfr.qos
        if self.watched.get(cls) == qos:
            return
        self.unwatch_class(cls)
        self.watched[cls] = qos
        obs = self.monitoring.for_class(cls)
        if qos.availability is not None:
            budget = 1.0 - qos.availability
            if budget > 0:
                self._objectives.append(
                    _Objective(
                        cls,
                        "availability",
                        qos.availability,
                        budget,
                        lambda o=obs: (o.completed + o.failed, o.failed),
                        detail="bad = failed invocation",
                    )
                )
        if qos.latency_ms is not None:
            obs.set_latency_slo(qos.latency_ms / 1000.0)
            self._objectives.append(
                _Objective(
                    cls,
                    "latency_p95",
                    qos.latency_ms,
                    1.0 - LATENCY_OBJECTIVE,
                    lambda o=obs: (o.completed + o.failed, o.slow),
                    detail=(
                        f"bad = latency > {qos.latency_ms:g}ms "
                        f"(objective p{LATENCY_OBJECTIVE * 100:g})"
                    ),
                )
            )
        if qos.throughput_rps is not None:
            self._throughput[cls] = (
                qos.throughput_rps,
                saturated if saturated is not None else (lambda: False),
                _BudgetSeries(),
            )

    def unwatch_class(self, cls: str) -> None:
        """Drop ``cls``'s objectives and resolve its firing alerts."""
        if self.watched.pop(cls, None) is None:
            return
        self._objectives = [o for o in self._objectives if o.cls != cls]
        self._throughput.pop(cls, None)
        self.monitoring.for_class(cls).set_latency_slo(None)
        for key in [key for key in self._firing if key[0] == cls]:
            self._transition(key, False, self.env.now, 0.0, 0.0, None)

    def watch_durability(self, durability: "DurabilityPlane | None") -> None:
        """Judge measured crash recoveries against per-class RPO budgets."""
        self._durability = durability

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float | None = None) -> None:
        """One evaluation pass — the scraper calls this after sampling."""
        at = self.env.now if now is None else now
        self.evaluations += 1
        for objective in self._objectives:
            total, bad = objective.sample()
            objective.series.append(at, total, bad)
            self._judge_burn(objective, at)
        for cls in self._throughput:
            self._judge_throughput(cls, at)
        if self._durability is not None:
            self._judge_rpo(at)

    def _judge_burn(self, objective: _Objective, at: float) -> None:
        for window in self.config.windows:
            long_total, long_bad = objective.series.window_counts(at, window.long_s)
            short_total, short_bad = objective.series.window_counts(at, window.short_s)
            if long_total < self.config.min_requests:
                burn_long = burn_short = 0.0
            else:
                burn_long = (long_bad / long_total) / objective.budget
                burn_short = (
                    (short_bad / short_total) / objective.budget if short_total else 0.0
                )
            key = (objective.cls, objective.slo, window.severity)
            should_fire = burn_long >= window.burn_rate and burn_short >= window.burn_rate
            self._transition(
                key,
                should_fire,
                at,
                burn_long,
                burn_short,
                window,
                detail=objective.detail,
            )

    def _judge_throughput(self, cls: str, at: float) -> None:
        target, saturated, series = self._throughput[cls]
        observed = self.monitoring.for_class(cls).throughput_rps
        # Track scrape ticks where the class ran saturated *and* under
        # target; burn semantics: bad tick / total tick vs a 10% budget.
        is_sat = bool(saturated())
        deficit = observed < target * (1.0 - THROUGHPUT_TOLERANCE)
        last_total, last_bad = series.window_counts(at, float("inf"))
        series.append(at, last_total + 1, last_bad + (1 if (is_sat and deficit) else 0))
        window = self.config.windows[0]
        long_total, long_bad = series.window_counts(at, window.long_s)
        short_total, short_bad = series.window_counts(at, window.short_s)
        # A capacity SLO pages when most recent ticks are deficient.
        burn_long = (long_bad / long_total) if long_total else 0.0
        burn_short = (short_bad / short_total) if short_total else 0.0
        should_fire = (
            long_total >= 3 and burn_long >= 0.5 and burn_short >= 0.5
        )
        self._transition(
            (cls, "throughput", "ticket"),
            should_fire,
            at,
            burn_long,
            burn_short,
            None,
            detail=(
                f"observed {observed:.1f} rps < declared {target:g} rps "
                f"while saturated"
            ),
        )

    def _judge_rpo(self, at: float) -> None:
        durability = self._durability
        for cls in self.watched:
            tracker = durability.tracker_for(cls)
            policy = durability.policy_for(cls)
            if tracker is None or policy is None or not policy.enabled:
                continue
            if tracker.recoveries <= self._rpo_seen.get(cls, 0):
                continue
            self._rpo_seen[cls] = tracker.recoveries
            recovery = tracker.last_recovery
            if recovery is None:
                continue
            rpo = float(recovery["rpo_s"])
            budget = float(policy.rpo_budget_s)
            if rpo <= budget:
                continue
            # Point alert: the budget was exceeded by a completed
            # recovery; it fires and resolves at the same instant.
            alert = SloAlert(
                cls=cls,
                slo="durability_rpo",
                severity="page",
                fired_at=at,
                resolved_at=at,
                burn_long=(rpo / budget) if budget else float("inf"),
                burn_short=(rpo / budget) if budget else float("inf"),
                detail=(
                    f"measured RPO {rpo:.4f}s exceeds budget {budget:.4f}s "
                    f"({recovery['lost_writes']} write(s) lost)"
                ),
            )
            self.alerts.append(alert)
            self._emit("slo.alert", alert)

    def _transition(
        self,
        key: tuple[str, str, str],
        should_fire: bool,
        at: float,
        burn_long: float,
        burn_short: float,
        window: BurnWindow | None,
        detail: str = "",
    ) -> None:
        firing = self._firing.get(key)
        if should_fire and firing is None:
            alert = SloAlert(
                cls=key[0],
                slo=key[1],
                severity=key[2],
                fired_at=at,
                burn_long=burn_long,
                burn_short=burn_short,
                window=window,
                detail=detail,
            )
            self._firing[key] = alert
            self.alerts.append(alert)
            self._emit("slo.alert", alert)
        elif not should_fire and firing is not None:
            firing.resolved_at = at
            del self._firing[key]
            self._emit("slo.resolve", firing)

    def _emit(self, type: str, alert: SloAlert) -> None:
        if self.events is None:
            return
        self.events.record(
            type,
            cls=alert.cls,
            slo=alert.slo,
            severity=alert.severity,
            burn_long=round(alert.burn_long, 3),
            burn_short=round(alert.burn_short, 3),
            detail=alert.detail,
        )

    # -- reporting ---------------------------------------------------------

    def firing(self) -> list[SloAlert]:
        """Alerts currently active, stable order."""
        return [self._firing[key] for key in sorted(self._firing)]

    def report(self) -> dict[str, Any]:
        """The ``slo`` report section: objectives, budgets, alerts."""
        now = self.env.now
        objectives = [
            objective.describe(now, self.config.windows)
            for objective in sorted(self._objectives, key=lambda o: (o.cls, o.slo))
        ]
        for cls in sorted(self._throughput):
            target = self._throughput[cls][0]
            obs = self.monitoring.for_class(cls)
            objectives.append(
                {
                    "cls": cls,
                    "slo": "throughput",
                    "target": target,
                    "budget": THROUGHPUT_TOLERANCE,
                    "observed_rps": obs.throughput_rps,
                    "detail": "capacity objective while saturated",
                }
            )
        return {
            "evaluations": self.evaluations,
            "objectives": objectives,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "firing": [alert.to_dict() for alert in self.firing()],
        }
