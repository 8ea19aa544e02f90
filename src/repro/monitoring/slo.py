"""SLO evaluation: the NFR table's rows read as burn-rate alerts.

The NFR report judges each row of a class's NFR table
(:mod:`repro.monitoring.nfr_table`) at *one point in time*; this module
reads the same rows *over time*, the way an SRE would run them: a row
with an SLO carries an error budget, and the evaluator computes
**multi-window burn rates** — how fast the budget is being consumed
over a long and a short trailing window.  An alert fires only when
*both* windows burn above the pair's threshold (the long window proves
the problem is real, the short window that it is still happening), so
it pages quickly on cliffs without flapping on blips.  A throughput row
instead tickets while most recent scrape ticks found it violated, and
each new measured crash recovery over its RPO budget is a point alert.

Alerts are emitted as typed control-plane events (``slo.alert`` /
``slo.resolve``) and retained in :attr:`SloEvaluator.alerts`; the
``slo`` report section summarizes objectives, budget consumption, and
the alert history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ValidationError
from repro.monitoring.collector import MonitoringSystem
from repro.monitoring.events import EventLog
from repro.monitoring.nfr_table import RULES, Objective, class_rows
from repro.sim.kernel import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.plane import Plane

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


class SloEvaluator:
    """Reads the NFR table's SLO rows over time and fires burn-rate alerts."""

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
        #: The plane registry whose rows join each class's (set at install).
        self.planes: Mapping[str, Plane] = {}
        #: cls -> the runtime its rows were compiled from.
        self.watched: dict[str, Any] = {}
        #: The watched SLO rows, each with its cumulative (total, bad)
        #: series, in evaluation order (by rule, then as watched).
        self._objectives: list[tuple[Objective, _BudgetSeries]] = []
        #: (cls, slo, severity) -> the currently firing alert.
        self._firing: dict[tuple[str, str, str], SloAlert] = {}

    # -- registration ------------------------------------------------------

    def watch_class(self, cls: str, runtime: Any) -> None:
        """Compile ``cls``'s NFR table and watch its rows with an SLO;
        idempotent per runtime, so only a deploy or update recompiles."""
        if self.watched.get(cls) is runtime:
            return
        self.unwatch_class(cls)
        self.watched[cls] = runtime
        rows = class_rows(cls, runtime, self.monitoring, self.planes)
        for row in sorted((row for row in rows if row.slo), key=lambda row: row.slo):
            if row.arm is not None:
                row.arm(True)
            self._objectives.append((row, _BudgetSeries()))
        self._objectives.sort(key=lambda pair: RULES.index(pair[0].rule))

    def unwatch_class(self, cls: str) -> None:
        """Drop ``cls``'s objectives and resolve its firing alerts."""
        if self.watched.pop(cls, None) is None:
            return
        for row, _series in self._objectives:
            if row.cls == cls and row.arm is not None:
                row.arm(False)
        self._objectives = [pair for pair in self._objectives if pair[0].cls != cls]
        for key in [key for key in self._firing if key[0] == cls]:
            self._transition(key, False, self.env.now, 0.0, 0.0, None)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float | None = None) -> None:
        """One evaluation pass — the scraper calls this after sampling."""
        at = self.env.now if now is None else now
        self.evaluations += 1
        for row, series in self._objectives:
            getattr(self, f"_judge_{row.rule}")(row, series, at)

    def _judge_burn(self, row: Objective, series: _BudgetSeries, at: float) -> None:
        series.append(at, *row.count())
        for window in self.config.windows:
            long_total, long_bad = series.window_counts(at, window.long_s)
            short_total, short_bad = series.window_counts(at, window.short_s)
            if long_total < self.config.min_requests:
                burn_long = burn_short = 0.0
            else:
                burn_long = (long_bad / long_total) / row.budget
                burn_short = (short_bad / short_total) / row.budget if short_total else 0.0
            should_fire = burn_long >= window.burn_rate and burn_short >= window.burn_rate
            key = (row.cls, row.slo, window.severity)
            self._transition(key, should_fire, at, burn_long, burn_short, window, row.detail)

    def _judge_ticks(self, row: Objective, series: _BudgetSeries, at: float) -> None:
        # A tick is bad when the row is violated; the SLO tickets while
        # most recent ticks in the first rule's windows are bad.
        verdict = row.verdict()
        last_total, last_bad = series.window_counts(at, float("inf"))
        series.append(at, last_total + 1, last_bad + (0 if verdict.met else 1))
        window = self.config.windows[0]
        long_total, long_bad = series.window_counts(at, window.long_s)
        short_total, short_bad = series.window_counts(at, window.short_s)
        burn_long = (long_bad / long_total) if long_total else 0.0
        burn_short = (short_bad / short_total) if short_total else 0.0
        should_fire = long_total >= 3 and burn_long >= 0.5 and burn_short >= 0.5
        detail = row.alert_detail(verdict)
        key = (row.cls, row.slo, "ticket")
        self._transition(key, should_fire, at, burn_long, burn_short, None, detail)

    def _judge_point(self, row: Objective, series: _BudgetSeries, at: float) -> None:
        # Each new event whose verdict is violated fires and resolves at once.
        total, bad = row.count()
        if total <= series.window_counts(at, float("inf"))[0]:
            return
        series.append(at, total, bad)
        verdict = row.verdict()
        if verdict is not None and not verdict.met:
            burn = verdict.observed / verdict.target if verdict.target else float("inf")
            detail = row.alert_detail(verdict)
            self._fire(SloAlert(row.cls, row.slo, "page", at, burn, burn, None, at, detail))

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
            alert = SloAlert(*key, at, burn_long, burn_short, window, None, detail)
            self._firing[key] = alert
            self._fire(alert)
        elif not should_fire and firing is not None:
            firing.resolved_at = at
            del self._firing[key]
            self._emit("slo.resolve", firing)

    def _fire(self, alert: SloAlert) -> None:
        self.alerts.append(alert)
        self._emit("slo.alert", alert)

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
        rows = sorted(self._objectives, key=lambda p: (RULES.index(p[0].rule), p[0].cls, p[0].slo))
        objectives = [self._describe(row, ser, now) for row, ser in rows if row.rule != "point"]
        return {
            "evaluations": self.evaluations,
            "objectives": objectives,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "firing": [alert.to_dict() for alert in self.firing()],
        }

    def _describe(self, row: Objective, series: _BudgetSeries, now: float) -> dict[str, Any]:
        out = {"cls": row.cls, "slo": row.slo, "target": row.target, "budget": row.budget}
        if row.rule == "ticks":
            return {**out, "observed_rps": row.verdict().observed, "detail": row.detail}
        total, bad = series.window_counts(now, float("inf"))
        budget_events = total * row.budget
        consumed = (bad / budget_events) if budget_events else 0.0
        out.update(total=total, bad=bad, budget_consumed=consumed, detail=row.detail)
        for window in self.config.windows:
            w_total, w_bad = series.window_counts(now, window.long_s)
            fraction = (w_bad / w_total) if w_total else 0.0
            out[f"burn_{int(window.long_s)}s"] = fraction / row.budget if row.budget else 0.0
        return out
