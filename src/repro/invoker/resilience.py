"""Data-plane resilience policies: the platform absorbing fault
tolerance so developers don't have to (§II-C's availability NFR made
operational).

A :class:`ResiliencePolicy` is derived per class from its declared NFRs
at deploy time and enforced by the invocation engine:

* **bounded retries** with exponential backoff + deterministic jitter on
  transport faults (partitions, unreachable owners) and deadline
  timeouts;
* **per-invocation deadlines** on the FaaS offload, derived from the
  declared latency target;
* a **circuit breaker** per (class, node): consecutive data-plane
  failures against one node open the breaker, and placement sheds
  traffic to healthy replicas until a half-open probe succeeds;
* **stale-read fallback**: persistent classes serve reads from the
  document store when every DHT owner is partitioned away.

Breaker transitions are recorded as control-plane events
(``resilience.breaker_*``), so every defensive action the platform takes
is auditable through the event log.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.model.nfr import NonFunctionalRequirements
from repro.monitoring.events import EventLog
from repro.sim.kernel import Environment

__all__ = [
    "ResiliencePolicy",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
    "DEFAULT_POLICY",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the data plane defends one class's availability target.

    Attributes:
        max_retries: fault retries (transport faults, missed deadlines)
            per data-plane step; CAS conflicts have their own budget,
            the engine's ``MAX_CAS_RETRIES``.
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier per further attempt.
        backoff_max_s: cap on any single backoff delay.
        backoff_jitter: extra random fraction (0.5 = up to +50%) drawn
            from a seeded stream, keeping retry storms decorrelated
            *and* deterministic.
        deadline_s: per-attempt FaaS offload deadline; ``None`` = wait
            forever (classes with no latency target).
        breaker_failure_threshold: consecutive failures against one
            node that open its breaker; ``None`` disables breakers.
        breaker_recovery_s: open-state hold time before a half-open
            probe is allowed through.
        stale_read_fallback: serve reads from the document store when
            every DHT owner is unreachable (persistent classes only).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    backoff_jitter: float = 0.5
    deadline_s: float | None = None
    breaker_failure_threshold: int | None = 5
    breaker_recovery_s: float = 10.0
    stale_read_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0:
            raise ValidationError(
                f"backoff_base_s must be > 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ValidationError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValidationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.breaker_failure_threshold is not None and self.breaker_failure_threshold < 1:
            raise ValidationError(
                f"breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_recovery_s <= 0:
            raise ValidationError(
                f"breaker_recovery_s must be > 0, got {self.breaker_recovery_s}"
            )

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (1-based), jittered."""
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.backoff_jitter:
            raw *= 1.0 + self.backoff_jitter * rng.random()
        return raw

    @classmethod
    def from_nfr(
        cls, nfr: NonFunctionalRequirements, persistent: bool = True
    ) -> "ResiliencePolicy":
        """Derive the enforcement knobs from a class's declared NFRs.

        Tighter availability targets buy more retries and a more
        trigger-happy breaker; a declared latency target sets the
        offload deadline (generously above the declared p95 bound, so
        cold starts don't trip it).
        """
        availability = nfr.qos.availability
        if availability is None:
            max_retries, threshold = 2, 5
        elif availability >= 0.9999:
            max_retries, threshold = 5, 3
        elif availability >= 0.999:
            max_retries, threshold = 4, 3
        elif availability >= 0.99:
            max_retries, threshold = 3, 4
        else:
            max_retries, threshold = 2, 5
        deadline_s = None
        recovery_s = 10.0
        if nfr.qos.latency_ms is not None:
            deadline_s = max(2.0, 25.0 * nfr.qos.latency_ms / 1000.0)
            recovery_s = 5.0
        return cls(
            max_retries=max_retries,
            deadline_s=deadline_s,
            breaker_failure_threshold=threshold,
            breaker_recovery_s=recovery_s,
            stale_read_fallback=persistent,
        )


#: Policy applied when a class's runtime declares nothing.
DEFAULT_POLICY = ResiliencePolicy()


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure accounting for one (class, node) pair."""

    def __init__(self, threshold: int, recovery_s: float) -> None:
        self.threshold = threshold
        self.recovery_s = recovery_s
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at: float | None = None
        self.opens = 0
        self.closes = 0


class BreakerBoard:
    """All circuit breakers of one invocation engine.

    Breakers are created lazily on the first recorded failure, so a
    healthy platform carries an empty dict and every check is a single
    truthiness branch.
    """

    def __init__(self, env: Environment, events: EventLog | None = None) -> None:
        self.env = env
        self.events = events
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        #: True once any breaker exists (the slow-path trigger); read on
        #: every placement, so a field and not a property.
        self.active = False

    def get(self, cls: str, node: str) -> CircuitBreaker | None:
        return self._breakers.get((cls, node))

    def _effective_state(self, breaker: CircuitBreaker) -> BreakerState:
        """OPEN transitions to HALF_OPEN lazily when traffic checks the
        breaker; report that pending transition so a breaker whose
        recovery window elapsed no longer reads as shedding."""
        if (
            breaker.state is BreakerState.OPEN
            and breaker.opened_at is not None
            and self.env.now - breaker.opened_at >= breaker.recovery_s
        ):
            return BreakerState.HALF_OPEN
        return breaker.state

    def state(self, cls: str, node: str) -> str:
        breaker = self._breakers.get((cls, node))
        return self._effective_state(breaker).value if breaker else BreakerState.CLOSED.value

    def open_count(self) -> int:
        """How many breakers are actively shedding traffic right now."""
        return sum(
            1
            for b in self._breakers.values()
            if self._effective_state(b) is BreakerState.OPEN
        )

    def _emit(self, kind: str, cls: str, node: str, **fields) -> None:
        if self.events is not None:
            self.events.record(kind, cls=cls, node=node, **fields)

    def allow(self, cls: str, node: str) -> bool:
        """Whether placement may send traffic at ``node`` for ``cls``."""
        breaker = self._breakers.get((cls, node))
        if breaker is None or breaker.state is BreakerState.CLOSED:
            return True
        if breaker.state is BreakerState.OPEN:
            if (
                breaker.opened_at is not None
                and self.env.now - breaker.opened_at >= breaker.recovery_s
            ):
                breaker.state = BreakerState.HALF_OPEN
                self._emit("resilience.breaker_half_open", cls, node)
                return True
            return False
        return True  # HALF_OPEN: let the probe through

    def record_failure(self, cls: str, node: str, policy: ResiliencePolicy) -> None:
        if policy.breaker_failure_threshold is None:
            return
        breaker = self._breakers.get((cls, node))
        if breaker is None:
            breaker = CircuitBreaker(
                policy.breaker_failure_threshold, policy.breaker_recovery_s
            )
            self._breakers[(cls, node)] = breaker
            self.active = True
        breaker.failures += 1
        if breaker.state is BreakerState.HALF_OPEN:
            # The probe failed: re-open and restart the recovery clock.
            breaker.state = BreakerState.OPEN
            breaker.opened_at = self.env.now
            breaker.opens += 1
            self._emit(
                "resilience.breaker_open", cls, node, failures=breaker.failures, probe=True
            )
        elif (
            breaker.state is BreakerState.CLOSED
            and breaker.failures >= breaker.threshold
        ):
            breaker.state = BreakerState.OPEN
            breaker.opened_at = self.env.now
            breaker.opens += 1
            self._emit(
                "resilience.breaker_open", cls, node, failures=breaker.failures
            )

    def record_success(self, cls: str, node: str) -> None:
        if not self._breakers:
            return
        breaker = self._breakers.get((cls, node))
        if breaker is None:
            return
        if breaker.state is BreakerState.HALF_OPEN:
            breaker.state = BreakerState.CLOSED
            breaker.failures = 0
            breaker.opened_at = None
            breaker.closes += 1
            self._emit("resilience.breaker_close", cls, node)
        elif breaker.state is BreakerState.CLOSED:
            breaker.failures = 0

    def snapshot(self) -> dict[str, str]:
        """Current (effective) state of every instantiated breaker."""
        return {
            f"{cls}@{node}": self._effective_state(breaker).value
            for (cls, node), breaker in sorted(self._breakers.items())
        }
