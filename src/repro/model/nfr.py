"""Non-functional requirement (NFR) interface (paper §II-C).

Developers attach *QoS requirements* (measurable service-level targets:
throughput, availability, latency) and *deployment constraints*
(persistence, budget, jurisdiction) to a class — or override them per
function.  The platform consumes these during deployment: the class
runtime manager matches them against runtime templates (§III-B) and the
optimizer enforces them at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.errors import ValidationError

__all__ = [
    "QosRequirement",
    "Constraint",
    "NonFunctionalRequirements",
    "MAX_PRIORITY",
    "PERSISTENCE_LEVELS",
]

#: Upper bound of the declared scheduling priority scale (1 = lowest).
MAX_PRIORITY = 10

#: Valid values of the ``persistence`` constraint level.  ``strong``
#: demands synchronous durability on every commit, ``standard`` accepts
#: the write-behind/periodic-snapshot window, ``none`` declares the
#: class ephemeral (equivalent to ``persistent: false``).
PERSISTENCE_LEVELS = ("strong", "standard", "none")


def _checked_number(name: str, value, allow_bool: bool = False) -> float:
    """A finite ``float`` from a declared QoS value, or a clear error.

    YAML happily hands us strings, booleans, NaN, and infinities; every
    one of them would otherwise slip past a plain ``<= 0`` comparison
    (NaN compares false with everything) and surface later as a broken
    enforcement decision."""
    if isinstance(value, bool) and not allow_bool:
        raise ValidationError(f"{name} must be a number, got a boolean")
    if not isinstance(value, (int, float)):
        raise ValidationError(
            f"{name} must be a number, got {type(value).__name__} {value!r}"
        )
    result = float(value)
    if not math.isfinite(result):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return result


@dataclass(frozen=True)
class QosRequirement:
    """Measurable quality-of-service targets.

    All fields are optional; ``None`` means "no requirement".

    Attributes:
        throughput_rps: sustained invocations/second the class must
            support (Listing 1: ``throughput: 100``).
        availability: required availability as a fraction in (0, 1],
            e.g. ``0.999``.
        latency_ms: p95 end-to-end invocation latency bound.
        priority: scheduling priority relative to other classes
            (1 = lowest, :data:`MAX_PRIORITY` = highest).  Consumed by
            the QoS enforcement plane: it sets the class's weighted-fair
            share and its shed order under overload.
    """

    throughput_rps: float | None = None
    availability: float | None = None
    latency_ms: float | None = None
    priority: int | None = None

    def __post_init__(self) -> None:
        if self.throughput_rps is not None:
            if _checked_number("throughput", self.throughput_rps) <= 0:
                raise ValidationError(
                    f"throughput must be > 0, got {self.throughput_rps}"
                )
        if self.availability is not None:
            if not 0 < _checked_number("availability", self.availability) <= 1:
                raise ValidationError(
                    f"availability must be in (0, 1], got {self.availability}"
                )
        if self.latency_ms is not None:
            if _checked_number("latency bound", self.latency_ms) <= 0:
                raise ValidationError(
                    f"latency bound must be > 0, got {self.latency_ms}"
                )
        if self.priority is not None:
            if isinstance(self.priority, bool) or not isinstance(self.priority, int):
                raise ValidationError(
                    f"priority must be an integer, got {self.priority!r}"
                )
            if not 1 <= self.priority <= MAX_PRIORITY:
                raise ValidationError(
                    f"priority must be in [1, {MAX_PRIORITY}], got {self.priority}"
                )

    @property
    def is_empty(self) -> bool:
        return all(getattr(self, f.name) is None for f in fields(self))


@dataclass(frozen=True)
class Constraint:
    """Deployment constraints.

    Attributes:
        persistent: whether object state must survive the in-memory tier
            (Listing 1: ``persistent: true``).  Non-persistent classes
            skip database write-behind entirely — the
            ``oprc-bypass-nonpersist`` configuration of Fig. 3.
        persistence: the declared durability *level* refining the
            boolean — one of :data:`PERSISTENCE_LEVELS`.  ``strong``
            asks for synchronous snapshot-on-commit epochs (RPO = 0),
            ``standard`` accepts the write-behind / periodic-cut window,
            ``none`` is ephemeral.  ``None`` (unset) derives the level
            from ``persistent``: ``standard`` when true, ``none`` when
            false.
        budget_usd_per_month: upper bound on monthly deployment cost.
        jurisdictions: datacenter regions where state may reside; empty
            means unrestricted.
    """

    persistent: bool = True
    persistence: str | None = None
    budget_usd_per_month: float | None = None
    jurisdictions: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.budget_usd_per_month is not None and self.budget_usd_per_month <= 0:
            raise ValidationError(
                f"budget must be > 0, got {self.budget_usd_per_month}"
            )
        if self.persistence is not None:
            if self.persistence not in PERSISTENCE_LEVELS:
                raise ValidationError(
                    f"persistence must be one of {list(PERSISTENCE_LEVELS)}, "
                    f"got {self.persistence!r}"
                )
            # The level and the boolean must not contradict: an
            # ephemeral level on a persistent class (or vice versa)
            # would make template matching and durability policy
            # disagree about the same declaration.
            if (self.persistence == "none") == self.persistent:
                raise ValidationError(
                    f"persistence={self.persistence!r} contradicts "
                    f"persistent={self.persistent}"
                )

    @property
    def persistence_level(self) -> str:
        """The effective durability level (always one of
        :data:`PERSISTENCE_LEVELS`), deriving unset levels from the
        ``persistent`` boolean."""
        if self.persistence is not None:
            return self.persistence
        return "standard" if self.persistent else "none"

    @property
    def is_default(self) -> bool:
        return (
            self.persistent
            and self.persistence is None
            and self.budget_usd_per_month is None
            and not self.jurisdictions
        )


@dataclass(frozen=True)
class NonFunctionalRequirements:
    """The complete NFR block of a class or function."""

    qos: QosRequirement = field(default_factory=QosRequirement)
    constraint: Constraint = field(default_factory=Constraint)

    @classmethod
    def none(cls) -> "NonFunctionalRequirements":
        """The empty requirement block (all defaults)."""
        return cls()

    @property
    def is_default(self) -> bool:
        return self.qos.is_empty and self.constraint.is_default

    def merged_over(self, base: "NonFunctionalRequirements") -> "NonFunctionalRequirements":
        """Overlay these requirements on inherited ``base`` requirements.

        Field-wise: a child value wins where it is set; unset QoS fields
        fall back to the parent.  Constraints are taken wholesale from
        whichever block is non-default, preferring the child.
        """
        qos = QosRequirement(
            throughput_rps=(
                self.qos.throughput_rps
                if self.qos.throughput_rps is not None
                else base.qos.throughput_rps
            ),
            availability=(
                self.qos.availability
                if self.qos.availability is not None
                else base.qos.availability
            ),
            latency_ms=(
                self.qos.latency_ms
                if self.qos.latency_ms is not None
                else base.qos.latency_ms
            ),
            priority=(
                self.qos.priority
                if self.qos.priority is not None
                else base.qos.priority
            ),
        )
        constraint = self.constraint if not self.constraint.is_default else base.constraint
        return NonFunctionalRequirements(qos=qos, constraint=constraint)
