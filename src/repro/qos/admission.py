"""Admission control: token buckets and the platform concurrency ceiling.

The first stage of the QoS pipeline.  A request is checked *before* any
platform work happens (before gateway routing overhead is spent, before
the async queue accepts the message), so rejected load costs almost
nothing — the property that makes declared throughput enforceable at
all.  Two mechanisms compose:

* a per-class :class:`TokenBucket` sized from the class's declared
  ``throughput`` NFR (rate) with a short burst credit on top, and
* an optional platform-wide in-flight ceiling that backstops classes
  with no declared rate.

Rejections carry a ``retry_after_s`` hint — the bucket's own estimate
of when one token will next be available — so well-behaved clients can
back off precisely instead of hammering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qos.policy import QosPolicy
from repro.sim.kernel import Environment

__all__ = ["TokenBucket", "AdmissionDecision", "AdmissionController"]

#: Fallback retry hint when no rate information is available (ceiling
#: rejections): half the default shed-controller check interval.
DEFAULT_RETRY_AFTER_S = 0.1

ADMIT = "admitted"
REJECT_RATE = "rate"
REJECT_CONCURRENCY = "concurrency"


class TokenBucket:
    """A lazily-refilled token bucket on simulated time.

    Tokens accrue continuously at ``rate`` up to ``capacity``; the
    refill is computed on demand from elapsed sim time, so the bucket
    costs nothing while idle and stays exactly deterministic (no
    background process, no rounding drift across runs).
    """

    def __init__(self, env: Environment, rate: float, capacity: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last_refill = env.now

    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._last_refill = now

    @property
    def tokens(self) -> float:
        """Current token balance (after refilling to now)."""
        self._refill()
        return self._tokens

    def try_take(self, count: float = 1.0) -> bool:
        """Take ``count`` tokens if available; False leaves the bucket as-is."""
        self._refill()
        if self._tokens >= count:
            self._tokens -= count
            return True
        return False

    def retry_after_s(self, count: float = 1.0) -> float:
        """Time until ``count`` tokens will have accrued (0 if available now)."""
        self._refill()
        deficit = count - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``reason`` is :data:`ADMIT`, :data:`REJECT_RATE` (class token bucket
    empty), or :data:`REJECT_CONCURRENCY` (platform ceiling reached).
    """

    admitted: bool
    reason: str
    cls: str
    retry_after_s: float = 0.0


class AdmissionController:
    """Per-class rate limiting plus a platform-wide in-flight ceiling.

    The controller is policy-driven: classes whose :class:`QosPolicy`
    declares no rate are never rate-limited (only the shared ceiling can
    refuse them).  Buckets are created on first use so only classes that
    actually receive traffic pay for state.
    """

    def __init__(
        self, env: Environment, concurrency_limit: int | None = None
    ) -> None:
        if concurrency_limit is not None and concurrency_limit < 1:
            raise ValueError(
                f"concurrency_limit must be >= 1, got {concurrency_limit}"
            )
        self.env = env
        self.concurrency_limit = concurrency_limit
        self.in_flight = 0
        self._buckets: dict[str, TokenBucket] = {}
        #: cls -> the (frozen) decision every admitted request of the
        #: class gets: built once, handed out per request.
        self._admits: dict[str, AdmissionDecision] = {}
        self.admitted: dict[str, int] = {}
        self.rejected_rate: dict[str, int] = {}
        self.rejected_concurrency: dict[str, int] = {}

    def _bucket_for(self, policy: QosPolicy) -> TokenBucket | None:
        if policy.rate_rps is None:  # unlimited
            return None
        bucket = self._buckets.get(policy.cls)
        if bucket is None:
            bucket = TokenBucket(self.env, policy.rate_rps, policy.burst)
            self._buckets[policy.cls] = bucket
        return bucket

    def check(self, policy: QosPolicy, *, use_ceiling: bool = True) -> AdmissionDecision:
        """Admit or reject one request under ``policy``.

        The rate check runs first: a class exceeding its own declared
        throughput is refused on its own merits before it is allowed to
        compete for the shared ceiling.  On admission with
        ``use_ceiling``, the caller owns one in-flight slot and must
        :meth:`release` it when the request completes.
        """
        cls = policy.cls
        bucket = self._bucket_for(policy)
        if bucket is not None and not bucket.try_take():
            self.rejected_rate[cls] = self.rejected_rate.get(cls, 0) + 1
            return AdmissionDecision(
                admitted=False,
                reason=REJECT_RATE,
                cls=cls,
                retry_after_s=bucket.retry_after_s(),
            )
        if (
            use_ceiling
            and self.concurrency_limit is not None
            and self.in_flight >= self.concurrency_limit
        ):
            if bucket is not None:
                # Hand the token back: the request never ran, and the
                # class should not be double-charged for a shared-ceiling
                # refusal.
                bucket._tokens = min(bucket.capacity, bucket._tokens + 1.0)
            self.rejected_concurrency[cls] = (
                self.rejected_concurrency.get(cls, 0) + 1
            )
            retry = (
                bucket.retry_after_s() if bucket is not None else 0.0
            ) or DEFAULT_RETRY_AFTER_S
            return AdmissionDecision(
                admitted=False,
                reason=REJECT_CONCURRENCY,
                cls=cls,
                retry_after_s=retry,
            )
        if use_ceiling:
            self.in_flight += 1
        self.admitted[cls] = self.admitted.get(cls, 0) + 1
        decision = self._admits.get(cls)
        if decision is None:
            decision = self._admits[cls] = AdmissionDecision(True, ADMIT, cls)
        return decision

    def forget(self, cls: str) -> None:
        """Drop what ``cls``'s old policy built: its bucket and decision."""
        self._buckets.pop(cls, None)
        self._admits.pop(cls, None)

    def release(self) -> None:
        """Return an in-flight slot taken by an admitted ceiling check."""
        if self.in_flight > 0:
            self.in_flight -= 1

    def tokens(self, cls: str) -> float | None:
        """Current bucket balance for ``cls`` (None = no bucket yet)."""
        bucket = self._buckets.get(cls)
        return None if bucket is None else bucket.tokens

    def stats(self) -> dict[str, dict[str, int]]:
        """Admission counters by class (sorted, JSON-friendly)."""
        classes = sorted(
            set(self.admitted)
            | set(self.rejected_rate)
            | set(self.rejected_concurrency)
        )
        return {
            cls: {
                "admitted": self.admitted.get(cls, 0),
                "rejected_rate": self.rejected_rate.get(cls, 0),
                "rejected_concurrency": self.rejected_concurrency.get(cls, 0),
            }
            for cls in classes
        }
