"""QoS enforcement plane: NFR-driven admission control, weighted-fair
scheduling, and load shedding.

The paper's NFR interface (§II-C) lets developers *declare* throughput,
latency, and priority; this package is where the platform *enforces*
those declarations on the data path:

1. **Admission** (:mod:`repro.qos.admission`) — per-class token buckets
   sized from declared throughput, plus a platform-wide in-flight
   ceiling.  Excess load is refused with HTTP 429 and a retry-after
   hint before it costs the platform anything.
2. **Weighted-fair scheduling** (:mod:`repro.qos.fairqueue`) — deficit
   round-robin across classes (weights from priority / budget tier)
   replaces the async topic's FIFO drain, with earliest-deadline-first
   ordering inside latency-declared classes.
3. **Load shedding** (:mod:`repro.qos.shedder`) — an overload
   controller watching queue depth and observed p95, browning out the
   lowest tier first.

Everything defaults **off** (:class:`~repro.qos.plane.QosConfig`);
enable it per platform via ``PlatformConfig(qos=QosConfig(enabled=True))``.
"""

from repro.qos.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.qos.fairqueue import QueuedItem, WeightedFairQueue
from repro.qos.plane import QosConfig, QosPlane
from repro.qos.policy import DEFAULT_QOS_POLICY, QosPolicy
from repro.qos.shedder import OverloadController

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "QueuedItem",
    "WeightedFairQueue",
    "QosConfig",
    "QosPlane",
    "QosPolicy",
    "DEFAULT_QOS_POLICY",
    "OverloadController",
]
