"""Exception hierarchy for the repro (Oparaca / OaaS) platform.

Every error raised by the platform derives from :class:`OaasError`, so
callers embedding the platform can catch one base type.  The hierarchy
mirrors the planes of the system: definition-time errors (package and
class validation), deployment-time errors (template selection, resource
provisioning), and invocation-time errors (routing, execution, storage).
"""

from __future__ import annotations


class OaasError(Exception):
    """Base class for all errors raised by the platform."""


class ValidationError(OaasError):
    """A package, class, function, or NFR definition is invalid."""


class PackageError(ValidationError):
    """A package file could not be parsed or resolved."""


class QueryError(ValidationError):
    """An object query is malformed: bad predicate syntax, an unknown or
    untyped key, a value that does not coerce to the key's declared
    type, or a cursor that does not match the query's ordering.
    Gateways map this to HTTP 400."""


class ClassResolutionError(ValidationError):
    """Inheritance resolution failed (unknown parent, cycle, conflict)."""


class UnknownClassError(OaasError):
    """A request referenced a class that is not deployed."""


class UnknownFunctionError(OaasError):
    """A request referenced a function not bound to the target class."""


class UnknownObjectError(OaasError):
    """A request referenced an object id that does not exist."""


class DeploymentError(OaasError):
    """Deploying a class runtime failed."""


class TemplateSelectionError(DeploymentError):
    """No class-runtime template matches the class requirements."""


class TransportError(OaasError):
    """A network-level exchange could not complete."""


class NetworkPartitionError(TransportError):
    """The source and destination are on different partition sides."""


class InvocationError(OaasError):
    """A function invocation failed."""


class InvocationTimeoutError(InvocationError):
    """An invocation exceeded its resilience-policy deadline."""


class ServiceUnavailableError(InvocationError):
    """No healthy replica could accept the request (all shed or down)."""


class RateLimitedError(InvocationError):
    """Admission control rejected the request (per-class token bucket or
    the platform concurrency ceiling).  Gateways map this to HTTP 429
    and carry a ``retry_after_s`` hint in the response body."""


class OverloadError(InvocationError):
    """Queued work was shed by the overload controller (brownout).  The
    request never executed; callers may resubmit once load subsides."""


class NoRouteError(OaasError):
    """An HTTP request matched no gateway route (method/path pair)."""


class JurisdictionError(InvocationError):
    """A request from one jurisdiction touched an object whose class is
    constrained to another.  Raised only when the federation plane is
    enabled and the request carries an origin zone; gateways map this to
    HTTP 451 and the rejection is counted into the class's
    ``jurisdiction`` NFR verdict."""


class MigrationError(OaasError):
    """A live object migration between zones could not complete (unknown
    target zone, no eligible node in the target zone, or a handoff
    precondition failed)."""


class FunctionExecutionError(InvocationError):
    """The user function raised an exception.

    The original exception is preserved as ``__cause__`` and its text in
    :attr:`detail` so that callers inspecting a completed invocation do
    not need to re-raise.
    """

    def __init__(self, message: str, detail: str = "") -> None:
        super().__init__(message)
        self.detail = detail


class DataflowError(InvocationError):
    """A dataflow (macro) definition or execution is invalid."""


class StorageError(OaasError):
    """A storage-layer operation failed."""


class KeyNotFoundError(StorageError):
    """The requested key does not exist in the store."""


class BucketNotFoundError(StorageError):
    """The requested object-storage bucket does not exist."""


class PresignedUrlError(StorageError):
    """A presigned URL failed verification (bad signature or expired)."""


class SnapshotNotFoundError(StorageError):
    """No snapshot generation satisfies a restore request (unknown
    generation, a point-in-time before the first cut, or an object that
    was never captured by any cut)."""


class ConcurrentModificationError(StorageError):
    """An optimistic-concurrency write lost the race (version mismatch)."""


class SchedulingError(OaasError):
    """The orchestrator could not place a pod."""


class SimulationError(OaasError):
    """The discrete-event kernel was used incorrectly."""


class InternalError(OaasError):
    """An unexpected non-platform exception crossed the invoker boundary.

    Raw exceptions (``KeyError``, ``AttributeError``, ...) must never
    escape to callers; the engine wraps them so clients always receive a
    structured :class:`OaasError` payload.
    """
