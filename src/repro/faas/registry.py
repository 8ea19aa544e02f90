"""The container-image registry.

In the real platform a function's ``image`` is a container reference;
here it resolves to a registered Python handler plus a service-time
model.  Handlers follow the :mod:`repro.faas.runtime` contract: they
receive a :class:`~repro.faas.runtime.TaskContext` and return either an
output mapping, a ready :class:`~repro.faas.runtime.TaskCompletion`, or
``None`` (no output).  A handler implemented as a *generator function*
may ``yield`` simulation events (timed I/O) while it executes; which
kind a handler is gets decided once, when its image is registered.

A service time is a finite, non-negative number of simulated seconds:
a constant is checked at registration, a model's value on every call.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ValidationError
from repro.faas.runtime import InvocationTask, TaskContext

__all__ = ["RegisteredImage", "FunctionRegistry"]

Handler = Callable[[TaskContext], Any]
ServiceTime = float | Callable[[InvocationTask], float]


def _checked_service_time(image: str, value: Any) -> float:
    """``value`` as a service time in seconds, or :class:`ValidationError`:
    a negative one would eat into the engine's request overhead, and an
    infinite or NaN one would never let the invocation finish."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"service time of {image!r} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(seconds) or seconds < 0:
        raise ValidationError(
            f"service time of {image!r} must be finite and >= 0, got {value!r}"
        )
    return seconds


@dataclass(frozen=True)
class RegisteredImage:
    """One deployable image: handler + execution-cost model."""

    image: str
    handler: Handler
    service_time_s: ServiceTime = 0.001
    output_bytes: int = 256
    description: str = ""
    #: Whether ``handler`` is a generator function, decided here once
    #: rather than on every invocation.
    is_generator_handler: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "is_generator_handler", inspect.isgeneratorfunction(self.handler)
        )

    def service_time(self, task: InvocationTask) -> float:
        if callable(self.service_time_s):
            return _checked_service_time(self.image, self.service_time_s(task))
        return self.service_time_s


class FunctionRegistry:
    """Image name → registered handler."""

    def __init__(self) -> None:
        self._images: dict[str, RegisteredImage] = {}

    def register(
        self,
        image: str,
        handler: Handler,
        service_time_s: ServiceTime = 0.001,
        output_bytes: int = 256,
        description: str = "",
    ) -> RegisteredImage:
        """Register (or replace) an image."""
        if not image:
            raise ValidationError("image name must be non-empty")
        if not callable(handler):
            raise ValidationError(f"handler for {image!r} is not callable")
        if not callable(service_time_s):
            service_time_s = _checked_service_time(image, service_time_s)
        entry = RegisteredImage(image, handler, service_time_s, output_bytes, description)
        self._images[image] = entry
        return entry

    def function(
        self,
        image: str,
        service_time_s: ServiceTime = 0.001,
        output_bytes: int = 256,
        description: str = "",
    ) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`register`::

            @registry.function("img/resize", service_time_s=0.004)
            def resize(ctx):
                ...
        """

        def decorate(handler: Handler) -> Handler:
            self.register(image, handler, service_time_s, output_bytes, description)
            return handler

        return decorate

    def get(self, image: str) -> RegisteredImage:
        entry = self._images.get(image)
        if entry is None:
            raise ValidationError(
                f"image {image!r} is not registered; known images: "
                f"{sorted(self._images)}"
            )
        return entry

    def __contains__(self, image: str) -> bool:
        return image in self._images

    @property
    def images(self) -> tuple[str, ...]:
        return tuple(sorted(self._images))

    def merged_with(self, other: "FunctionRegistry") -> "FunctionRegistry":
        """A new registry with ``other``'s images overlaid on this one."""
        merged = FunctionRegistry()
        merged._images.update(self._images)
        merged._images.update(other._images)
        return merged
